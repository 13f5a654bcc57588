// Flight recorder: record codec, bounded ring, and the DFJR on-disk
// segment format.
//
// The contracts under test (ISSUE: flight recorder):
//   * a Record round-trips the fixed-size binary codec bit-exactly and the
//     encoding is exactly kRecordBytes;
//   * the ring keeps the newest `capacity` records, counts drops, and
//     tail() streams with cursor resume and kind filtering;
//   * a DFJR segment round-trips through write (Journal sink) and
//     read_journal, self-describing header included;
//   * a flipped byte is a CRC hard error; a file cut mid-frame is a
//     tolerated truncated tail with the full prefix intact.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/journal/journal.hpp"

namespace dfsssp::obs::journal {
namespace {

Record sample_record(std::uint64_t seq) {
  Record r;
  r.seq = seq;
  r.logical_ts = seq * 2 + 1;
  r.kind = static_cast<EventKind>(1 + (seq - 1) % 6);
  r.fault_kind = 2;
  r.layers = 3;
  r.flags = kFlagOk | kFlagIncremental;
  r.channel = 0xC0FFEE;
  r.sw = 42;
  r.count = 7;
  r.destinations_rerouted = 88;
  r.version_before = seq;
  r.version_after = seq + 1;
  r.paths = 64436;
  r.table_digest = 0x1c11b6248f476f1bULL;
  r.cert_digest = 0x74a6cae251ded6caULL;
  r.latency_ns = 5'287'000;
  r.req_max_layers = 8;
  return r;
}

void expect_records_equal(const Record& a, const Record& b) {
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.logical_ts, b.logical_ts);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.fault_kind, b.fault_kind);
  EXPECT_EQ(a.layers, b.layers);
  EXPECT_EQ(a.flags, b.flags);
  EXPECT_EQ(a.channel, b.channel);
  EXPECT_EQ(a.sw, b.sw);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.destinations_rerouted, b.destinations_rerouted);
  EXPECT_EQ(a.version_before, b.version_before);
  EXPECT_EQ(a.version_after, b.version_after);
  EXPECT_EQ(a.paths, b.paths);
  EXPECT_EQ(a.table_digest, b.table_digest);
  EXPECT_EQ(a.cert_digest, b.cert_digest);
  EXPECT_EQ(a.latency_ns, b.latency_ns);
  EXPECT_EQ(a.req_max_layers, b.req_max_layers);
}

TEST(JournalRecord, CodecRoundTripsExactlyRecordBytes) {
  const Record r = sample_record(3);
  std::string buf;
  encode_record(buf, r);
  ASSERT_EQ(buf.size(), kRecordBytes);

  wire::Reader reader{buf, 0};
  Record out;
  ASSERT_TRUE(decode_record(reader, out));
  expect_records_equal(r, out);
  EXPECT_EQ(reader.remaining(), 0u);

  // A short buffer never half-decodes.
  wire::Reader short_reader{std::string_view(buf).substr(0, kRecordBytes - 1),
                            0};
  EXPECT_FALSE(decode_record(short_reader, out));
}

TEST(JournalRecord, DescribeNamesEveryKind) {
  for (std::uint8_t k = 1; k <= 6; ++k) {
    Record r = sample_record(1);
    r.kind = static_cast<EventKind>(k);
    const std::string line = describe(r);
    EXPECT_NE(line.find(to_string(r.kind)), std::string::npos) << line;
  }
  EXPECT_TRUE(known_kind(1));
  EXPECT_TRUE(known_kind(6));
  EXPECT_FALSE(known_kind(0));
  EXPECT_FALSE(known_kind(7));
}

TEST(Journal, RingOverwritesOldestAndCountsDrops) {
  Journal::Options opts;
  opts.capacity = 4;
  Journal journal(opts);

  for (std::uint64_t i = 1; i <= 10; ++i) {
    Record r = sample_record(i);
    r.kind = EventKind::kRoute;
    EXPECT_EQ(journal.append(r), i);
  }

  const JournalStats stats = journal.stats();
  EXPECT_EQ(stats.appended, 10u);
  EXPECT_EQ(stats.dropped, 6u);
  EXPECT_EQ(stats.size, 4u);
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_EQ(stats.next_seq, 11u);
  EXPECT_EQ(stats.by_kind[1], 10u);
  EXPECT_FALSE(stats.sink_open);

  // Tailing from 1 silently skips the overwritten prefix: only seq 7..10
  // survive, and the resume cursor lands one past the end.
  std::vector<Record> out;
  const std::uint64_t next = journal.tail(1, 0, 0, out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.front().seq, 7u);
  EXPECT_EQ(out.back().seq, 10u);
  EXPECT_EQ(next, 11u);

  // Resuming from the cursor returns nothing new.
  out.clear();
  EXPECT_EQ(journal.tail(next, 0, 0, out), next);
  EXPECT_TRUE(out.empty());
}

TEST(Journal, TailHonorsMaxAndKindFilter) {
  Journal::Options opts;
  opts.capacity = 64;
  Journal journal(opts);

  // Alternate route / snapshot_swap records.
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Record r = sample_record(i);
    r.kind = i % 2 == 1 ? EventKind::kRoute : EventKind::kSnapshotSwap;
    journal.append(r);
  }

  // max batches the stream; the cursor resumes exactly where it stopped.
  std::vector<Record> out;
  std::uint64_t cursor = journal.tail(1, 3, 0, out);
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(cursor, 4u);
  out.clear();
  cursor = journal.tail(cursor, 0, 0, out);
  EXPECT_EQ(out.size(), 7u);
  EXPECT_EQ(cursor, 11u);

  // Kind filter: only the snapshot swaps (even seqs).
  out.clear();
  journal.tail(1, 0, static_cast<std::uint8_t>(EventKind::kSnapshotSwap),
               out);
  ASSERT_EQ(out.size(), 5u);
  for (const Record& r : out) {
    EXPECT_EQ(r.kind, EventKind::kSnapshotSwap);
    EXPECT_EQ(r.seq % 2, 0u);
  }
}

// ------------------------------------------------------------ DFJR on disk

struct TempPath {
  std::string path;
  explicit TempPath(const char* tag)
      : path(std::string(::testing::TempDir()) + "dfjr_" + tag + ".dfjr") {
    std::remove(path.c_str());
  }
  ~TempPath() { std::remove(path.c_str()); }
};

/// Writes a small segment through the Journal sink and returns its stats.
JournalStats write_segment(const std::string& path, std::uint64_t records) {
  Journal::Options opts;
  opts.capacity = 16;
  opts.path = path;
  opts.topo_config = "kary-tree:4:2";
  opts.engine = "dfsssp";
  opts.max_layers = 8;
  Journal journal(opts);
  EXPECT_TRUE(journal.sink_ok()) << journal.error();
  for (std::uint64_t i = 1; i <= records; ++i) {
    journal.append(sample_record(i));
  }
  return journal.stats();  // dtor closes the sink after this
}

TEST(JournalFileFormat, SegmentRoundTripsHeaderAndRecords) {
  TempPath tmp("roundtrip");
  const JournalStats stats = write_segment(tmp.path, 9);
  EXPECT_TRUE(stats.sink_open);
  EXPECT_FALSE(stats.sink_failed);
  EXPECT_GT(stats.disk_bytes, 9u * kRecordBytes);

  JournalFile file;
  std::string error;
  ASSERT_TRUE(read_journal(tmp.path, file, error)) << error;
  EXPECT_EQ(file.topo_config, "kary-tree:4:2");
  EXPECT_EQ(file.engine, "dfsssp");
  EXPECT_EQ(file.max_layers, 8u);
  EXPECT_EQ(file.record_bytes, kRecordBytes);
  EXPECT_FALSE(file.truncated_tail);
  ASSERT_EQ(file.records.size(), 9u);
  for (std::uint64_t i = 1; i <= 9; ++i) {
    expect_records_equal(sample_record(i), file.records[i - 1]);
  }

  // The ring only kept 16 slots but the segment is append-only: write more
  // than capacity and every record is still on disk.
  TempPath big("overflow");
  write_segment(big.path, 40);
  JournalFile all;
  ASSERT_TRUE(read_journal(big.path, all, error)) << error;
  EXPECT_EQ(all.records.size(), 40u);
}

TEST(JournalFileFormat, FlippedByteIsACrcHardError) {
  TempPath tmp("corrupt");
  write_segment(tmp.path, 5);

  // Flip one byte in the middle of the record region.
  std::fstream f(tmp.path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  const std::streamoff target = size - kRecordBytes / 2;
  f.seekg(target);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(target);
  f.write(&byte, 1);
  f.close();

  JournalFile file;
  std::string error;
  EXPECT_FALSE(read_journal(tmp.path, file, error));
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(JournalFileFormat, TruncatedTailKeepsThePrefix) {
  TempPath tmp("truncated");
  const JournalStats stats = write_segment(tmp.path, 5);

  // Cut the file mid-way through the final frame — a crash during the
  // last append. The four complete records must survive.
  ASSERT_EQ(::truncate(tmp.path.c_str(),
                       static_cast<off_t>(stats.disk_bytes - 10)),
            0);

  JournalFile file;
  std::string error;
  ASSERT_TRUE(read_journal(tmp.path, file, error)) << error;
  EXPECT_TRUE(file.truncated_tail);
  ASSERT_EQ(file.records.size(), 4u);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    expect_records_equal(sample_record(i), file.records[i - 1]);
  }
}

TEST(JournalFileFormat, RejectsBadMagicAndMissingHeader) {
  TempPath tmp("badmagic");
  {
    std::ofstream f(tmp.path, std::ios::binary);
    f << "NOTJ\x01\x00 something that is not a journal";
  }
  JournalFile file;
  std::string error;
  EXPECT_FALSE(read_journal(tmp.path, file, error));
  EXPECT_FALSE(error.empty());

  std::string missing_error;
  EXPECT_FALSE(read_journal(std::string(::testing::TempDir()) +
                                "does_not_exist.dfjr",
                            file, missing_error));
  EXPECT_FALSE(missing_error.empty());
}

TEST(JournalCrc32, MatchesKnownVector) {
  // The classic zlib check value: crc32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

}  // namespace
}  // namespace dfsssp::obs::journal
