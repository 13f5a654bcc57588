#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "topology/generators.hpp"
#include "topology/io.hpp"
#include "topology/metrics.hpp"

namespace dfsssp {
namespace {

class TempFile {
 public:
  explicit TempFile(const char* tag)
      : path_(std::string(::testing::TempDir()) + "dfel_" + tag + ".bin") {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(EdgeList, RoundTripPreservesStructure) {
  TempFile file("roundtrip");
  Topology orig = make_dragonfly(4, 2, 2, 9);
  write_edgelist(orig.net, file.path());
  Topology back = read_edgelist_path(file.path());
  EXPECT_EQ(structure_hash(back.net), structure_hash(orig.net));
  EXPECT_EQ(back.net.num_switches(), orig.net.num_switches());
  EXPECT_EQ(back.net.num_terminals(), orig.net.num_terminals());
  EXPECT_EQ(back.meta.family, "edgelist");  // names/meta deliberately dropped
  EXPECT_FALSE(back.net.has_custom_name(0));
}

TEST(EdgeList, RoundTripParallelLinksAndMultiTerminals) {
  TempFile file("parallel");
  Network net;
  NodeId a = net.add_switch();
  NodeId b = net.add_switch();
  net.add_link(a, b);
  net.add_link(a, b);  // parallel link survives the format
  net.add_terminal(a);
  net.add_terminal(a);
  net.add_terminal(b);
  net.freeze();
  write_edgelist(net, file.path());
  Topology back = read_edgelist_path(file.path());
  EXPECT_EQ(structure_hash(back.net), structure_hash(net));
}

TEST(EdgeList, WriterStreamsChunks) {
  TempFile file("writer");
  {
    EdgeListWriter writer(file.path(), 4);
    const std::vector<SwitchLink> chunk1{{0, 1}, {1, 2}};
    const std::vector<SwitchLink> chunk2{{2, 3}};
    const std::vector<std::uint32_t> terms{0, 3};
    writer.add_links(chunk1);
    writer.add_links(chunk2);
    writer.add_terminals(terms);
    writer.finish();
  }
  Topology back = read_edgelist_path(file.path());
  EXPECT_EQ(back.net.num_switches(), 4U);
  EXPECT_EQ(back.net.num_terminals(), 2U);
  EXPECT_EQ(back.net.switch_degree(1), 2U);
  EXPECT_TRUE(back.net.connected());

  // Streamed output is byte-identical to write_edgelist of the same net.
  Network built;
  for (int i = 0; i < 4; ++i) built.add_switch();
  built.add_link(0, 1);
  built.add_link(1, 2);
  built.add_link(2, 3);
  built.add_terminal(0);
  built.add_terminal(3);
  built.freeze();
  TempFile file2("writer_ref");
  write_edgelist(built, file2.path());
  std::ifstream f1(file.path(), std::ios::binary);
  std::ifstream f2(file2.path(), std::ios::binary);
  std::string b1((std::istreambuf_iterator<char>(f1)),
                 std::istreambuf_iterator<char>());
  std::string b2((std::istreambuf_iterator<char>(f2)),
                 std::istreambuf_iterator<char>());
  EXPECT_EQ(b1, b2);
}

TEST(EdgeList, BadMagicThrows) {
  std::istringstream in(std::string("NOTDFEL0") + std::string(24, '\0'));
  EXPECT_THROW(read_edgelist(in), std::runtime_error);
}

TEST(EdgeList, TruncatedHeaderThrows) {
  std::istringstream in(std::string("DFEL"));
  EXPECT_THROW(read_edgelist(in), std::runtime_error);
}

TEST(EdgeList, TruncatedBodyThrows) {
  TempFile file("truncated");
  Topology orig = make_ring(8, 1);
  write_edgelist(orig.net, file.path());
  std::ifstream in(file.path(), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes.resize(bytes.size() - 3);  // clip mid-record
  std::istringstream clipped(bytes);
  EXPECT_THROW(read_edgelist(clipped), std::runtime_error);
}

TEST(EdgeList, OutOfRangeEndpointThrows) {
  TempFile file("oob");
  {
    EdgeListWriter writer(file.path(), 2);
    // Bypass builder validation: the writer does not validate, the reader
    // must.
    const std::vector<SwitchLink> links{{0, 7}};
    writer.add_links(links);
    writer.finish();
  }
  EXPECT_THROW(read_edgelist_path(file.path()), std::runtime_error);
}

// The header's counts must not size an allocation: a 32-byte file whose
// header claims 2^36 links fails as a truncated link section.
TEST(EdgeList, HeaderCountsBeyondTheFileAreTruncation) {
  std::string bytes(32, '\0');
  const auto put = [&bytes](std::size_t at, std::uint64_t v) {
    for (std::size_t i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  };
  put(0, kEdgeListMagic);
  put(8, 4);            // switches
  put(16, 1ULL << 36);  // links
  put(24, 0);           // terminals
  std::istringstream in(bytes);
  EXPECT_THROW(read_edgelist(in), std::runtime_error);
}

TEST(EdgeList, MissingFileThrows) {
  EXPECT_THROW(read_edgelist_path("/nonexistent/nope.dfel"),
               std::runtime_error);
}

}  // namespace
}  // namespace dfsssp
