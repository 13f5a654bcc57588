#include "topology/chunked.hpp"

#include <stdexcept>
#include "common/narrow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dfsssp {

namespace {

/// Switch-id-range families split their streams into spans of this many
/// ids. A function of topology size only — never of the thread count —
/// so the chunk grid (and with it every chunk's RNG stream) is identical
/// at any --threads=N.
constexpr std::uint64_t kChunkSpan = 2048;

std::uint64_t chunk_count(std::uint64_t total) {
  return total == 0 ? 1 : (total + kChunkSpan - 1) / kChunkSpan;
}

/// [begin, end) of chunk `chunk` over [0, total).
std::pair<std::uint64_t, std::uint64_t> chunk_range(std::uint64_t chunk,
                                                    std::uint64_t total) {
  const std::uint64_t lo = chunk * kChunkSpan;
  const std::uint64_t hi = std::min(total, lo + kChunkSpan);
  return {std::min(lo, total), hi};
}

}  // namespace

Topology generate_chunked(const ChunkedGenerator& gen, const ExecContext& exec,
                          const ChunkedOptions& opts) {
  // Profiler/trace spans sit at work-item granularity (one per id-span
  // chunk): the chunk grid is size-derived, so invocation counts and the
  // emitted-link tallies are identical at any --threads=N.
  obs::TraceSpan span("topology/generate_chunked");
  static obs::Counter& c_links =
      obs::registry().counter("topology/links_emitted");
  static obs::Counter& c_terminals =
      obs::registry().counter("topology/terminals_emitted");
  const GenLayout lay = gen.layout();
  NetworkBuilder builder(lay.num_switches);
  builder.reserve_links(lay.num_links);
  builder.reserve_terminals(lay.num_terminals);

  const std::uint64_t base_seed = gen.seed();
  for (std::uint32_t phase = 0; phase < lay.link_phases; ++phase) {
    auto chunks = parallel_map(
        exec, static_cast<std::size_t>(lay.link_chunks), [&](std::size_t i) {
          obs::TraceSpan chunk_span("topology/emit_links");
          std::vector<SwitchLink> out;
          Rng rng(stream_seed(base_seed,
                              (static_cast<std::uint64_t>(phase) << 40) |
                                  static_cast<std::uint64_t>(i)));
          gen.emit_links(phase, i, rng, out);
          c_links.tally(out.size());
          return out;
        });
    for (const auto& c : chunks) builder.add_links(c);
  }

  auto terminal_chunks = parallel_map(
      exec, static_cast<std::size_t>(lay.terminal_chunks), [&](std::size_t i) {
        obs::TraceSpan chunk_span("topology/emit_terminals");
        std::vector<std::uint32_t> out;
        gen.emit_terminals(i, out);
        c_terminals.tally(out.size());
        return out;
      });
  for (const auto& c : terminal_chunks) builder.add_terminals(c);

  if (opts.record_names) {
    for (std::uint64_t sw = 0; sw < lay.num_switches; ++sw) {
      std::string name = gen.switch_name(sw);
      if (!name.empty()) {
        builder.set_switch_name(checked_u32(sw, "switch name"),
                                std::move(name));
      }
    }
  }

  Topology topo;
  {
    obs::TraceSpan build_span("topology/build");
    topo.net = builder.build(opts.validate);
  }
  topo.name = gen.topo_name();
  topo.meta.family = gen.family();
  gen.fill_meta(topo.meta);
  return topo;
}

// ---- dragonfly --------------------------------------------------------------

ChunkedDragonfly::ChunkedDragonfly(std::uint32_t a, std::uint32_t p,
                                   std::uint32_t h, std::uint32_t g)
    : a_(a), p_(p), h_(h), g_(g) {
  if (a == 0 || g == 0) {
    throw std::invalid_argument("dragonfly: a, g >= 1");
  }
  if (static_cast<std::uint64_t>(a) * h != g - 1) {
    throw std::invalid_argument(
        "dragonfly: balanced layout requires a*h == g-1");
  }
}

std::string ChunkedDragonfly::topo_name() const {
  return "dragonfly-a" + std::to_string(a_) + "p" + std::to_string(p_) + "h" +
         std::to_string(h_) + "g" + std::to_string(g_);
}

GenLayout ChunkedDragonfly::layout() const {
  GenLayout lay;
  lay.num_switches = static_cast<std::uint64_t>(a_) * g_;
  // Local cliques plus one global link per (group pair handled); every
  // switch owns h global ports and each link covers two.
  lay.num_links = static_cast<std::uint64_t>(g_) * a_ * (a_ - 1) / 2 +
                  lay.num_switches * h_ / 2;
  lay.num_terminals = static_cast<std::uint64_t>(p_) * lay.num_switches;
  lay.link_phases = 2;  // phase 0: local, phase 1: global
  lay.link_chunks = g_;
  lay.terminal_chunks = g_;
  return lay;
}

void ChunkedDragonfly::emit_links(std::uint32_t phase, std::uint64_t chunk,
                                  Rng& rng,
                                  std::vector<SwitchLink>& out) const {
  (void)rng;
  const std::uint32_t grp = checked_u32(chunk, "dragonfly group");
  const std::uint32_t base = grp * a_;
  if (phase == 0) {
    for (std::uint32_t i = 0; i < a_; ++i) {
      for (std::uint32_t j = i + 1; j < a_; ++j) {
        out.push_back({base + i, base + j});
      }
    }
    return;
  }
  // Global links: switch i, global port j of group x handles group offset
  // o = i*h + j + 1 and connects to group (x + o) mod g, where the peer is
  // the switch handling the complementary offset g - o. Added once, from
  // the side with the smaller offset (middle tie: smaller group id) — the
  // same rule as make_dragonfly.
  const std::uint32_t x = grp;
  for (std::uint32_t i = 0; i < a_; ++i) {
    for (std::uint32_t j = 0; j < h_; ++j) {
      const std::uint32_t o = i * h_ + j + 1;
      const std::uint32_t y = (x + o) % g_;
      const std::uint32_t back = g_ - o;
      const std::uint32_t pi = (back - 1) / h_;
      if (o < back || (o == back && x < y)) {
        out.push_back({x * a_ + i, y * a_ + pi});
      }
    }
  }
}

void ChunkedDragonfly::emit_terminals(std::uint64_t chunk,
                                      std::vector<std::uint32_t>& out) const {
  const std::uint32_t base = checked_u32(chunk, "dragonfly group") * a_;
  for (std::uint32_t i = 0; i < a_; ++i) {
    for (std::uint32_t t = 0; t < p_; ++t) out.push_back(base + i);
  }
}

std::string ChunkedDragonfly::switch_name(std::uint64_t sw) const {
  std::string name = "g";
  name += std::to_string(sw / a_);
  name += ".s";
  name += std::to_string(sw % a_);
  return name;
}

// ---- xgft -------------------------------------------------------------------

ChunkedXgft::ChunkedXgft(std::uint32_t h, std::vector<std::uint32_t> ms,
                         std::vector<std::uint32_t> ws,
                         std::uint32_t terminals_per_leaf)
    : h_(h), ms_(std::move(ms)), ws_(std::move(ws)), tpl_(terminals_per_leaf) {
  if (ms_.size() != h_ || ws_.size() != h_) {
    throw std::invalid_argument("xgft: need h entries in ms and ws");
  }
  if (h_ == 0) throw std::invalid_argument("xgft: h >= 1");
  if (tpl_ == 0) tpl_ = ms_[0];
  size_.assign(h_ + 1, 1);
  tops_.assign(h_ + 1, 1);
  leaves_.assign(h_ + 1, 1);
  for (std::uint32_t l = 1; l <= h_; ++l) {
    tops_[l] = tops_[l - 1] * ws_[l - 1];
    size_[l] = ms_[l - 1] * size_[l - 1] + tops_[l];
    leaves_[l] = ms_[l - 1] * leaves_[l - 1];
  }
}

std::string ChunkedXgft::topo_name() const {
  std::string name = "xgft-" + std::to_string(h_);
  for (std::uint32_t m : ms_) name += "-m" + std::to_string(m);
  for (std::uint32_t w : ws_) name += "-w" + std::to_string(w);
  return name;
}

GenLayout ChunkedXgft::layout() const {
  GenLayout lay;
  lay.num_switches = size_[h_];
  // Every level-l root carries m_l down-links; the whole tree holds
  // (number of height-l subtrees) * tops(l) such roots.
  std::uint64_t subtrees = 1;
  for (std::uint32_t l = h_; l >= 1; --l) {
    lay.num_links += subtrees * tops_[l] * ms_[l - 1];
    subtrees *= ms_[l - 1];
  }
  lay.num_terminals = leaves_[h_] * tpl_;
  lay.link_chunks = chunk_count(lay.num_switches);
  lay.terminal_chunks = chunk_count(lay.num_terminals);
  return lay;
}

ChunkedXgft::Decoded ChunkedXgft::decode(std::uint64_t id) const {
  std::uint64_t base = 0;
  for (std::uint32_t level = h_; level >= 1; --level) {
    const std::uint64_t rel = id - base;
    const std::uint64_t children = ms_[level - 1] * size_[level - 1];
    if (rel >= children) return {level, base, rel - children};
    base += (rel / size_[level - 1]) * size_[level - 1];
  }
  return {0, base, 0};
}

std::uint64_t ChunkedXgft::leaf_id(std::uint64_t leaf_index) const {
  std::uint64_t base = 0;
  for (std::uint32_t level = h_; level >= 1; --level) {
    const std::uint64_t s = leaf_index / leaves_[level - 1];
    base += s * size_[level - 1];
    leaf_index %= leaves_[level - 1];
  }
  return base;
}

void ChunkedXgft::emit_links(std::uint32_t phase, std::uint64_t chunk,
                             Rng& rng, std::vector<SwitchLink>& out) const {
  (void)phase;
  (void)rng;
  const auto [lo, hi] = chunk_range(chunk, size_[h_]);
  for (std::uint64_t id = lo; id < hi; ++id) {
    const Decoded d = decode(id);
    if (d.level == 0) continue;
    const std::uint32_t l = d.level;
    const std::uint64_t r = d.root_index / ws_[l - 1];
    // subtree_tops[s][r] of the recursive builder: root r of the s-th
    // height-(l-1) subtree (the leaf itself when l-1 == 0).
    const std::uint64_t child_top =
        l == 1 ? 0 : ms_[l - 2] * size_[l - 2] + r;
    for (std::uint32_t s = 0; s < ms_[l - 1]; ++s) {
      const std::uint64_t child = d.base + s * size_[l - 1] + child_top;
      out.push_back({checked_u32(id, "xgft switch"),
                     checked_u32(child, "xgft switch")});
    }
  }
}

void ChunkedXgft::emit_terminals(std::uint64_t chunk,
                                 std::vector<std::uint32_t>& out) const {
  const auto [lo, hi] = chunk_range(chunk, leaves_[h_] * tpl_);
  for (std::uint64_t t = lo; t < hi; ++t) {
    out.push_back(checked_u32(leaf_id(t / tpl_), "xgft leaf"));
  }
}

void ChunkedXgft::fill_meta(TopologyMeta& meta) const {
  meta.sw_level.resize(size_[h_]);
  for (std::uint64_t id = 0; id < size_[h_]; ++id) {
    meta.sw_level[id] = checked_narrow<std::int32_t>(decode(id).level,
                                                     "xgft level");
  }
}

// ---- torus / mesh -----------------------------------------------------------

ChunkedTorus::ChunkedTorus(std::vector<std::uint32_t> dims,
                           std::uint32_t terminals_per_switch, bool wraparound)
    : dims_(std::move(dims)), tps_(terminals_per_switch),
      wraparound_(wraparound), total_(1) {
  if (dims_.empty()) throw std::invalid_argument("torus: no dimensions");
  for (std::uint32_t d : dims_) {
    if (d < 2) throw std::invalid_argument("torus: dimension radix < 2");
    total_ *= d;
  }
}

std::uint32_t ChunkedTorus::coord_of(std::uint64_t idx,
                                     std::size_t dim) const {
  for (std::size_t d = 0; d < dim; ++d) idx /= dims_[d];
  return checked_u32(idx % dims_[dim], "torus coord");
}

std::string ChunkedTorus::topo_name() const {
  std::string name = family();
  for (std::uint32_t d : dims_) {
    name += '-';
    name += std::to_string(d);
  }
  return name;
}

GenLayout ChunkedTorus::layout() const {
  GenLayout lay;
  lay.num_switches = total_;
  for (std::uint32_t d : dims_) {
    lay.num_links += total_ / d * (d - 1);               // +1 neighbors
    if (wraparound_ && d > 2) lay.num_links += total_ / d;  // wrap rings
  }
  lay.num_terminals = static_cast<std::uint64_t>(tps_) * total_;
  lay.link_chunks = chunk_count(total_);
  lay.terminal_chunks = chunk_count(lay.num_terminals);
  return lay;
}

void ChunkedTorus::emit_links(std::uint32_t phase, std::uint64_t chunk,
                              Rng& rng, std::vector<SwitchLink>& out) const {
  (void)phase;
  (void)rng;
  const auto [lo, hi] = chunk_range(chunk, total_);
  for (std::uint64_t i = lo; i < hi; ++i) {
    std::uint64_t stride = 1;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      const std::uint32_t c = coord_of(i, d);
      if (c + 1 < dims_[d]) {
        out.push_back({checked_u32(i, "torus switch"),
                       checked_u32(i + stride, "torus switch")});
      }
      // Wrap link once per ring, skipped for radix 2 where it would
      // duplicate the 0-1 link.
      if (wraparound_ && c == dims_[d] - 1 && dims_[d] > 2) {
        out.push_back({checked_u32(i, "torus switch"),
                       checked_u32(i - c * stride, "torus switch")});
      }
      stride *= dims_[d];
    }
  }
}

void ChunkedTorus::emit_terminals(std::uint64_t chunk,
                                  std::vector<std::uint32_t>& out) const {
  const auto [lo, hi] =
      chunk_range(chunk, static_cast<std::uint64_t>(tps_) * total_);
  for (std::uint64_t t = lo; t < hi; ++t) {
    out.push_back(checked_u32(t / tps_, "terminal switch"));
  }
}

void ChunkedTorus::fill_meta(TopologyMeta& meta) const {
  meta.dims = dims_;
  meta.wraparound = wraparound_;
  meta.sw_coord.resize(total_ * dims_.size());
  for (std::uint64_t i = 0; i < total_; ++i) {
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      meta.sw_coord[i * dims_.size() + d] = coord_of(i, d);
    }
  }
}

// ---- hyperx -----------------------------------------------------------------

ChunkedHyperx::ChunkedHyperx(std::vector<std::uint32_t> dims,
                             std::uint32_t terminals_per_switch)
    : dims_(std::move(dims)), tps_(terminals_per_switch), total_(1) {
  if (dims_.empty()) throw std::invalid_argument("hyperx: no dimensions");
  for (std::uint32_t d : dims_) {
    if (d < 2) throw std::invalid_argument("hyperx: dimension radix < 2");
    total_ *= d;
  }
}

std::uint32_t ChunkedHyperx::coord_of(std::uint64_t idx,
                                      std::size_t dim) const {
  for (std::size_t d = 0; d < dim; ++d) idx /= dims_[d];
  return checked_u32(idx % dims_[dim], "hyperx coord");
}

std::string ChunkedHyperx::topo_name() const {
  std::string name = "hyperx";
  for (std::uint32_t d : dims_) {
    name += '-';
    name += std::to_string(d);
  }
  return name;
}

GenLayout ChunkedHyperx::layout() const {
  GenLayout lay;
  lay.num_switches = total_;
  for (std::uint32_t d : dims_) {
    // Each axis line is a clique on d switches; total/d lines per dim.
    lay.num_links += total_ / d * (static_cast<std::uint64_t>(d) * (d - 1) / 2);
  }
  lay.num_terminals = static_cast<std::uint64_t>(tps_) * total_;
  lay.link_chunks = chunk_count(total_);
  lay.terminal_chunks = chunk_count(lay.num_terminals);
  return lay;
}

void ChunkedHyperx::emit_links(std::uint32_t phase, std::uint64_t chunk,
                               Rng& rng, std::vector<SwitchLink>& out) const {
  (void)phase;
  (void)rng;
  const auto [lo, hi] = chunk_range(chunk, total_);
  for (std::uint64_t i = lo; i < hi; ++i) {
    std::uint64_t stride = 1;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      const std::uint32_t c = coord_of(i, d);
      for (std::uint32_t other = c + 1; other < dims_[d]; ++other) {
        out.push_back({checked_u32(i, "hyperx switch"),
                       checked_u32(
                           i + static_cast<std::uint64_t>(other - c) * stride,
                           "hyperx switch")});
      }
      stride *= dims_[d];
    }
  }
}

void ChunkedHyperx::emit_terminals(std::uint64_t chunk,
                                   std::vector<std::uint32_t>& out) const {
  const auto [lo, hi] =
      chunk_range(chunk, static_cast<std::uint64_t>(tps_) * total_);
  for (std::uint64_t t = lo; t < hi; ++t) {
    out.push_back(checked_u32(t / tps_, "terminal switch"));
  }
}

void ChunkedHyperx::fill_meta(TopologyMeta& meta) const {
  meta.dims = dims_;
  meta.sw_coord.resize(total_ * dims_.size());
  for (std::uint64_t i = 0; i < total_; ++i) {
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      meta.sw_coord[i * dims_.size() + d] = coord_of(i, d);
    }
  }
}

// ---- random-regular ---------------------------------------------------------

IndexPermutation::IndexPermutation(std::uint64_t n, std::uint64_t seed)
    : n_(n) {
  if (n == 0) throw std::invalid_argument("IndexPermutation: empty domain");
  std::uint32_t bits = 2;
  while ((std::uint64_t{1} << bits) < n) bits += 2;
  half_bits_ = bits / 2;
  half_mask_ = (std::uint64_t{1} << half_bits_) - 1;
  Rng rng(seed);
  for (auto& k : keys_) k = rng.next();
}

std::uint64_t IndexPermutation::permute_once(std::uint64_t x) const {
  std::uint64_t left = x >> half_bits_;
  std::uint64_t right = x & half_mask_;
  for (std::uint64_t key : keys_) {
    std::uint64_t state = right ^ key;
    const std::uint64_t mixed = splitmix64(state);
    const std::uint64_t next_right = left ^ (mixed & half_mask_);
    left = right;
    right = next_right;
  }
  return (left << half_bits_) | right;
}

std::uint64_t IndexPermutation::operator()(std::uint64_t i) const {
  // Cycle-walking: the Feistel bijection acts on the power-of-two
  // superdomain; iterating from an in-range start stays on a cycle, so the
  // first in-range image is reached in O(superdomain / n) expected steps
  // and the restriction to [0, n) is itself a bijection.
  std::uint64_t x = permute_once(i);
  while (x >= n_) x = permute_once(x);
  return x;
}

std::uint64_t random_regular_round_seed(std::uint64_t seed,
                                        std::uint32_t round) {
  return stream_seed(seed, 0x5252'0000ULL + round);
}

ChunkedRandomRegular::ChunkedRandomRegular(std::uint64_t n,
                                           std::uint32_t degree,
                                           std::uint32_t terminals_per_switch,
                                           std::uint64_t seed)
    : n_(n), degree_(degree), tps_(terminals_per_switch), seed_(seed) {
  if (n < 3) throw std::invalid_argument("random-regular: >= 3 switches");
  if (degree < 2 || degree % 2 != 0) {
    throw std::invalid_argument("random-regular: degree must be even >= 2");
  }
  if (n >= static_cast<std::uint64_t>(kInvalidNode)) {
    throw std::overflow_error("random-regular: switch count overflows NodeId");
  }
}

std::string ChunkedRandomRegular::topo_name() const {
  return "random-regular-" + std::to_string(n_) + "x" +
         std::to_string(degree_) + "-s" + std::to_string(seed_);
}

GenLayout ChunkedRandomRegular::layout() const {
  GenLayout lay;
  lay.num_switches = n_;
  lay.num_links = n_ * (degree_ / 2);  // upper bound; fixed points drop out
  lay.num_terminals = static_cast<std::uint64_t>(tps_) * n_;
  lay.link_phases = degree_ / 2;  // phase 0: ring, then permutation rounds
  lay.link_chunks = chunk_count(n_);
  lay.terminal_chunks = chunk_count(lay.num_terminals);
  return lay;
}

void ChunkedRandomRegular::emit_links(std::uint32_t phase, std::uint64_t chunk,
                                      Rng& rng,
                                      std::vector<SwitchLink>& out) const {
  (void)rng;
  const auto [lo, hi] = chunk_range(chunk, n_);
  if (phase == 0) {
    for (std::uint64_t i = lo; i < hi; ++i) {
      out.push_back({checked_u32(i, "rrg switch"),
                     checked_u32((i + 1) % n_, "rrg switch")});
    }
    return;
  }
  const IndexPermutation perm(n_, random_regular_round_seed(seed_, phase));
  for (std::uint64_t i = lo; i < hi; ++i) {
    const std::uint64_t j = perm(i);
    if (j != i) {
      out.push_back(
          {checked_u32(i, "rrg switch"), checked_u32(j, "rrg switch")});
    }
  }
}

void ChunkedRandomRegular::emit_terminals(std::uint64_t chunk,
                                          std::vector<std::uint32_t>& out)
    const {
  const auto [lo, hi] =
      chunk_range(chunk, static_cast<std::uint64_t>(tps_) * n_);
  for (std::uint64_t t = lo; t < hi; ++t) {
    out.push_back(checked_u32(t / tps_, "terminal switch"));
  }
}

}  // namespace dfsssp
