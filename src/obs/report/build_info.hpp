// Build provenance stamped into every versioned run report, so a committed
// BENCH_*.json trajectory point records which revision and flags produced
// it. The revision is read on every build, the flags at configure time
// (see src/obs/CMakeLists.txt); out-of-git builds report "unknown".
#pragma once

namespace dfsssp::obs {

/// Short git revision of the source tree at the last build ("unknown"
/// outside a git checkout or when git fails). Read at build time, so a
/// tree configured at one commit and rebuilt at another names the one it
/// built.
const char* git_rev();

/// Build type plus user CXX flags at configure time, e.g. "Release -O3".
const char* build_flags();

}  // namespace dfsssp::obs
