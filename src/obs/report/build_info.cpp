#include "obs/report/build_info.hpp"

// Generated at build time by src/obs/git_rev.cmake: defines DFS_GIT_REV.
#include "git_rev.h"

#ifndef DFS_BUILD_FLAGS
#define DFS_BUILD_FLAGS "unknown"
#endif

namespace dfsssp::obs {

const char* git_rev() { return DFS_GIT_REV; }

const char* build_flags() { return DFS_BUILD_FLAGS; }

}  // namespace dfsssp::obs
