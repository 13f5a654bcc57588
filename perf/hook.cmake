# Included through CMAKE_PROJECT_INCLUDE by run.py when it configures the
# repository's own root CMakeLists.txt. The library CMake files name their
# include root as ${CMAKE_SOURCE_DIR}/src, so the benchmark cannot be a
# separate top-level project that add_subdirectory()s them. Instead this
# hook defers an include() of perf/CMakeLists.txt to the end of the root
# directory, after every library and tool target exists, without editing
# any file outside perf/. (Deferred calls may not add subdirectories, and
# their arguments are read when they run, hence the EVAL.)
include_guard(GLOBAL)
cmake_language(EVAL CODE
  "cmake_language(DEFER DIRECTORY \"${CMAKE_SOURCE_DIR}\" CALL include \"${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt\")")
