# cmake -DSOURCE_DIR=... -DOUT=... -P git_rev.cmake: writes OUT defining
# DFS_GIT_REV as SOURCE_DIR's short git revision ("unknown" outside git or
# when git fails), and only when it changed, so a no-op rebuild is one.
execute_process(COMMAND git -C ${SOURCE_DIR} rev-parse --short=12 HEAD
                OUTPUT_VARIABLE rev OUTPUT_STRIP_TRAILING_WHITESPACE
                ERROR_QUIET RESULT_VARIABLE result)
if(NOT result EQUAL 0 OR rev STREQUAL "")
  set(rev "unknown")
endif()
set(header "#define DFS_GIT_REV \"${rev}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL header)
  file(WRITE "${OUT}" "${header}")
endif()
