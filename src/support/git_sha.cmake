# Stamps the checkout's git sha into a one-line header:
#   cmake -DSOURCE_DIR=<dir in the checkout> -DOUTPUT=<header> -P git_sha.cmake
# src/support/CMakeLists.txt runs it on every build. The header is rewritten
# only when the sha changes, so an unchanged commit rebuilds nothing and a
# new one recompiles provenance.cpp alone. Outside git the sha is "unknown".
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE result)
if(NOT result EQUAL 0 OR sha STREQUAL "")
  set(sha "unknown")
endif()
set(content "#define HECMINE_GIT_SHA \"${sha}\"\n")
set(current "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" current)
endif()
if(NOT current STREQUAL content)
  file(WRITE "${OUTPUT}" "${content}")
endif()
