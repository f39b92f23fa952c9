# Writes OUT, a header that defines HBRP_GIT_COMMIT as the short hash of the
# checkout's HEAD, suffixed "-dirty" when tracked files differ from HEAD
# ("unknown" outside a git checkout). bench/CMakeLists.txt runs it on every
# build, so a BENCH report names the tree its binary was built from. OUT is
# rewritten only when the stamp changes: an unchanged tree recompiles
# nothing.
#
#   cmake -DSRC=<repository root> -DOUT=<header> -P bench/git_stamp.cmake
execute_process(
  COMMAND git rev-parse --short=12 HEAD
  WORKING_DIRECTORY "${SRC}"
  OUTPUT_VARIABLE commit
  OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE rc
  ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT commit)
  set(commit "unknown")
else()
  execute_process(
    COMMAND git status --porcelain --untracked-files=no
    WORKING_DIRECTORY "${SRC}"
    OUTPUT_VARIABLE changes
    ERROR_QUIET)
  if(changes)
    string(APPEND commit "-dirty")
  endif()
endif()

set(content "// Generated at build time by bench/git_stamp.cmake.\n")
string(APPEND content "#define HBRP_GIT_COMMIT \"${commit}\"\n")
set(old "")
if(EXISTS "${OUT}")
  file(READ "${OUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUT}" "${content}")
endif()
