# Fails when library code under SRC_DIR reads an environment variable
# outside the allowlist below. Each one is a behaviour switch that no
# option or test names, so a new one needs a consumer and a reason
# before it is added here. Run: cmake -DSRC_DIR=<repo>/src
# -P check_env_allowlist.cmake
cmake_policy(SET CMP0057 NEW)  # if(IN_LIST)
set(allowed ARRAYTRACK_EXACT_EVD ARRAYTRACK_FORCE_SCALAR ARRAYTRACK_SIMD)

if(NOT IS_DIRECTORY "${SRC_DIR}")
  message(FATAL_ERROR "SRC_DIR '${SRC_DIR}' is not a directory")
endif()
file(GLOB_RECURSE sources "${SRC_DIR}/*.h" "${SRC_DIR}/*.cpp")
set(bad "")
set(reads 0)
foreach(path IN LISTS sources)
  file(READ "${path}" text)
  string(REGEX MATCHALL "getenv\\([^)]*\\)" calls "${text}")
  foreach(call IN LISTS calls)
    math(EXPR reads "${reads} + 1")
    if(call MATCHES "^getenv\\(\"([A-Za-z0-9_]+)\"\\)$")
      set(name "${CMAKE_MATCH_1}")
    else()
      set(name "<non-literal>")
    endif()
    if(NOT name IN_LIST allowed)
      file(RELATIVE_PATH rel "${SRC_DIR}" "${path}")
      list(APPEND bad "${rel}: ${call}")
    endif()
  endforeach()
endforeach()
if(reads EQUAL 0)
  message(FATAL_ERROR "no getenv reads found under ${SRC_DIR}")
endif()
if(bad)
  string(REPLACE ";" "\n" bad "${bad}")
  message(FATAL_ERROR "environment reads outside the allowlist "
                      "(${allowed}):\n${bad}")
endif()
message(STATUS "${reads} getenv reads, all allowlisted")
