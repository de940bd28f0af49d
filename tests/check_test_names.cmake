# Lists every ctest name in BUILD_DIR and fails if one embeds gtest's
# raw-bytes rendering of a parameter. Run: cmake -DCTEST=<ctest>
# -DBUILD_DIR=<build dir> -P check_test_names.cmake
execute_process(COMMAND ${CTEST} -N
                WORKING_DIRECTORY ${BUILD_DIR}
                OUTPUT_VARIABLE listing
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ctest -N failed in ${BUILD_DIR} (${rc})")
endif()
if(NOT listing MATCHES "Total Tests: [1-9]")
  message(FATAL_ERROR "ctest -N listed no tests in ${BUILD_DIR}")
endif()
string(REGEX MATCHALL "[^\n]*-byte object <[^\n]*" unstable "${listing}")
if(unstable)
  string(REPLACE ";" "\n" unstable "${unstable}")
  message(FATAL_ERROR "test names with raw parameter bytes:\n${unstable}")
endif()
