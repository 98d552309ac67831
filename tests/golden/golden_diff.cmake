# Golden-output check: run one program and require its stdout to match
# a committed golden file byte for byte.  Invoked as a tier-1 ctest
# (see CMakeLists.txt in this directory):
#
#   cmake -DPROG=<exe> "-DARGS=<args>" -DGOLDEN=<file> -DWORK_DIR=<dir>
#         -P golden_diff.cmake
#
# ARGS is one space-separated string.  The program runs inside
# WORK_DIR, so any report it writes to its working directory stays
# out of the source tree.
#
# To regenerate a golden after an intended model change, run the same
# command and overwrite the file; say why in the commit.

if(NOT PROG OR NOT GOLDEN OR NOT WORK_DIR)
    message(FATAL_ERROR "usage: cmake -DPROG=... -DARGS=... -DGOLDEN=... "
                        "-DWORK_DIR=... -P golden_diff.cmake")
endif()

separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(actual "${WORK_DIR}/stdout.txt")

execute_process(
    COMMAND ${PROG} ${args}
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_FILE "${actual}"
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${PROG} ${ARGS} failed (rc=${rc}):\n${err}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${actual}"
    RESULT_VARIABLE differ)
if(differ)
    execute_process(COMMAND diff -u "${GOLDEN}" "${actual}"
                    OUTPUT_VARIABLE delta)
    message(FATAL_ERROR "stdout of ${PROG} ${ARGS} differs from "
                        "${GOLDEN}:\n${delta}")
endif()

message(STATUS "golden: stdout matches ${GOLDEN}")
