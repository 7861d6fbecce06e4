# Run BIN without arguments and compare its stdout byte for byte with
# the committed GOLDEN file; the actual output is kept at OUT.
#
#   cmake -DBIN=<binary> -DGOLDEN=<file> -DOUT=<file> -P check_stdout.cmake
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
execute_process(COMMAND "${BIN}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    find_program(DIFF diff)
    if(DIFF)
        execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${OUT}"
                        OUTPUT_VARIABLE delta)
    endif()
    message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN} "
                        "(actual output: ${OUT})\n${delta}")
endif()
