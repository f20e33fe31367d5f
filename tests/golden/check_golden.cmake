# Figure-output golden check, run by the `golden_figures` ctest:
#
#   cmake -DBENCH_DIR=<dir with bench binaries> -DGOLDEN_DIR=<this dir>
#         -P check_golden.cmake
#
# Every <bench>.txt in GOLDEN_DIR holds the default stdout of bench
# binary <bench>. The bench runs at PIM_SIM_THREADS=1 and =4 (simulated
# results are thread-count invariant) and both outputs must match the
# golden byte for byte. A change that is meant to move a figure re-records
# its golden deliberately, in the same commit:
#
#   PIM_SIM_THREADS=4 build/<bench> > tests/golden/<bench>.txt

file(GLOB goldens "${GOLDEN_DIR}/*.txt")
if(NOT goldens)
    message(FATAL_ERROR "no goldens in ${GOLDEN_DIR}")
endif()

set(failed "")
foreach(golden ${goldens})
    get_filename_component(bench "${golden}" NAME_WE)
    file(READ "${golden}" expected)
    foreach(threads 1 4)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E env PIM_SIM_THREADS=${threads}
                    "${BENCH_DIR}/${bench}"
            OUTPUT_VARIABLE actual
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            list(APPEND failed "${bench} (threads=${threads}): exit ${rc}")
        elseif(NOT actual STREQUAL expected)
            set(out "${CMAKE_CURRENT_BINARY_DIR}/${bench}.t${threads}.actual")
            file(WRITE "${out}" "${actual}")
            list(APPEND failed
                 "${bench} (threads=${threads}): stdout differs; diff ${golden} ${out}")
        else()
            message(STATUS "${bench} (threads=${threads}): matches")
        endif()
    endforeach()
endforeach()

if(failed)
    string(REPLACE ";" "\n  " report "${failed}")
    message(FATAL_ERROR "figure output differs from golden:\n  ${report}")
endif()
