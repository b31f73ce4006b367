# ctest gate: run BENCH with `FLAG OUT`, then byte-compare OUT with GOLDEN.
#
#   cmake -DBENCH=<exe> -DFLAG=<--x-golden> -DOUT=<file> -DGOLDEN=<file>
#         -P golden_check.cmake
execute_process(COMMAND ${BENCH} ${FLAG} ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${FLAG} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the committed ${GOLDEN}")
endif()
