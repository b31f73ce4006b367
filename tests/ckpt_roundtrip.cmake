# ctest gate: checkpoint round trip across *processes* (the in-process
# variant lives in test_pool_determinism). A straight run of the 2-endpoint
# contention config writes its stats JSON; a second process checkpoints
# mid-run (exit 3 by contract), the snapshot is validated and inspected
# with ckpt_tool, and a third process restores it and runs to completion.
# The straight and resumed stats files must be byte-identical.
#
#   cmake -DBENCH=<bench_multi_accel_contention> -DCKPT_TOOL=<ckpt_tool>
#         -DDIR=<scratch dir> -P ckpt_roundtrip.cmake
set(args --quick --devices 2)
function(run expect)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL expect)
    message(FATAL_ERROR "`${ARGN}` exited with ${rc}, expected ${expect}")
  endif()
endfunction()
file(MAKE_DIRECTORY ${DIR})
run(0 ${BENCH} ${args} --stats-out ${DIR}/straight.json)
run(3 ${BENCH} ${args} --ckpt-at-ns 20000 --ckpt ${DIR}/mid.ckpt)
run(0 ${CKPT_TOOL} validate ${DIR}/mid.ckpt)
run(0 ${CKPT_TOOL} inspect ${DIR}/mid.ckpt)
run(0 ${BENCH} ${args} --restore ${DIR}/mid.ckpt
    --stats-out ${DIR}/resumed.json)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${DIR}/straight.json ${DIR}/resumed.json RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "resumed stats differ from the straight run's")
endif()
