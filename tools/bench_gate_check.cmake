# Self-test of the paired benchmark gate (tools/bench_gate.py): feed it
# fixture result lines and check its verdict. Equal results pass;
# sites_per_s at 0.4x, setup_s at 2.5x, correct: false and one more
# failed operation each fail.
#
#   cmake -DPYTHON=python3 -DGATE=tools/bench_gate.py -DOUTDIR=<dir>
#         -P tools/bench_gate_check.cmake

function(result_line out sites setup correct failed)
    set(${out} "{\"correct\": ${correct}, \"attempted\": 200, \
\"failed\": ${failed}, \"metrics\": {\
\"sites_per_s\": {\"value\": ${sites}, \"unit\": \"sites/s\"}, \
\"sim_instr_per_s\": {\"value\": 3000000.0, \"unit\": \"instr/s\"}, \
\"setup_s\": {\"value\": ${setup}, \"unit\": \"s\"}, \
\"peak_rss_mb\": {\"value\": 40.0, \"unit\": \"MB\"}}}\n" PARENT_SCOPE)
endfunction()

function(expect_gate name want sites setup correct failed)
    result_line(parent 100.0 0.2 true 0)
    result_line(change ${sites} ${setup} ${correct} ${failed})
    # Two workloads: the case under test follows an equal pair.
    file(WRITE ${OUTDIR}/gate_parent.jsonl "${parent}${parent}")
    file(WRITE ${OUTDIR}/gate_change.jsonl "${parent}${change}")
    execute_process(COMMAND ${PYTHON} ${GATE}
                            ${OUTDIR}/gate_parent.jsonl
                            ${OUTDIR}/gate_change.jsonl
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
    if(NOT rc EQUAL want)
        message(FATAL_ERROR
                "bench_gate ${name}: exit ${rc}, expected ${want}\n${out}")
    endif()
    message(STATUS "bench_gate ${name}: exit ${rc} as expected")
endfunction()

expect_gate(equal 0 100.0 0.2 true 0)
expect_gate(sites_per_s_0.4x 1 40.0 0.2 true 0)
expect_gate(setup_s_2.5x 1 100.0 0.5 true 0)
expect_gate(correct_false 1 100.0 0.2 false 0)
expect_gate(more_failed 1 100.0 0.2 true 1)
