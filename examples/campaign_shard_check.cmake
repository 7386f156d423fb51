# campaign_shard_smoke driver: the sharded campaign service must be
# invisible in the report. A `warped_sim serve` run — at any shard
# count, with a worker SIGKILLed or hung past its --shard-deadline and
# its shard re-issued, with or without stratified sampling — must
# write a report JSON byte-identical to the sequential
# `warped_sim campaign` run with the same site axes. Also exercises
# the crash-safety CLI edges: a torn checkpoint must be a loud error
# (exit 1), and `--checkpoint-every 0` must be rejected at parse time
# (exit 2).

set(axes SCAN --size 2 --sites 60 --seed 11 --jobs 1)

execute_process(
    COMMAND ${SIM} campaign ${axes} --out ${OUTDIR}/shard_seq.json
    RESULT_VARIABLE r1 OUTPUT_QUIET ERROR_QUIET)
if(NOT r1 EQUAL 0)
    message(FATAL_ERROR "sequential campaign failed (exit ${r1})")
endif()

# 3 shards, 2 concurrent workers.
execute_process(
    COMMAND ${SIM} serve ${axes} --shards 3 --workers 2
            --state ${OUTDIR}/shard_serve.state
            --out ${OUTDIR}/shard_serve.json
    RESULT_VARIABLE r2 OUTPUT_QUIET ERROR_QUIET)
if(NOT r2 EQUAL 0)
    message(FATAL_ERROR "serve --shards 3 failed (exit ${r2})")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUTDIR}/shard_seq.json ${OUTDIR}/shard_serve.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "sharded report differs from the sequential run")
endif()

# 5 shards with shard 2's first worker SIGKILLed: the re-issue path
# must reproduce the same bytes.
execute_process(
    COMMAND ${SIM} serve ${axes} --shards 5 --workers 2
            --kill-worker-for-shard 2
            --state ${OUTDIR}/shard_kill.state
            --out ${OUTDIR}/shard_kill.json
    RESULT_VARIABLE r3 OUTPUT_QUIET ERROR_QUIET)
if(NOT r3 EQUAL 0)
    message(FATAL_ERROR "serve with killed worker failed (exit ${r3})")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUTDIR}/shard_seq.json ${OUTDIR}/shard_kill.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "report after worker kill + re-issue differs from the "
            "sequential run")
endif()

# Shard 1's first worker hangs for 30 s; the 2 s shard deadline must
# SIGKILL it and re-issue the shard, reproducing the same bytes well
# inside the hang.
string(TIMESTAMP hang_t0 "%s" UTC)
execute_process(
    COMMAND ${SIM} serve ${axes} --shards 3 --workers 2
            --hang-worker-for-shard 1 --hang-ms 30000
            --shard-deadline 2000
            --state ${OUTDIR}/shard_hang.state
            --out ${OUTDIR}/shard_hang.json
    RESULT_VARIABLE rh OUTPUT_QUIET ERROR_QUIET)
string(TIMESTAMP hang_t1 "%s" UTC)
math(EXPR hang_s "${hang_t1} - ${hang_t0}")
if(NOT rh EQUAL 0)
    message(FATAL_ERROR "serve with a hung worker failed (exit ${rh})")
endif()
if(hang_s GREATER_EQUAL 20)
    message(FATAL_ERROR
            "serve with a hung worker took ${hang_s} s: the shard "
            "deadline did not cut the 30 s hang short")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUTDIR}/shard_seq.json ${OUTDIR}/shard_hang.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "report after a deadline re-issue differs from the "
            "sequential run")
endif()

# Stratified sampling shards identically too.
execute_process(
    COMMAND ${SIM} campaign ${axes} --strata 4
            --out ${OUTDIR}/shard_strat_seq.json
    RESULT_VARIABLE r4 OUTPUT_QUIET ERROR_QUIET)
execute_process(
    COMMAND ${SIM} serve ${axes} --strata 4 --shards 3
            --state ${OUTDIR}/shard_strat.state
            --out ${OUTDIR}/shard_strat_serve.json
    RESULT_VARIABLE r5 OUTPUT_QUIET ERROR_QUIET)
if(NOT r4 EQUAL 0 OR NOT r5 EQUAL 0)
    message(FATAL_ERROR
            "stratified runs failed (exit ${r4} / ${r5})")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${OUTDIR}/shard_strat_seq.json
            ${OUTDIR}/shard_strat_serve.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "stratified sharded report differs from the sequential "
            "stratified run")
endif()

# CLI edge: a zero checkpoint chunk is a user error, rejected at
# parse time with the strict-CLI exit code.
execute_process(
    COMMAND ${SIM} campaign SCAN --sites 5 --checkpoint-every 0
    RESULT_VARIABLE rz OUTPUT_QUIET ERROR_QUIET)
if(NOT rz EQUAL 2)
    message(FATAL_ERROR
            "--checkpoint-every 0 exited ${rz}, expected the "
            "usage-error exit 2")
endif()

# Crash-safety edge: a torn checkpoint (no closing brace — the
# previous writer died mid-write) must be a hard, explained error,
# never a silent restart from zero.
file(WRITE ${OUTDIR}/shard_torn.ckpt "{\n  \"campaign.sampled\": 1")
execute_process(
    COMMAND ${SIM} campaign SCAN --size 2 --sites 5
            --checkpoint ${OUTDIR}/shard_torn.ckpt
    RESULT_VARIABLE rt OUTPUT_QUIET ERROR_QUIET)
if(NOT rt EQUAL 1)
    message(FATAL_ERROR
            "torn checkpoint exited ${rt}, expected the hard-error "
            "exit 1")
endif()
