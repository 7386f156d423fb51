# campaign_golden_smoke driver: re-run a handful of `warped_sim
# campaign` configurations and compare each JSON report byte for byte
# with the copy committed under tests/golden/. The goldens pin the
# outcome classification of every site, so any shortcut in the
# campaign engine (dormant-hook fast path, early exits, DRAM reuse)
# that changes a class, a latency or an activation fails the compare.
#
# Variables: SIM (warped_sim), GOLDEN (tests/golden), OUTDIR.
#
# To regenerate after an intentional, documented classification
# change, run each command below with --out into tests/golden/.

set(cases
    "campaign_mm_kinds|MatrixMul --size 32 --sites 300 --seed 7 --windows 4"
    "campaign_sha|SHA --size 4 --sites 200 --seed 7"
    "campaign_mm_recovery|MatrixMul --size 32 --sites 200 --seed 7 --recovery"
    "campaign_mm_replay_compare|MatrixMul --size 32 --sites 200 --seed 7 --scheme replay-compare"
    "campaign_scan_both|SCAN --size 2 --sites 200 --seed 11 --mem-model banked --ecc secded --fault-domain both"
    "campaign_sha_strata|SHA --size 4 --sites 200 --seed 7 --strata 4")

set(failed "")
foreach(c IN LISTS cases)
    string(REPLACE "|" ";" parts "${c}")
    list(GET parts 0 name)
    list(GET parts 1 argstr)
    separate_arguments(args UNIX_COMMAND "${argstr}")
    execute_process(
        COMMAND ${SIM} campaign ${args} --jobs 2
                --out ${OUTDIR}/${name}.json
        RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(NOT rc EQUAL 0)
        message(SEND_ERROR "${name}: warped_sim campaign exited ${rc}")
        list(APPEND failed ${name})
        continue()
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${GOLDEN}/${name}.json ${OUTDIR}/${name}.json
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(SEND_ERROR "${name}: report differs from "
                           "${GOLDEN}/${name}.json")
        list(APPEND failed ${name})
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "campaign_golden_smoke: ${failed}")
endif()
