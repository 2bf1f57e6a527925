# CLI contract smoke test, run under ctest: bad invocations must exit
# with the usage status (2) and good ones with 0. Invoke as
#   cmake -DGNNMARK_BIN=<path-to-gnnmark> -DBENCH_BIN=<a bench binary>
#         -DPINNED_BENCH_BIN=<a gate producer> -P cli_smoke.cmake

foreach(var GNNMARK_BIN BENCH_BIN PINNED_BENCH_BIN)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=...")
    endif()
endforeach()

function(expect_exit code)
    execute_process(
        COMMAND ${GNNMARK_BIN} ${ARGN}
        RESULT_VARIABLE rv
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT rv EQUAL ${code})
        message(FATAL_ERROR
            "gnnmark ${ARGN}: expected exit ${code}, got '${rv}'")
    endif()
endfunction()

expect_exit(2)                        # no command
expect_exit(2 frobnicate)             # unknown command
expect_exit(2 run)                    # run without a workload
expect_exit(2 run NO-SUCH-WORKLOAD)   # unknown workload name
expect_exit(2 faults NO-SUCH-WORKLOAD)
expect_exit(2 run STGCN --bogus)      # unknown option
expect_exit(2 list --scale)           # option missing its value
expect_exit(2 trace)                  # trace without a verb
expect_exit(2 trace frobnicate)       # unknown trace verb
expect_exit(2 trace record)           # record without a workload
expect_exit(2 trace diff one.gnntrace) # diff needs two traces
expect_exit(2 sweep)                  # sweep without a workload
expect_exit(2 sweep STGCN --param bogus)
expect_exit(1 trace info no-such.gnntrace)  # IoError, not a crash
expect_exit(2 serve --arrival sometimes)    # unknown arrival process
expect_exit(2 serve --faults meteor)        # unknown fault scenario
expect_exit(2 serve --hedge maybe)          # on|off toggles only
expect_exit(2 serve --replicas 0)
expect_exit(1 serve --plan no-such.plan)    # IoError, not a crash
expect_exit(1 faults STGCN --plan no-such.plan)
expect_exit(2 gen)                          # gen requires --family
expect_exit(2 gen --family klein-bottle)    # unknown family
expect_exit(2 gen --family rmat --n -4)     # vertex count must be > 1
expect_exit(2 gen --family rmat --chunks 0) # chunking must be positive
expect_exit(2 gen --family rmat --bogus)    # unknown option
expect_exit(2 gen --family hyperbolic --gamma 2.0) # gamma must be > 2
# Out-of-range and malformed values, and flags or positionals a verb
# does not take, are usage errors: never a crash, never a silent 0.
expect_exit(2 run STGCN --iters 0)
expect_exit(2 scaling --iters 0)
expect_exit(2 faults STGCN --iters 0)
expect_exit(2 faults STGCN --interval -1)
expect_exit(2 ttt --target 1.5)
expect_exit(2 sweep STGCN --param l2 --points 0)
expect_exit(2 sweep STGCN --param sms --points 0)
expect_exit(2 sweep STGCN --param sms --points 0.5) # rounds to 0 SMs
expect_exit(2 run STGCN --scale abc)
expect_exit(2 serve --rps abc)
expect_exit(2 run STGCN --rps 5)
expect_exit(2 list --rps 5)
expect_exit(2 run STGCN extra)
expect_exit(0 list)                   # healthy baseline

# The benches take GNNMARK_SCALE and GNNMARK_ITERS by the same number
# rules: garbage is a usage error, not a run at scale 0.
foreach(env GNNMARK_SCALE=abc GNNMARK_ITERS=4x)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env ${env} ${BENCH_BIN}
        RESULT_VARIABLE rv
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT rv EQUAL 2)
        message(FATAL_ERROR
            "${env} ${BENCH_BIN}: expected exit 2, got '${rv}'")
    endif()
endforeach()
# A gate producer pins its own configuration and never reads them.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env GNNMARK_SCALE=abc ${PINNED_BENCH_BIN}
    RESULT_VARIABLE rv
    OUTPUT_QUIET ERROR_QUIET)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR
        "GNNMARK_SCALE=abc ${PINNED_BENCH_BIN}: expected exit 0, got '${rv}'")
endif()

# A short serving run with every robustness mechanism engaged, plus
# the save-plan/load-plan round trip on the faults scenario.
set(plan ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_serve.plan)
expect_exit(0 serve --faults mixed --replicas 3 --duration 0.1
    --save-plan ${plan} --json)
expect_exit(0 serve --plan ${plan} --replicas 3 --duration 0.1)
file(REMOVE ${plan})

# Generation at a tiny scale: every family materializes, and the
# streamed-training path plus degree stats work in both output modes.
expect_exit(0 gen --family rmat --n 4096 --stats)
expect_exit(0 gen --family rgg2d --n 4096)
expect_exit(0 gen --family grid2d --n 4096 --json)
expect_exit(0 gen --family hyperbolic --n 4096 --stream --stats --json)

# The full trace-once/analyze-many pipeline at a tiny scale: record,
# inspect, replay on the recording config, self-diff, sweep the L2.
set(trc ${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_stgcn.gnntrace)
expect_exit(0 trace record STGCN --scale 0.25 --iters 2 --out ${trc})
expect_exit(0 trace info ${trc})
expect_exit(0 trace replay ${trc})
expect_exit(0 trace diff ${trc} ${trc})
expect_exit(0 sweep --trace ${trc} --param l2 --points 2,6)
# Overrides the cache model cannot build exit 2 before any replay.
expect_exit(2 trace replay ${trc} --l2 3.3)
expect_exit(2 trace replay ${trc} --l1 0.01)
expect_exit(2 sweep --trace ${trc} --param l1 --points 0.01)
file(REMOVE ${trc})
