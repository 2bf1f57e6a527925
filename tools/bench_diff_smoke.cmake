# Telemetry + regression-gate smoke test, run under ctest. Exercises
# the full producer/consumer loop: gnnmark writes a telemetry file,
# bench_diff passes on a self-diff, fails on an injected regression,
# and distinguishes harness errors (exit 2) from perf failures (1).
# Invoke as
#   cmake -DGNNMARK_BIN=<gnnmark> -DBENCH_DIFF_BIN=<bench_diff>
#         -P bench_diff_smoke.cmake

if(NOT DEFINED GNNMARK_BIN OR NOT DEFINED BENCH_DIFF_BIN)
    message(FATAL_ERROR
        "pass -DGNNMARK_BIN=<gnnmark> -DBENCH_DIFF_BIN=<bench_diff>")
endif()

function(expect_exit code)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rv
        OUTPUT_QUIET ERROR_QUIET)
    if(NOT rv EQUAL ${code})
        message(FATAL_ERROR
            "${ARGN}: expected exit ${code}, got '${rv}'")
    endif()
endfunction()

set(tele_a ${CMAKE_CURRENT_BINARY_DIR}/bench_diff_smoke_a.jsonl)
set(tele_b ${CMAKE_CURRENT_BINARY_DIR}/bench_diff_smoke_b.jsonl)
set(tele_bad ${CMAKE_CURRENT_BINARY_DIR}/bench_diff_smoke_bad.jsonl)

# A file must self-diff clean at zero tolerance, and so must two fresh
# processes at the same seed: the cache model hashes simulated device
# addresses assigned in program order (DESIGN.md §9), so every key,
# cache counters and timing-histogram buckets included, reproduces.
# --opstats must add no wall-clock value to the records.
expect_exit(0 ${GNNMARK_BIN} run STGCN --scale 0.25 --iters 2 --opstats
            --telemetry ${tele_a})
expect_exit(0 ${GNNMARK_BIN} run STGCN --scale 0.25 --iters 2 --opstats
            --telemetry ${tele_b})
expect_exit(0 ${BENCH_DIFF_BIN} ${tele_a} ${tele_a})   # self-diff
expect_exit(0 ${BENCH_DIFF_BIN} ${tele_a} ${tele_b})

# So must two generation records: their wall-clock figures are named
# host_* like every other wall-clock field.
set(gen_a ${CMAKE_CURRENT_BINARY_DIR}/bench_diff_smoke_gen_a.jsonl)
set(gen_b ${CMAKE_CURRENT_BINARY_DIR}/bench_diff_smoke_gen_b.jsonl)
expect_exit(0 ${GNNMARK_BIN} gen --family rmat --n 65536
            --telemetry ${gen_a})
expect_exit(0 ${GNNMARK_BIN} gen --family rmat --n 65536
            --telemetry ${gen_b})
expect_exit(0 ${BENCH_DIFF_BIN} ${gen_a} ${gen_b})
file(REMOVE ${gen_a} ${gen_b})

# Inject a regression: scale every "sim_time_us" value up 50%. The
# gate must fail at zero tolerance and pass once the tolerance covers
# the injected drift.
file(READ ${tele_a} content)
string(REGEX REPLACE "\"sim_time_us\":([0-9]+)\\."
       "\"sim_time_us\":\\1999." content "${content}")
file(WRITE ${tele_bad} "${content}")
expect_exit(1 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad})
expect_exit(0 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad}
            --tol-prefix iteration.=1e9 --tol-prefix manifest.=1e9)
# A malformed tolerance is a usage error, never a pass: "5%" must not
# read as 5, a 500% tolerance.
expect_exit(2 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad} --tol 5%)
expect_exit(2 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad} --abs 1e9garbage)

# A missing-record candidate is a failure unless --allow-missing.
file(STRINGS ${tele_a} lines)
list(GET lines 0 first_line)
file(WRITE ${tele_bad} "${first_line}\n")
expect_exit(1 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad})
expect_exit(0 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad} --allow-missing)

# Harness errors are exit 2, never 0 or a "perf" 1.
expect_exit(2 ${BENCH_DIFF_BIN} ${tele_a})                       # one arg
expect_exit(2 ${BENCH_DIFF_BIN} ${tele_a} no-such-file.jsonl)    # IoError
file(WRITE ${tele_bad} "{not json\n")
expect_exit(2 ${BENCH_DIFF_BIN} ${tele_a} ${tele_bad})           # bad JSON

file(REMOVE ${tele_a} ${tele_b} ${tele_bad})
