# Baseline gate, run under ctest: run one producer command, then diff
# the file it wrote against a committed baseline with bench_diff. The
# producer's last argument is the file it writes; DIFF is the bench_diff
# binary followed by its flags (none means an exact diff). Invoke as
#   cmake "-DPRODUCER=<program>;<arg>...;<output file>"
#         -DBASELINE=<bench/baselines/...jsonl>
#         "-DDIFF=<bench_diff>;<flag>..." -P bench_gate.cmake

foreach(var PRODUCER BASELINE DIFF)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=...")
    endif()
endforeach()

list(GET PRODUCER -1 candidate)
file(REMOVE ${candidate})
execute_process(
    COMMAND ${PRODUCER}
    RESULT_VARIABLE rv
    OUTPUT_QUIET)
string(REPLACE ";" " " shown "${PRODUCER}")
if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${shown} exited with '${rv}'")
endif()

execute_process(
    COMMAND ${DIFF} ${BASELINE} ${candidate}
    RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
    message(FATAL_ERROR
        "${candidate} drifted from ${BASELINE} (bench_diff exit '${rv}'); "
        "if the change is intentional, regenerate the baseline as "
        "bench/baselines/README.md describes")
endif()
file(REMOVE ${candidate})
