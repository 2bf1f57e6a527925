# Figure-path smoke test, run under ctest: the gnnmark verbs print
# every paper table and figure and the takeaway studies. Invoke as
#   cmake -DGNNMARK_BIN=<path-to-gnnmark> -P figure_smoke.cmake

if(NOT DEFINED GNNMARK_BIN)
    message(FATAL_ERROR "pass -DGNNMARK_BIN=...")
endif()

# expect_titles(<title list> <gnnmark args>...): the run exits 0 and
# its stdout holds every title.
function(expect_titles titles)
    list(JOIN ARGN " " args)
    execute_process(
        COMMAND ${GNNMARK_BIN} ${ARGN}
        RESULT_VARIABLE rv
        OUTPUT_VARIABLE out
        ERROR_QUIET)
    if(NOT rv EQUAL 0)
        message(FATAL_ERROR
            "gnnmark ${args}: expected exit 0, got '${rv}'")
    endif()
    foreach(title IN LISTS titles)
        string(FIND "${out}" "${title}" at)
        if(at EQUAL -1)
            message(FATAL_ERROR
                "gnnmark ${args}: '${title}' missing from its output")
        endif()
    endforeach()
endfunction()

expect_titles("Table I:;Workload statistics at scale 1" list)
expect_titles("Fig. 2:;Fig. 3:;Fig. 4:;Fig. 5:;Fig. 6:;Fig. 7:;Fig. 8:"
    characterize --scale 0.05 --iters 1)
expect_titles("L1 bypass for irregular operators;fp16 training vs fp32;\
Zero-value compression of H2D transfers;\
GEMM+SpMM+Conv share and step time: training vs inference;\
Generation sensitivity: V100 vs A100-like;\
Cold instruction-fetch penalty sweep (TLSTM)"
    ablations --scale 0.05)
