# Figure-path smoke test, run under ctest: the gnnmark verbs print
# every paper table and figure. Invoke as
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
