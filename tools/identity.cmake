# Identity gate, run under ctest: run one command once per entry of an
# env list. Every run must exit 0 and print stdout byte-identical to
# the first run's. Each run is a fresh process, so allocator free lists
# and the simulated VA arena never carry state from one run to the
# next. An entry is one VAR=VALUE assignment; repeat an entry to
# compare two processes in the same environment. Invoke as
#   cmake "-DCOMMAND=<program>;<arg>..." "-DENVS=<VAR=VALUE>;..."
#         -P identity.cmake

foreach(var COMMAND ENVS)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "pass -D${var}=<list>")
    endif()
endforeach()

string(REPLACE ";" " " shown "${COMMAND}")
foreach(env IN LISTS ENVS)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env ${env} ${COMMAND}
        RESULT_VARIABLE rv
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(NOT rv EQUAL 0)
        message(FATAL_ERROR "${env} ${shown} exited with '${rv}':\n${err}")
    endif()
    if(NOT DEFINED first)
        if(out STREQUAL "")
            message(FATAL_ERROR "${env} ${shown} printed nothing")
        endif()
        set(first "${out}")
        set(first_env ${env})
    elseif(NOT out STREQUAL first)
        message(FATAL_ERROR
            "${shown}: stdout under ${env} differs from stdout under "
            "${first_env}")
    endif()
endforeach()
list(LENGTH ENVS runs)
message(STATUS "${shown}: ${runs} runs byte-identical")
