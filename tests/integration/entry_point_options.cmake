# The entry points check every option before they act: each command
# below must exit 1 with an error naming the option, and sweep_serve
# must refuse before it opens (and so creates) its store directory.
# sweep_serve takes bench_suite's run-guard checks (--retries in
# [1, 16], --run-timeout >= 0) and has no --backoff; the adaptive
# options belong to bench_suite alone.
#
#   cmake -DSWEEP_SERVE=<binary> -DPAPER=<binary> -DSTORE=<dir>
#         -P entry_point_options.cmake

# An accepted sweep_serve would serve stdin once; give it no requests.
set(requests ${STORE}.requests.jsonl)
file(REMOVE_RECURSE ${STORE})
file(WRITE ${requests} "")

# Run ARGN; require exit 1, an error naming --@p option and no store.
function(refused option)
    execute_process(COMMAND ${ARGN} INPUT_FILE ${requests}
                    RESULT_VARIABLE status OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    message("${ARGN}\n  exited ${status}: ${err}")
    if(NOT status EQUAL 1)
        message(FATAL_ERROR "exited ${status}, want 1")
    endif()
    string(FIND "${err}" "--${option}" named)
    if(named EQUAL -1)
        message(FATAL_ERROR "the error does not name --${option}")
    endif()
    if(EXISTS ${STORE})
        message(FATAL_ERROR "the refused command created ${STORE}")
    endif()
endfunction()

# A Unix socket address holds at most 107 bytes of path.
string(REPEAT "x" 108 long)
foreach(bad "workers;0" "queue-bound;0" "retries;0" "retries;17"
        "run-timeout;-1" "backoff;1" "socket;${long}")
    list(GET bad 0 option)
    list(GET bad 1 value)
    refused(${option} ${SWEEP_SERVE} --store ${STORE} --${option} ${value})
endforeach()
refused(adaptive ${PAPER} --experiment table2 --budget 50K
        --adaptive bandit)
file(REMOVE ${requests})
