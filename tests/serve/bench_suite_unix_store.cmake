# A bench_suite client started before its daemon: with nothing at the
# socket path, `bench_suite --store unix:PATH` must wait out
# serviceBatch's connect retry (about 2 s), exit 1 with the connect
# error naming the socket, and leave nothing at PATH, where a store
# directory would stop the daemon from binding. A run that fails before
# its first record must not touch its --json file either: a fresh OUT
# is not created, and an existing one keeps its bytes.
#
#   cmake -DBENCH_SUITE=<binary> -DSOCKET=<path> -DOUT=<json path>
#         -P bench_suite_unix_store.cmake

# Run the client once against the missing daemon and check its failure.
function(client_fails)
    string(TIMESTAMP start "%s" UTC)
    execute_process(COMMAND ${BENCH_SUITE} --budget 50K
                            --store unix:${SOCKET} --json ${OUT}
                    RESULT_VARIABLE status OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    string(TIMESTAMP stop "%s" UTC)
    math(EXPR waited "${stop} - ${start}")
    message("bench_suite exited ${status} after ${waited} s:\n${out}${err}")
    if(NOT status EQUAL 1)
        message(FATAL_ERROR "bench_suite exited ${status}, want 1")
    endif()
    string(FIND "${err}" "connect('${SOCKET}'): No such file or directory"
           named)
    if(named EQUAL -1)
        message(FATAL_ERROR "stderr does not carry the connect error "
                            "naming ${SOCKET}")
    endif()
    if(NOT err MATCHES "directory after [0-9]+ attempts\n")
        message(FATAL_ERROR "the connect error does not report a retry")
    endif()
    if(waited LESS 1)
        message(FATAL_ERROR "bench_suite gave up after ${waited} s, before "
                            "the connect retry ran out")
    endif()
    if(EXISTS ${SOCKET})
        message(FATAL_ERROR "bench_suite left something at ${SOCKET}")
    endif()
endfunction()

file(REMOVE_RECURSE ${SOCKET} ${OUT})
client_fails()
if(EXISTS ${OUT})
    message(FATAL_ERROR "the failed run created ${OUT}")
endif()

set(previous "{\"previous\":1}\n")
file(WRITE ${OUT} "${previous}")
client_fails()
file(READ ${OUT} kept)
file(REMOVE ${OUT})
if(NOT kept STREQUAL previous)
    message(FATAL_ERROR "the failed run changed ${OUT} to '${kept}'")
endif()
