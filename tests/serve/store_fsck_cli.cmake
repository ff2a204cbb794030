# Builds a store whose tail holds one fenced short-write stub (sweep_serve
# with shortwrite@1 over three stdio requests: two acknowledged records,
# one failed put), then requires store_fsck to pass it without --strict
# (the frame open quarantines is a warning), to fail it with --strict,
# to end --json output with an fsck_summary whose "ok" matches, and to
# fail, naming the file, once a stray base-2.log makes open refuse it.
#
#   cmake -DSWEEP_SERVE=<binary> -DSTORE_FSCK=<binary> -DSTORE=<dir>
#         -P store_fsck_cli.cmake

set(requests ${STORE}.requests.jsonl)
file(REMOVE_RECURSE ${STORE})
file(WRITE ${requests} "")
set(id 0)
foreach(benchmark li gcc doduc)
    math(EXPR id "${id} + 1")
    file(APPEND ${requests} "{\"id\":${id},\"benchmark\":\"${benchmark}\","
                            "\"config\":{\"instruction_budget\":20000}}\n")
endforeach()
execute_process(COMMAND ${SWEEP_SERVE} --store ${STORE} --workers 1
                        --fault-inject shortwrite@1
                INPUT_FILE ${requests}
                RESULT_VARIABLE status OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT status EQUAL 0)
    message("${out}")
    message(FATAL_ERROR "sweep_serve failed: ${status}")
endif()

# Run store_fsck on the store with ARGN; require exit status @p want
# and leave its stdout in fsck_out.
function(fsck want)
    execute_process(COMMAND ${STORE_FSCK} ${STORE} ${ARGN}
                    RESULT_VARIABLE status OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    message("store_fsck ${ARGN}:\n${out}${err}")
    if(NOT status EQUAL want)
        message(FATAL_ERROR "store_fsck ${ARGN} exited ${status}, want ${want}")
    endif()
    set(fsck_out "${out}" PARENT_SCOPE)
endfunction()

fsck(0)
set(summary "2 record\\(s\\), 0 error\\(s\\), 1 warning\\(s\\)")
if(NOT fsck_out MATCHES "store_fsck: ${summary}\n$")
    message(FATAL_ERROR "want 2 records, 0 errors and 1 warning")
endif()
fsck(1 --strict)
foreach(mode "0;--json;true" "1;--json;--strict;false")
    list(POP_BACK mode ok)
    fsck(${mode})
    if(NOT fsck_out MATCHES "\"record\":\"fsck_summary\"[^\n]*\"ok\":${ok}}\n$")
        message(FATAL_ERROR "the last --json record is no fsck_summary "
                            "with \"ok\":${ok}")
    endif()
endforeach()

file(WRITE ${STORE}/base-2.log "")
fsck(1)
if(NOT fsck_out MATCHES "(^|\n)error: base-2.log ")
    message(FATAL_ERROR "the refusal does not name base-2.log")
endif()
file(REMOVE_RECURSE ${STORE} ${requests})
