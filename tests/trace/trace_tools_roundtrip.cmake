# Drives the trace_tools example through record -> info -> simulate on
# one trace file and fails if any step fails or if info lists no
# indirect-call (icall) row: cfront dispatches virtually, so a missing
# row means the per-class counts dropped a class.
#
#   cmake -DTRACE_TOOLS=<binary> -DTRACE=<file> -P trace_tools_roundtrip.cmake

foreach(step "record;--benchmark=cfront;--budget=50K" "info"
        "simulate;--budget=50K")
    execute_process(COMMAND ${TRACE_TOOLS} ${step} --trace=${TRACE}
                    RESULT_VARIABLE status OUTPUT_VARIABLE out
                    ERROR_VARIABLE out)
    message("${out}")
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "trace_tools ${step} failed: ${status}")
    endif()
    if(step STREQUAL "info" AND NOT out MATCHES "\n  icall ")
        message(FATAL_ERROR "trace_tools info printed no icall row")
    endif()
endforeach()
file(REMOVE ${TRACE})
