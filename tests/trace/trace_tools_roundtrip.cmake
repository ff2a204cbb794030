# Drives the trace_tools example through record -> info -> simulate on
# one trace file and fails if any step fails, if info lists no
# indirect-call (icall) row (cfront dispatches virtually, so a missing
# row means the per-class counts dropped a class), or if info's stream
# line is missing or shows more than 1.00 byte per instruction (one
# 8-byte record per control instruction; cfront's 50K stream needs
# about 0.86).
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
    if(step STREQUAL "info")
        if(NOT out MATCHES "\n  icall ")
            message(FATAL_ERROR "trace_tools info printed no icall row")
        endif()
        if(NOT out MATCHES
           "\nstream: [0-9,]+ bytes \\(([0-9]+\\.[0-9]+) bytes/instruction\\)\n")
            message(FATAL_ERROR "trace_tools info printed no stream line")
        endif()
        if(CMAKE_MATCH_1 GREATER 1.00)
            message(FATAL_ERROR
                    "stream costs ${CMAKE_MATCH_1} bytes/instruction (> 1.00)")
        endif()
    endif()
endforeach()
file(REMOVE ${TRACE})
