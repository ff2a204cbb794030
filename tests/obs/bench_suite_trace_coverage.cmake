# Runs bench_suite with the sampler and heatmap armed and a trace file,
# then requires the trace to hold the classify stage and its spans to
# cover at least 95% of the process's timeline: the time no span
# accounts for stays a small residual.
#
#   cmake -DBENCH_SUITE=<binary> -DPYTHON=<python3>
#         -DVALIDATE=<tools/validate_trace.py> -DOUT=<path prefix>
#         -P bench_suite_trace_coverage.cmake

set(trace ${OUT}.trace.json)
set(records ${OUT}.jsonl)
execute_process(COMMAND ${BENCH_SUITE} --budget 50K --sample-interval 10000
                        --heatmap --json ${records} --trace-out ${trace}
                RESULT_VARIABLE status OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
if(NOT status EQUAL 0)
    message("${out}")
    message(FATAL_ERROR "bench_suite failed: ${status}")
endif()
execute_process(COMMAND ${PYTHON} ${VALIDATE} ${trace}
                        --require-span classify --min-coverage 0.95
                RESULT_VARIABLE status OUTPUT_VARIABLE out
                ERROR_VARIABLE out)
message("${out}")
if(NOT status EQUAL 0)
    message(FATAL_ERROR "trace check failed: ${status}")
endif()
file(REMOVE ${trace} ${records})
