# Runs bench_suite with the sampler, heatmap and progress file armed and
# a trace file, then requires the trace to hold the four instrumented
# stages and its spans to cover at least 95% of the process's timeline
# (the time no span accounts for stays a small residual); the records
# to count 130 timeseries, 130 heatmap and 26 adaptive rows (13
# profiles x {threshold, bandit}) and the progress file at least one
# row; and tools/plot_timeseries.py to list and plot the rows. On a
# failure the files stay.
#
#   cmake -DBENCH_SUITE=<binary> -DPYTHON=<python3> -DTOOLS=<tools dir>
#         -DOUT=<path prefix> -P bench_suite_trace_coverage.cmake

set(trace ${OUT}.trace.json)
set(records ${OUT}.jsonl)
set(progress ${OUT}.progress.jsonl)

function(run what)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE status
                    OUTPUT_VARIABLE out ERROR_VARIABLE out)
    message("${out}")
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "${what} failed: ${status}")
    endif()
endfunction()

# Requires the rows of @p file whose "record" is @p kind to number
# @p op @p want (an if() comparison).
function(count_rows file kind op want)
    file(STRINGS ${file} rows REGEX "\"record\":\"${kind}\"")
    list(LENGTH rows n)
    if(NOT n ${op} ${want})
        message(FATAL_ERROR "${file}: ${n} ${kind} rows, want ${op} ${want}")
    endif()
endfunction()

file(REMOVE ${progress})
run(bench_suite ${BENCH_SUITE} --budget 50K --sample-interval 10000
                --heatmap --json ${records} --trace-out ${trace}
                --progress --progress-file ${progress})
run("trace check" ${PYTHON} ${TOOLS}/validate_trace.py ${trace}
                  --require-span workload_build
                  --require-span snapshot_record
                  --require-span simulate --require-span classify
                  --min-coverage 0.95)
count_rows(${records} timeseries EQUAL 130)
count_rows(${records} heatmap EQUAL 130)
count_rows(${records} adaptive EQUAL 26)
count_rows(${progress} progress GREATER_EQUAL 1)
run("plot --list" ${PYTHON} ${TOOLS}/plot_timeseries.py ${records} --list)
run("plot gcc ispi" ${PYTHON} ${TOOLS}/plot_timeseries.py ${records}
                    --workload gcc --metric ispi)
file(REMOVE ${trace} ${records} ${progress})
