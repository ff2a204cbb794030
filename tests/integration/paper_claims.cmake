# Runs `paper` over every row at 500K instructions per cell, under the
# cheap invariant audit (every cell's end-of-run identities and its
# Table-4 conservation), and requires exit 0, a summary line with no
# failing claim, and one distinct CSV file per table printed.
#
#   cmake -DPAPER=<binary> -DOUT=<dir> -P paper_claims.cmake

file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
set(ENV{SPECFETCH_CSV_DIR} ${OUT})
execute_process(COMMAND ${PAPER} --budget 500K --check cheap
                RESULT_VARIABLE status OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT status EQUAL 0)
    message(FATAL_ERROR "paper exited ${status}")
endif()
if(NOT out MATCHES "\nclaims: [0-9]+ hold, [0-9]+ deviate, 0 fail\n$")
    message(FATAL_ERROR "the last line is no summary without failures")
endif()

# A table starts at a row of cells (" | ") that follows a line that is
# neither a row of cells nor a rule ("---+---").
string(REPLACE ";" "," text "${out}")
string(REPLACE "\n" ";" lines "${text}")
set(tables 0)
set(in_table FALSE)
foreach(line IN LISTS lines)
    if(line MATCHES " \\| " OR line MATCHES "^[-+]+$")
        if(NOT in_table)
            math(EXPR tables "${tables} + 1")
        endif()
        set(in_table TRUE)
    else()
        set(in_table FALSE)
    endif()
endforeach()
file(GLOB csvs ${OUT}/*.csv)
list(LENGTH csvs files)
if(tables EQUAL 0 OR NOT files EQUAL tables)
    message(FATAL_ERROR "${tables} tables printed, ${files} CSV files")
endif()
foreach(csv IN LISTS csvs)
    get_filename_component(name ${csv} NAME)
    if(NOT name MATCHES "^(table[2-7]|fig[1-4]|ablation_[a-z_]+)_[0-9]+\\.csv$")
        message(FATAL_ERROR "CSV file ${name} is not named <row>_<n>.csv")
    endif()
endforeach()
message("paper_claims: ${tables} tables, ${files} CSV files")
