# Checks that the gtest shards of safemem_tests together ran exactly the
# cases --gtest_list_tests names, each once, and that none failed.
#
#   cmake -DBINARY=<safemem_tests> -DSHARD_DIR=<dir> -DSHARDS=<n> \
#         -P check_shards.cmake
#
# Shard i must have written <dir>/shard_<i>.xml (--gtest_output=xml:...).

execute_process(COMMAND ${BINARY} --gtest_list_tests
    OUTPUT_VARIABLE listing RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${BINARY} --gtest_list_tests exited ${status}")
endif()
# Drop the "# GetParam() = ..." comments, and the list and bracket
# characters CMake would read as list syntax, then walk the lines:
# unindented ones name a suite ("Suite."), indented ones its cases.
string(REGEX REPLACE "  #[^\n]*" "" listing "${listing}")
string(REGEX REPLACE "[][;]" "_" listing "${listing}")
string(REPLACE "\n" ";" lines "${listing}")
set(listed "")
foreach(line IN LISTS lines)
    if(line MATCHES "^([^ ].*)\\.$")
        set(suite "${CMAKE_MATCH_1}")
    elseif(line MATCHES "^  ([^ ]+)$")
        list(APPEND listed "${suite}.${CMAKE_MATCH_1}")
    endif()
endforeach()

set(ran "")
set(counts "")
math(EXPR last "${SHARDS} - 1")
foreach(shard RANGE ${last})
    set(report "${SHARD_DIR}/shard_${shard}.xml")
    if(NOT EXISTS "${report}")
        message(FATAL_ERROR "shard ${shard} wrote no report at ${report}")
    endif()
    file(READ "${report}" xml)
    string(REGEX REPLACE "[][;]" "_" xml "${xml}")
    string(REGEX MATCHALL "<failure " failures "${xml}")
    list(LENGTH failures failed)
    if(failed GREATER 0)
        message(FATAL_ERROR "shard ${shard} reports ${failed} failure(s)")
    endif()
    string(REGEX MATCHALL "<testcase name=\"[^\"]*\"[^>]* classname=\"[^\"]*\""
        cases "${xml}")
    list(LENGTH cases n)
    list(APPEND counts ${n})
    foreach(entry IN LISTS cases)
        string(REGEX MATCH "^<testcase name=\"([^\"]*)\"" _ "${entry}")
        set(name "${CMAKE_MATCH_1}")
        string(REGEX MATCH " classname=\"([^\"]*)\"$" _ "${entry}")
        list(APPEND ran "${CMAKE_MATCH_1}.${name}")
    endforeach()
endforeach()

list(LENGTH listed listed_count)
list(LENGTH ran ran_count)
list(SORT listed)
list(SORT ran)
string(REPLACE ";" "+" shard_counts "${counts}")
if(NOT listed STREQUAL ran)
    set(missing ${listed})
    list(REMOVE_ITEM missing ${ran})
    set(extra ${ran})
    list(REMOVE_DUPLICATES extra)
    list(REMOVE_ITEM extra ${listed})
    message(FATAL_ERROR
        "shards ran ${shard_counts} = ${ran_count} cases; "
        "--gtest_list_tests names ${listed_count}.\n"
        "never run: ${missing}\nnot listed: ${extra}")
endif()
message(STATUS "shards ran ${shard_counts} = ${ran_count} cases, "
    "exactly the ${listed_count} listed, each once, none failed")
