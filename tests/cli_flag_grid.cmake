# Runs flash_cli over a grid of runtime and storage flags and checks every
# exit status: 2, with a message, for each bad flag (never a signal), and 0
# for the valid runs. Every run uses a small generated graph. Then it loads
# malformed edge-list files and replays malformed query logs, each of which
# must exit 1 with a message naming the fault.
#
#   cmake -DFLASH_CLI=path/to/flash_cli -P tests/cli_flag_grid.cmake

if(NOT FLASH_CLI)
  message(FATAL_ERROR "pass -DFLASH_CLI=path/to/flash_cli")
endif()

# "<expected exit status>|<flash_cli arguments>"
set(cases
  "2|bfs --workers=0"
  "2|bfs --workers=100"
  "2|walk --workers=0"
  "2|walk --workers=100"
  "2|bfs --threads=0"
  "2|walk --threads=0"
  "2|bfs --drop-rate=1.5"
  "2|bfs --crash=9@2"
  "2|sssp --exec=async --crash=1@2"
  "2|walk --crash=1@2"
  "2|walk --crash=9@2"
  "2|bfs --exec=async --root=999999999"
  "2|sssp --exec=async --root=999999999"
  "2|walk --walk-kind=ppr --root=999999999"
  "2|bfs --storage=zzz"
  "2|bfs --storage=paged --block-codec=delta"
  "2|bfs --storage=paged --block-kb=0"
  "2|bfs --storage=paged --block-kb=-5"
  "2|bfs --storage=paged --cache-mb=0"
  "2|bfs --storage=paged --cache-mb=-1"
  "2|bfs --prefetch=4"
  "0|bfs"
  "0|bfs --crash=1@2"
  "0|bfs --storage=paged --cache-mb=1 --block-kb=16"
  "0|sssp --exec=async --drop-rate=0.05"
  "0|walk --walkers=2000 --drop-rate=0.05"
)

set(failures 0)
foreach(entry IN LISTS cases)
  string(FIND "${entry}" "|" bar)
  string(SUBSTRING "${entry}" 0 ${bar} want)
  math(EXPR start "${bar} + 1")
  string(SUBSTRING "${entry}" ${start} -1 flags)
  separate_arguments(args UNIX_COMMAND "${flags} --scale=0.05")
  execute_process(COMMAND "${FLASH_CLI}" ${args}
                  RESULT_VARIABLE got
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT got STREQUAL want)
    message(SEND_ERROR
            "flash_cli ${flags}: exit '${got}', want ${want}\n${err}")
    math(EXPR failures "${failures} + 1")
  elseif(want STREQUAL "2" AND err STREQUAL "")
    message(SEND_ERROR "flash_cli ${flags}: exit 2 without a message")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

# Bad graph files are load errors: exit 1 with a message naming the fault,
# never a signal. "<file contents>|<stderr regex>"
set(bad_files
  "0 1 2.5\n0 2 abc\n|cli_flag_grid.el:2: malformed weight"
  "4294967294 0\n|vertex count 4294967295 exceeds"
)
set(graph_file "${CMAKE_CURRENT_BINARY_DIR}/cli_flag_grid.el")
foreach(entry IN LISTS bad_files)
  string(FIND "${entry}" "|" bar)
  string(SUBSTRING "${entry}" 0 ${bar} contents)
  math(EXPR start "${bar} + 1")
  string(SUBSTRING "${entry}" ${start} -1 want_err)
  file(WRITE "${graph_file}" "${contents}")
  execute_process(COMMAND "${FLASH_CLI}" bfs "--graph=${graph_file}"
                  RESULT_VARIABLE got
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT got STREQUAL "1" OR NOT err MATCHES "${want_err}")
    message(SEND_ERROR "flash_cli bfs --graph with '${contents}': exit "
                       "'${got}', want 1 and '${want_err}'\n${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
file(REMOVE "${graph_file}")
list(APPEND cases ${bad_files})

# Bad query logs fail the serve replay the same way. "<log>|<stderr regex>"
set(bad_logs
  "bfs 0 1\nbfs 4294967296 5\n|query log line 2: want"
)
set(log_file "${CMAKE_CURRENT_BINARY_DIR}/cli_flag_grid.log")
foreach(entry IN LISTS bad_logs)
  string(FIND "${entry}" "|" bar)
  string(SUBSTRING "${entry}" 0 ${bar} contents)
  math(EXPR start "${bar} + 1")
  string(SUBSTRING "${entry}" ${start} -1 want_err)
  file(WRITE "${log_file}" "${contents}")
  execute_process(COMMAND "${FLASH_CLI}" serve "--serve-replay=${log_file}"
                          --scale=0.05
                  RESULT_VARIABLE got
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(NOT got STREQUAL "1" OR NOT err MATCHES "${want_err}")
    message(SEND_ERROR "flash_cli serve with log '${contents}': exit "
                       "'${got}', want 1 and '${want_err}'\n${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
file(REMOVE "${log_file}")
list(APPEND cases ${bad_logs})

list(LENGTH cases total)
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${total} flag cases failed")
endif()
message(STATUS "all ${total} flag cases passed")
