# Runs flash_cli over a grid of runtime and storage flags and checks every
# exit status: 2, with a message, for each bad flag (never a signal), and 0
# for the valid runs. Every run uses a small generated graph.
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
  "2|bfs --storage=paged --block-codec=zzz"
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

list(LENGTH cases total)
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${total} flag cases failed")
endif()
message(STATUS "all ${total} flag cases passed")
