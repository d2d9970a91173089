# Golden guard for the virtual-time service replay (docs/service.md).
#
# Generates a fixed-seed burst trace (mixed ops and precisions, tight
# deadlines), replays it with admission on over a mixed CPU + GPU pool
# under a short latency budget and a batch cap, so the pool is busy at
# dispatch and rate, queue and deadline shedding all fire (`--check`
# replays twice and asserts bit-identical reports), and diffs the printed
# report against the committed golden file. TimingOnly replay is a pure function of the trace,
# the config and the pool description, so the golden file holds on any host
# and ISA; a diff means the replay loop reordered or changed an event.
#
# Usage:
#   cmake -DTRACE_REPLAY=<trace_replay> -DGOLDEN=<golden.txt> -DWORK_DIR=<dir>
#         -P replay_golden.cmake
foreach(var TRACE_REPLAY GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "replay_golden: -D${var}=... is required")
  endif()
endforeach()

set(trace "${WORK_DIR}/replay_golden.trace")
set(actual "${WORK_DIR}/replay_golden.out")

execute_process(
  COMMAND "${TRACE_REPLAY}" --gen --count 200 --tenants 3 --rate 60000 --seed 11
          --burst 4 --deadline-frac 0.3 --deadline 0.00015 --mix-ops --mix-precisions
  OUTPUT_FILE "${trace}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay_golden: trace_replay --gen exited ${rc}")
endif()

execute_process(
  COMMAND "${TRACE_REPLAY}" --replay "${trace}" --pool cpu,k40c,p100:4streams
          --latency-budget 0.00005 --max-batch 8 --max-queue 12 --tenant-rate 0.05 --check
  OUTPUT_FILE "${actual}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "replay_golden: trace_replay --replay --check exited ${rc}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${actual}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ "${actual}" text)
  message(FATAL_ERROR "replay_golden: report differs from ${GOLDEN}\n"
                      "--- actual (${actual}) ---\n${text}")
endif()
message(STATUS "replay_golden: report matches ${GOLDEN}")
