# End-to-end checks of `hecmine_cli` (its run bundle and its flag check)
# and `hecmine_report`, one case per ctest entry (see tests/CMakeLists.txt).
# Run as
#
#   cmake -DCASE=<case> -DCLI=<hecmine_cli> -DREPORT=<hecmine_report>
#         -DSCENARIO=<consortium.conf> -DWORK=<scratch dir> -P report_cli.cmake
#
# Each case owns WORK, so cases can run in parallel.

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

# Runs a command and fails unless it exits with `expected`.
function(expect_exit expected)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code STREQUAL "${expected}")
    message(FATAL_ERROR
      "expected exit ${expected}, got ${code}: ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

# Runs a command and fails unless it is rejected before any work: exit 2,
# nothing on stdout, and stderr naming `flag` as unknown.
function(expect_unknown_flag flag)
  execute_process(COMMAND ${ARGN}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(FIND "${err}" "unknown flag ${flag}" at)
  if(NOT code STREQUAL "2" OR at EQUAL -1 OR NOT out STREQUAL "")
    message(FATAL_ERROR
      "expected exit 2 naming ${flag}, got ${code}: ${ARGN}\n${out}\n${err}")
  endif()
endfunction()

if(CASE STREQUAL "CleanBundle")
  # A healthy campaign writes the whole bundle, three files (the flight
  # stream, the trace and the block log), and every report over it is
  # clean with the drift gate on.
  expect_exit(0 "${CLI}" campaign "${SCENARIO}" --blocks=2000
    "--run-dir=${WORK}/bundle")
  file(GLOB files RELATIVE "${WORK}/bundle" "${WORK}/bundle/*")
  list(SORT files)
  if(NOT files STREQUAL "blocklog.jsonl;flight.jsonl;trace.json")
    message(FATAL_ERROR "unexpected bundle files: ${files}")
  endif()
  expect_exit(0 "${REPORT}" "${WORK}/bundle" --fail-on-drift)
  expect_exit(0 "${REPORT}" campaign "${WORK}/bundle/blocklog.jsonl"
    --fail-on-drift "--json=${WORK}/campaign.json")
  if(NOT EXISTS "${WORK}/campaign.json")
    message(FATAL_ERROR "no campaign.json report written")
  endif()
elseif(CASE STREQUAL "StridedBlockLog")
  # Every 10th round is logged with its shares while the summary line
  # covers all rounds: the replay must take the summary, not call the log
  # corrupt.
  expect_exit(0 "${CLI}" campaign "${SCENARIO}" --blocks=2000
    --block-log-stride=10 "--run-dir=${WORK}/bundle")
  expect_exit(0 "${REPORT}" campaign "${WORK}/bundle/blocklog.jsonl"
    --fail-on-drift)
elseif(CASE STREQUAL "MalformedInput")
  file(WRITE "${WORK}/bad.jsonl" "{\"schema\"\n")
  foreach(command prof campaign)
    expect_exit(2 "${REPORT}" ${command} "${WORK}/bad.jsonl")
  endforeach()
  expect_exit(2 "${REPORT}" campaign "${WORK}/missing.jsonl")
  expect_exit(2 "${REPORT}" campaign "${WORK}/bad.jsonl" --z=4)
  file(WRITE "${WORK}/bad_id.jsonl"
    "{\"schema\": \"hecmine.blocklog.v1\"}\n"
    "{\"round\": 0, \"winner\": 0, \"shares\": [[1e300, 1, 1]]}\n")
  expect_exit(2 "${REPORT}" campaign "${WORK}/bad_id.jsonl")
  # A directory is a bundle only when its flight stream opens with the
  # hecmine.flight.v1 header.
  file(MAKE_DIRECTORY "${WORK}/no_flight" "${WORK}/other_flight")
  expect_exit(2 "${REPORT}" "${WORK}/no_flight")
  file(WRITE "${WORK}/other_flight/flight.jsonl"
    "{\"schema\": \"hecmine.blocklog.v1\"}\n")
  expect_exit(2 "${REPORT}" "${WORK}/other_flight")
elseif(CASE STREQUAL "MissingGateInput")
  # A solve writes no block log, so a drift gate over its bundle cannot
  # pass, not even when the solve reuses a campaign's bundle directory.
  expect_exit(0 "${CLI}" campaign "${SCENARIO}" --blocks=300
    "--run-dir=${WORK}/bundle")
  expect_exit(0 "${CLI}" solve "${SCENARIO}" "--run-dir=${WORK}/bundle")
  expect_exit(0 "${REPORT}" "${WORK}/bundle")
  expect_exit(2 "${REPORT}" "${WORK}/bundle" --fail-on-drift)
elseif(CASE STREQUAL "FireDrill")
  # A campaign playing the wrong equilibrium aborts under --health=abort;
  # the bundle's flight stream still holds the watchdog event, and the
  # replay of its block log trips the drift gate. The event is a line of
  # its own; the header's manifest names the schema too.
  expect_exit(5 "${CLI}" campaign "${SCENARIO}" --misprice-edge=0.5
    --health=abort --blocks=10000 "--run-dir=${WORK}/bundle")
  file(READ "${WORK}/bundle/flight.jsonl" flight)
  string(FIND "${flight}" "\n{\"schema\": \"hecmine.health.v1\"" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "flight.jsonl holds no hecmine.health.v1 event")
  endif()
  expect_exit(3 "${REPORT}" "${WORK}/bundle" --fail-on-drift)
elseif(CASE STREQUAL "UnknownFlags")
  # A retired export flag, a misspelled one and the campaign-only watchdog
  # policy on a solve are usage errors, not silently ignored settings.
  get_filename_component(scenarios "${SCENARIO}" DIRECTORY)
  expect_unknown_flag(--block-log "${CLI}" campaign "${SCENARIO}"
    --blocks=100 --block-log=x)
  expect_unknown_flag(--threds "${CLI}" solve "${scenarios}/sp_pricing.conf"
    --threds=4)
  expect_unknown_flag(--health "${CLI}" solve "${scenarios}/sp_pricing.conf"
    --health=warn)
else()
  message(FATAL_ERROR "unknown CASE: ${CASE}")
endif()
