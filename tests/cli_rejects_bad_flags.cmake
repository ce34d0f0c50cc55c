# Runs malformed command lines of the shipped tools and fails unless every
# one exits with status exactly 2 — a usage error reported before any work
# starts, never a crash (134), a silent clamp (0) or a runtime failure (1):
#   cmake -DWARD_SERVER=... -DTONOSIM_CLI=... -DVALIDATION_REPORT=... \
#         -P cli_rejects_bad_flags.cmake
# Each case still bounds its run (--sessions 2 --duration 1 and the like),
# so a regression that accepts the flag fails fast instead of serving.
function(expect_usage_error)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET
                  TIMEOUT 120)
  if(NOT rc STREQUAL "2")
    string(REPLACE ";" " " line "${ARGN}")
    message(SEND_ERROR "exit status '${rc}', want 2: ${line}")
  endif()
endfunction()

set(ward ${WARD_SERVER} --sessions 2 --duration 1)
set(gateway ${ward} --transport loopback)

# The gateway flags CI probes.
expect_usage_error(${gateway} --transport carrier-pigeon)
expect_usage_error(${gateway} --listen nohost)
expect_usage_error(${gateway} --listen 127.0.0.1:99999)
expect_usage_error(${gateway} --replay-speed -1)
expect_usage_error(${gateway} --wire-capacity 0)
# A hospital the flags describe but cannot run: a batch larger than the code
# ring (used to abort) or than a blocking loopback wire.
expect_usage_error(${ward} --frames-per-step 5000)
expect_usage_error(${gateway} --wire-capacity 100)
# Fleet bounds and cross-flag rules.
expect_usage_error(${ward} --shards 0)
expect_usage_error(${ward} --checkpoint-every 1)
expect_usage_error(${ward} --resume)
expect_usage_error(${ward} --record unused_rec)
expect_usage_error(${ward} --dump-codes unused_dump)
expect_usage_error(${gateway} --record unused_rec --replay unused_rec)
expect_usage_error(${ward} --checkpoint unused.ckpt --transport tcp)
# --fault-plan values that used to run anyway.
expect_usage_error(${ward} --fault-plan contact=1.7)
expect_usage_error(${ward} --fault-plan unrecoverable=nan)
expect_usage_error(${ward} --fault-plan unrecoverable=3)
expect_usage_error(${ward} --fault-plan contact=1e30)
expect_usage_error(${ward} --fault-plan contact=1,)
# tonosim_cli values that used to abort with an uncaught exception.
expect_usage_error(${TONOSIM_CLI} localize --cols 0)
expect_usage_error(${TONOSIM_CLI} monitor --duration -1)
expect_usage_error(${TONOSIM_CLI} monitor --duration 1 --hr 0)
expect_usage_error(${TONOSIM_CLI} monitor --duration 1 --sys 80 --dia 80)
# validation_report --seed -1 used to wrap to 2^64-1.
expect_usage_error(${VALIDATION_REPORT} --seed -1 --population 1 --duration 1)
