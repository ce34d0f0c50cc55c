# Runs command lines of the shipped tools and fails unless each exits with
# the status its case expects. Malformed flags must exit exactly 2 — a usage
# error reported before any work starts, never a crash (134), a silent clamp
# (0) or a runtime failure (1); well-formed requests the model cannot serve
# must exit 1 with a message, never abort:
#   cmake -DWARD_SERVER=... -DTONOSIM_CLI=... -DVALIDATION_REPORT=... \
#         -P cli_rejects_bad_flags.cmake
# Each case still bounds its run (--sessions 2 --duration 1 and the like),
# so a regression that accepts the flag fails fast instead of serving.
function(expect_exit_status want)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET
                  TIMEOUT 120)
  if(NOT rc STREQUAL "${want}")
    string(REPLACE ";" " " line "${ARGN}")
    message(SEND_ERROR "exit status '${rc}', want ${want}: ${line}")
  endif()
endfunction()

function(expect_usage_error)
  expect_exit_status(2 ${ARGN})
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
# tonosim_cli adc tones outside (0, 500) Hz: the output rate is 1 kS/s.
expect_usage_error(${TONOSIM_CLI} adc --freq 0)
expect_usage_error(${TONOSIM_CLI} adc --freq 600)
expect_usage_error(${TONOSIM_CLI} adc --freq 500)
# A pressure pair the cuff cannot measure is a runtime failure, not a crash.
expect_exit_status(1 ${TONOSIM_CLI} monitor --duration 1 --sys 300 --dia 250)
expect_exit_status(1 ${TONOSIM_CLI} monitor --duration 1 --sys 10 --dia -40)
# validation_report --seed -1 used to wrap to 2^64-1.
expect_usage_error(${VALIDATION_REPORT} --seed -1 --population 1 --duration 1)
