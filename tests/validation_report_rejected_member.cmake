# A population member whose admission is rejected (an AF rhythm that fails
# the calibration quality gate) must not abort validation_report: the run
# exits 0, the member gets an ungraded "admitted":false session line, and
# the fleet line counts it.
#   cmake -DVALIDATION_REPORT=... -DOUTPUT=... -P validation_report_rejected_member.cmake
execute_process(
  COMMAND ${VALIDATION_REPORT} --seed 7 --population 6 --duration 30 --output ${OUTPUT}
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 300)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "validation_report exit status '${rc}', want 0: ${err}")
endif()
file(STRINGS ${OUTPUT} rejected REGEX "\"type\":\"validation_session\".*\"admitted\":false,\"reason\":\"[^\"]+\"")
list(LENGTH rejected n_rejected)
if(NOT n_rejected EQUAL 1)
  message(FATAL_ERROR "want 1 rejected validation_session line, got ${n_rejected}")
endif()
file(STRINGS ${OUTPUT} fleet REGEX "\"type\":\"validation_fleet\",\"sessions\":6,.*\"rejected\":1[,}]")
list(LENGTH fleet n_fleet)
if(NOT n_fleet EQUAL 1)
  message(FATAL_ERROR "fleet line does not count 6 sessions with 1 rejected")
endif()
