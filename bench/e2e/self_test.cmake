# Tamper self-test: bench_e2e --self-test flips one reference verdict, so a
# working oracle must report failures and exit non-zero. Passes only then.
#   cmake -DBENCH_E2E=<path to bench_e2e> -P self_test.cmake
foreach(workload ward_stream ward_selective)
  execute_process(
    COMMAND "${BENCH_E2E}" --workload=${workload} --seed=1 --seconds=0.5
            --self-test
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  message(STATUS "${out}")
  if(rc EQUAL 0)
    message(FATAL_ERROR "self-test (${workload}): tampered run exited 0")
  endif()
  if(NOT out MATCHES "failed [1-9][0-9]* of [0-9]+ attempted")
    message(FATAL_ERROR
      "self-test (${workload}): tampered run did not report failures\n${err}")
  endif()
endforeach()
