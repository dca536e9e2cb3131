# Run span_tool --json on a checked-in trace and compare the output
# byte for byte with the expected file.
#   cmake -DTOOL=<span_tool> -DTRACE=<trace> -DEXPECTED=<json>
#         -DOUT=<json> -P span_tool_golden.cmake
execute_process(
    COMMAND ${TOOL} --trace=${TRACE} --json=${OUT} --slo-us=20
            --window-us=30
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
# The fixture holds no broken decomposition, so span_tool exits 0.
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "span_tool exited with ${rc}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${EXPECTED}
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "${OUT} differs from ${EXPECTED}")
endif()
