# Run `${TOOL} --json` and capture its stdout into ${OUT}. ctest COMMAND
# lines have no shell, so redirection needs this -P helper. With
# -DEXPECT=<file>, the captured bytes must also equal that file's.
execute_process(COMMAND ${TOOL} --json
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${TOOL} --json failed with status ${rc}")
endif()
if(DEFINED EXPECT)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${EXPECT}
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR "${OUT} differs from the golden ${EXPECT}")
    endif()
endif()
