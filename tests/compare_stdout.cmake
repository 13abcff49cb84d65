# Runs COMMAND (a ;-list) and fails unless its standard output equals the
# file GOLDEN byte for byte. Usage:
#   cmake -DCOMMAND=<exe;args> -DGOLDEN=<file> -DOUTPUT=<file> -P compare_stdout.cmake
# The captured output is left in OUTPUT for inspection.
execute_process(COMMAND ${COMMAND}
  OUTPUT_FILE ${OUTPUT}
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUTPUT}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  file(READ ${OUTPUT} got)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; got:\n${got}")
endif()
