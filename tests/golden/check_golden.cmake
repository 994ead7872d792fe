# Run one command and compare its stdout, byte for byte, with a committed
# golden file:
#
#   cmake -DGOLDEN=<file> [-DNORMALISE_ENGINE=ON] -P check_golden.cmake \
#         -- <command> [args...]
#
# NORMALISE_ENGINE rewrites every "engine":"<name>" to "engine":"*", so one
# golden file covers both execution engines. On a mismatch the output is
# kept next to the test as <golden name>.actual for diffing.
set(command "")
set(past_separator OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(past_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(past_separator ON)
  endif()
endforeach()
if(NOT command OR NOT GOLDEN)
  message(FATAL_ERROR "usage: cmake -DGOLDEN=<file> -P check_golden.cmake -- <command>")
endif()

execute_process(COMMAND ${command}
                OUTPUT_VARIABLE actual
                ERROR_QUIET
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "'${command}' exited with ${status}")
endif()
if(NORMALISE_ENGINE)
  string(REGEX REPLACE "\"engine\":\"[a-z]+\"" "\"engine\":\"*\"" actual
         "${actual}")
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name "${GOLDEN}" NAME)
  file(WRITE "${name}.actual" "${actual}")
  message(FATAL_ERROR
          "output differs from ${GOLDEN}; see ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
endif()
