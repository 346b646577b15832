# Guards the isolation rule of the AVX kernel backends (sim_kernels.hpp):
# nothing compiled with -mavx* may have external linkage, except each
# backend's table getter. Any other defined global symbol -- typically a
# weak inline or template instantiation such as a std::string constructor
# -- may be the copy the linker keeps for the whole program, which would
# then run AVX instructions on hosts without them.
#
# Usage: cmake -DNM=<nm> -DLIB=<libscanpower.a> -P check_avx_exports.cmake
if(NOT NM OR NOT LIB)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIB=<archive> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()

execute_process(
  COMMAND ${NM} -A -C --defined-only --extern-only ${LIB}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NM} failed on ${LIB}: ${err}")
endif()

string(REPLACE "\n" ";" lines "${out}")
set(seen 0)
set(bad "")
foreach(line IN LISTS lines)
  # "<archive>:<member>:<address> <type> <symbol>"
  if(NOT line MATCHES ":sim_kernels_avx(2|512)\\.cpp\\.o:[0-9a-fA-F]* [A-Za-z] (.*)$")
    continue()
  endif()
  set(sym "${CMAKE_MATCH_2}")
  if(sym MATCHES "^scanpower::avx(2|512)_sim_kernels\\(\\)$")
    math(EXPR seen "${seen} + 1")
  elseif(NOT sym STREQUAL "DW.ref.__gxx_personality_v0")
    string(APPEND bad "  ${line}\n")
  endif()
endforeach()

if(NOT seen EQUAL 2)
  message(FATAL_ERROR "expected the avx2 and avx512 table getters in ${LIB}, "
                      "found ${seen}")
endif()
if(bad)
  message(FATAL_ERROR "AVX kernel objects export symbols other than their "
                      "table getters:\n${bad}")
endif()
message(STATUS "AVX kernel objects export only their table getters")
