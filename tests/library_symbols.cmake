# Fails when libamperebleed carries a test oracle or a tool's internals.
# Oracles belong in tests/support and the bench_compare internals in tools/;
# this keeps either from creeping back into the shipped library. Run as
#
#   cmake -DNM=nm -DLIBRARY=libamperebleed.a -DSOURCE_DIR=src \
#         -P library_symbols.cmake

execute_process(
  COMMAND ${NM} -C ${LIBRARY}
  OUTPUT_VARIABLE symbols
  ERROR_VARIABLE nm_error
  RESULT_VARIABLE nm_status)
if(NOT nm_status EQUAL 0)
  message(FATAL_ERROR "${NM} -C ${LIBRARY} failed: ${nm_error}")
endif()

set(failures "")
foreach(pattern
    "core::reference::"
    "predict_proba_reference"
    "build_reference"
    "TreeConfig::Splitter"
    "parse_bench_record"
    "load_bench_record"
    "load_trajectory_dir"
    "load_records"
    "compare_records"
    "CompareReport")
  string(FIND "${symbols}" "${pattern}" at)
  if(NOT at EQUAL -1)
    list(APPEND failures "symbol matching '${pattern}'")
  endif()
endforeach()

# Data members leave no symbol, so the two forest ones are checked in the
# headers: a tree config picks no splitter, and a fitted forest is its
# arena alone.
file(READ "${SOURCE_DIR}/amperebleed/ml/decision_tree.hpp" tree_header)
string(FIND "${tree_header}" "Splitter" at)
if(NOT at EQUAL -1)
  list(APPEND failures "TreeConfig splitter field")
endif()
file(READ "${SOURCE_DIR}/amperebleed/ml/random_forest.hpp" forest_header)
string(FIND "${forest_header}" "std::vector<DecisionTree>" at)
if(NOT at EQUAL -1)
  list(APPEND failures "RandomForest per-tree member")
endif()

if(failures)
  list(JOIN failures "\n  " listing)
  message(FATAL_ERROR "libamperebleed carries:\n  ${listing}")
endif()
message(STATUS "libamperebleed carries no oracle or tool internals")
