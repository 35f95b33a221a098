# Fails when libamperebleed carries a test oracle, a tool's internals, a
# retired second format or a deleted capability that nothing called.
# Oracles belong in tests/support and the bench_compare internals in tools/;
# a fitted tree is ForestArena rows only, and the service persists only
# snapshots and its journal. Traces are read live from hwmon, never from a
# trace file; circuits deploy straight onto the fabric; run records carry no
# repetition samples; and metrics snapshots are JSON only. This keeps any of
# them from creeping back into the shipped library. Run as
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
    "persist::reference::"
    "predict_proba_reference"
    "build_reference"
    "TreeConfig::Splitter"
    "parse_bench_record"
    "load_bench_record"
    "load_trajectory_dir"
    "load_records"
    "compare_records"
    "CompareReport"
    "mann_whitney_u"
    "DecisionTree::"
    "encode_forest_file"
    "encode_dataset_file"
    "encode_profile_file"
    "save_trace_csv"
    "load_trace_csv"
    "fpga::Bitstream"
    "RunRecord::add_sample"
    "MetricsRegistry::to_csv")
  string(FIND "${symbols}" "${pattern}" at)
  if(NOT at EQUAL -1)
    list(APPEND failures "symbol matching '${pattern}'")
  endif()
endforeach()

# Data members leave no symbol, and neither would a tree class defined in
# its header, so two checks read the header: a tree config picks no
# splitter, and decision_tree.hpp declares no DecisionTree class.
file(READ "${SOURCE_DIR}/amperebleed/ml/decision_tree.hpp" tree_header)
string(FIND "${tree_header}" "Splitter" at)
if(NOT at EQUAL -1)
  list(APPEND failures "TreeConfig splitter field")
endif()
string(FIND "${tree_header}" "class DecisionTree" at)
if(NOT at EQUAL -1)
  list(APPEND failures "DecisionTree class")
endif()

# WhiteNoise was header-only, so it too would leave no symbol.
file(READ "${SOURCE_DIR}/amperebleed/sim/noise.hpp" noise_header)
string(FIND "${noise_header}" "class WhiteNoise" at)
if(NOT at EQUAL -1)
  list(APPEND failures "WhiteNoise class")
endif()

if(failures)
  list(JOIN failures "\n  " listing)
  message(FATAL_ERROR "libamperebleed carries:\n  ${listing}")
endif()
message(STATUS "libamperebleed carries no oracle, tool internals, retired format or deleted capability")
