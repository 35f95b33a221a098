# Fails when libamperebleed carries a test oracle, a tool's internals, a
# retired second format or a deleted capability that nothing called.
# Oracles belong in tests/support and the bench_compare internals in tools/;
# a fitted tree is ForestArena rows only, and the service persists only
# snapshots and its journal. Traces are read live from hwmon, never from a
# trace file; circuits deploy straight onto the fabric; run records carry no
# repetition samples; and metrics snapshots are JSON only. Nor does it carry
# what a linker-map audit found no shipped program reaching: the CPU
# scheduler model, the confusion matrix, the traced modexp, the raw-bus
# fault path, the inverse AES cipher and its untraced forward twin (the
# traced cipher is the one path), the drift sketch's merge and moments,
# and the service's JSON view. This keeps any of them from creeping back
# into the shipped library. Run as
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
    "MetricsRegistry::to_csv"
    "ConfusionMatrix"
    "CpuSchedule"
    "modexp_traced"
    "filter_i2c"
    "attach_bus"
    "decrypt_block"
    "Aes128::encrypt_block("
    "StreamingSketch::merge"
    "ClassificationService::to_json")
  string(FIND "${symbols}" "${pattern}" at)
  if(NOT at EQUAL -1)
    list(APPEND failures "symbol matching '${pattern}'")
  endif()
endforeach()

# Data members and enumerators leave no symbol, and neither would a class
# defined in its header, so these checks read the header: a tree config
# picks no splitter, decision_tree.hpp declares no DecisionTree class,
# WhiteNoise (header-only) stays gone, and so do the I2cNack fault kind and
# the drift sketch's moment members.
foreach(check
    "ml/decision_tree.hpp|Splitter|TreeConfig splitter field"
    "ml/decision_tree.hpp|class DecisionTree|DecisionTree class"
    "sim/noise.hpp|class WhiteNoise|WhiteNoise class"
    "faults/faults.hpp|I2cNack|I2cNack fault kind"
    "obs/drift.hpp|double sum_|StreamingSketch sum member"
    "obs/drift.hpp|double min_|StreamingSketch min member"
    "obs/drift.hpp|double max_|StreamingSketch max member")
  string(REPLACE "|" ";" fields "${check}")
  list(GET fields 0 header)
  list(GET fields 1 needle)
  list(GET fields 2 label)
  file(READ "${SOURCE_DIR}/amperebleed/${header}" text)
  string(FIND "${text}" "${needle}" at)
  if(NOT at EQUAL -1)
    list(APPEND failures "${label}")
  endif()
endforeach()

if(failures)
  list(JOIN failures "\n  " listing)
  message(FATAL_ERROR "libamperebleed carries:\n  ${listing}")
endif()
message(STATUS "libamperebleed carries no oracle, tool internals, retired format or deleted capability")
