#include "amperebleed/persist/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "amperebleed/core/online.hpp"
#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/ml/random_forest.hpp"
#include "amperebleed/persist/state.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::persist {
namespace {

TEST(Crc32, MatchesKnownVector) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, SeedChainsIncrementally) {
  const std::string all = "abcdefgh";
  const std::uint32_t whole = crc32(all);
  // Chaining halves through `seed` must equal one pass over the whole.
  EXPECT_EQ(crc32(all.substr(4), crc32(all.substr(0, 4))), whole);
}

TEST(Codec, ScalarRoundTrip) {
  Encoder enc;
  enc.u8(0xAB);
  enc.u16(0xBEEF);
  enc.u32(0xDEADBEEFu);
  enc.u64(0x0123456789ABCDEFull);
  enc.i32(-12345);
  enc.i64(-9'000'000'000ll);
  enc.f64(-0.0);
  enc.f64(std::numeric_limits<double>::quiet_NaN());
  enc.str("tenant-a");
  Decoder dec(enc.buffer(), "test");
  EXPECT_EQ(dec.u8(), 0xAB);
  EXPECT_EQ(dec.u16(), 0xBEEF);
  EXPECT_EQ(dec.u32(), 0xDEADBEEFu);
  EXPECT_EQ(dec.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(dec.i32(), -12345);
  EXPECT_EQ(dec.i64(), -9'000'000'000ll);
  const double neg_zero = dec.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not value, round-trips
  EXPECT_TRUE(std::isnan(dec.f64()));
  EXPECT_EQ(dec.str(), "tenant-a");
  dec.expect_end();
}

TEST(Codec, VectorRoundTrip) {
  const std::vector<double> doubles = {1.5, -2.25, 1e-300};
  const std::vector<std::int32_t> ints = {-1, 0, 7};
  const std::vector<std::uint64_t> u64s = {0, 1ull << 63};
  const std::vector<std::uint8_t> bytes = {0, 1, 255};
  Encoder enc;
  enc.f64_vec(doubles);
  enc.i32_vec(ints);
  enc.u64_vec(u64s);
  enc.u8_vec(bytes);
  Decoder dec(enc.buffer(), "test");
  EXPECT_EQ(dec.f64_vec(), doubles);
  EXPECT_EQ(dec.i32_vec(), ints);
  EXPECT_EQ(dec.u64_vec(), u64s);
  EXPECT_EQ(dec.u8_vec(), bytes);
  dec.expect_end();
}

TEST(Codec, TruncatedReadThrowsWithContextAndOffset) {
  Encoder enc;
  enc.u32(7);
  Decoder dec(enc.buffer(), "forest.bin/BODY");
  (void)dec.u16();
  try {
    (void)dec.u32();  // only 2 bytes left
    FAIL() << "expected DecodeError";
  } catch (const DecodeError& e) {
    EXPECT_NE(std::string(e.what()).find("forest.bin/BODY"),
              std::string::npos);
  }
}

TEST(Codec, ImplausibleVectorLengthIsCaughtBeforeAllocation) {
  Encoder enc;
  enc.u64(1ull << 60);  // claims 2^60 doubles in an 8-byte buffer
  Decoder dec(enc.buffer(), "test");
  EXPECT_THROW((void)dec.f64_vec(), DecodeError);
}

TEST(Codec, TrailingBytesAreCorruption) {
  Encoder enc;
  enc.u8(1);
  enc.u8(2);
  Decoder dec(enc.buffer(), "test");
  (void)dec.u8();
  EXPECT_THROW(dec.expect_end(), DecodeError);
}

TEST(SectionFraming, RoundTripAndStrictOrder) {
  FileWriter writer(section_tag("ABPS"), 1, 2);
  writer.section(section_tag("META"), "meta-bytes");
  writer.section(section_tag("BODY"), "body-bytes");
  const std::string file = writer.take();

  FileReader reader(file, section_tag("ABPS"), 1, 2, "test");
  EXPECT_EQ(reader.section(section_tag("META")), "meta-bytes");
  EXPECT_EQ(reader.section(section_tag("BODY")), "body-bytes");
  reader.expect_end();

  // Asking for sections out of order = reordered file = corruption.
  FileReader swapped(file, section_tag("ABPS"), 1, 2, "test");
  EXPECT_THROW((void)swapped.section(section_tag("BODY")), DecodeError);
}

TEST(SectionFraming, WrongMagicVersionKindAllThrow) {
  FileWriter writer(section_tag("ABPS"), 1, 2);
  writer.section(section_tag("BODY"), "x");
  const std::string file = writer.take();
  EXPECT_THROW(FileReader(file, section_tag("NOPE"), 1, 2, "t"), DecodeError);
  EXPECT_THROW(FileReader(file, section_tag("ABPS"), 9, 2, "t"), DecodeError);
  EXPECT_THROW(FileReader(file, section_tag("ABPS"), 1, 9, "t"), DecodeError);
}

TEST(SectionFraming, PayloadBitFlipFailsCrc) {
  FileWriter writer(section_tag("ABPS"), 1, 2);
  writer.section(section_tag("BODY"), "sensitive payload");
  std::string file = writer.take();
  file[file.size() - 3] = static_cast<char>(file[file.size() - 3] ^ 0x10);
  FileReader reader(file, section_tag("ABPS"), 1, 2, "test");
  EXPECT_THROW((void)reader.section(section_tag("BODY")), DecodeError);
}

// ---------------------------------------------------------------------------
// Typed state codecs.

ml::Dataset make_dataset(std::size_t features = 12, std::size_t rows = 24,
                         int classes = 3, std::uint64_t seed = 7) {
  util::Rng rng(seed);
  ml::Dataset data(features);
  for (std::size_t r = 0; r < rows; ++r) {
    const int cls = static_cast<int>(r % static_cast<std::size_t>(classes));
    std::vector<double> row(features);
    for (std::size_t f = 0; f < features; ++f) {
      row[f] = 100.0 * cls + rng.gaussian(0.0, 3.0);
    }
    data.add(row, cls);
  }
  return data;
}

ml::RandomForest make_forest(const ml::Dataset& data) {
  ml::ForestConfig config;
  config.n_trees = 8;
  config.seed = 0x5eed;
  ml::RandomForest forest(config);
  forest.fit(data);
  return forest;
}

TEST(StateCodec, DatasetRoundTripIsExact) {
  const ml::Dataset data = make_dataset();
  const ml::Dataset loaded =
      decode_dataset_file(encode_dataset_file(data), "dataset.bin");
  ASSERT_EQ(loaded.size(), data.size());
  ASSERT_EQ(loaded.feature_count(), data.feature_count());
  EXPECT_EQ(loaded.labels(), data.labels());
  for (std::size_t r = 0; r < data.size(); ++r) {
    const auto a = data.row(r), b = loaded.row(r);
    for (std::size_t f = 0; f < data.feature_count(); ++f) {
      EXPECT_EQ(a[f], b[f]);  // bit-exact, not approximately equal
    }
  }
}

TEST(StateCodec, NonFiniteDatasetValueIsADecodeError) {
  // A well-framed file (valid CRC) whose body carries a NaN feature: the
  // shape is fine, so only the value check can refuse it.
  Encoder body;
  body.u64(2);  // features
  body.i32_vec(std::vector<std::int32_t>{0, 1});
  body.f64_vec(std::vector<double>{
      1.0, std::numeric_limits<double>::quiet_NaN(), 3.0, 4.0});
  FileWriter file(kFileMagic, kFormatVersion, kKindDataset);
  file.section(section_tag("BODY"), body.buffer());
  EXPECT_THROW(static_cast<void>(decode_dataset_file(file.take(), "nan.bin")),
               DecodeError);
}

// Acceptance criterion: forest save -> load -> predict_proba_many is
// bit-identical to the in-memory arena.
TEST(StateCodec, ForestRoundTripPredictsBitIdentically) {
  const ml::Dataset data = make_dataset();
  const ml::RandomForest forest = make_forest(data);

  const std::string bytes = encode_forest_file(forest.arena());
  const ml::ForestArena arena = decode_forest_file(bytes, "forest.bin");
  const ml::RandomForest restored =
      ml::RandomForest::from_arena(forest.config(), arena);

  EXPECT_TRUE(restored.fitted());
  EXPECT_EQ(restored.tree_count(), forest.tree_count());
  EXPECT_EQ(restored.class_count(), forest.class_count());

  std::vector<std::vector<double>> rows;
  for (std::size_t r = 0; r < data.size(); ++r) {
    rows.emplace_back(data.row(r).begin(), data.row(r).end());
  }
  std::vector<std::span<const double>> spans(rows.begin(), rows.end());
  const auto expected = forest.predict_proba_many(spans);
  const auto actual = restored.predict_proba_many(spans);
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    ASSERT_EQ(actual[r].size(), expected[r].size());
    for (std::size_t c = 0; c < expected[r].size(); ++c) {
      EXPECT_EQ(actual[r][c], expected[r][c])
          << "proba differs at row " << r << " class " << c;
    }
  }
}

TEST(StateCodec, ReferenceWalkIsUnavailableOnRestoredForest) {
  const ml::Dataset data = make_dataset();
  const ml::RandomForest forest = make_forest(data);
  const ml::RandomForest restored = ml::RandomForest::from_arena(
      forest.config(),
      decode_forest_file(encode_forest_file(forest.arena()), "forest.bin"));
  EXPECT_THROW((void)restored.predict_proba_reference(data.row(0)),
               std::logic_error);
}

TEST(StateCodec, ProfileRoundTripComparesEqual) {
  const ml::Dataset data = make_dataset();
  const obs::ReferenceProfile profile =
      obs::ReferenceProfile::from_dataset(data, 16);
  const obs::ReferenceProfile loaded =
      decode_profile_file(encode_profile_file(profile), "profile.bin");
  EXPECT_TRUE(loaded == profile);
}

TEST(StateCodec, SnapshotRoundTripPreservesTenants) {
  const ml::Dataset data = make_dataset();
  const ml::RandomForest forest = make_forest(data);

  ServiceSnapshot snap;
  snap.last_seq = 42;
  TenantState enrolling;
  enrolling.name = "alpha";
  enrolling.state = 0;
  enrolling.enrolled = 3;
  enrolling.feature_count = data.feature_count();
  enrolling.class_names = {"net-0", "net-1"};
  enrolling.data = data;
  snap.tenants.push_back(enrolling);
  TenantState serving = enrolling;
  serving.name = "beta";
  serving.state = 1;
  serving.classified = 17;
  serving.trained = true;
  serving.arena = forest.arena();
  serving.has_profile = true;
  serving.profile = obs::ReferenceProfile::from_dataset(data, 16);
  snap.tenants.push_back(serving);

  const ServiceSnapshot loaded =
      decode_snapshot(encode_snapshot(snap), "snapshot.bin");
  EXPECT_EQ(loaded.last_seq, 42u);
  ASSERT_EQ(loaded.tenants.size(), 2u);
  EXPECT_EQ(loaded.tenants[0].name, "alpha");
  EXPECT_FALSE(loaded.tenants[0].trained);
  EXPECT_EQ(loaded.tenants[1].name, "beta");
  EXPECT_EQ(loaded.tenants[1].classified, 17u);
  EXPECT_TRUE(loaded.tenants[1].trained);
  EXPECT_EQ(loaded.tenants[1].arena.roots, forest.arena().roots);
  EXPECT_EQ(loaded.tenants[1].arena.threshold, forest.arena().threshold);
  EXPECT_TRUE(loaded.tenants[1].has_profile);
  EXPECT_TRUE(loaded.tenants[1].profile == serving.profile);
}

TEST(StateCodec, StructurallyInvalidArenaIsRejected) {
  const ml::Dataset data = make_dataset();
  ml::ForestArena arena = make_forest(data).arena();
  // CRC-valid nonsense: point a tree root past the node array. decode must
  // reject it rather than hand back an arena whose walk would be UB.
  arena.roots[0] = static_cast<std::int32_t>(arena.feature.size() + 100);
  EXPECT_THROW(
      (void)decode_forest_file(encode_forest_file(arena), "forest.bin"),
      DecodeError);
}

// Restored fingerprinters classify bit-identically to the originals.
TEST(StateCodec, FingerprinterRestoreClassifiesBitIdentically) {
  core::OnlineFingerprinterConfig config;
  config.forest.n_trees = 8;
  core::OnlineFingerprinter original(config);
  util::Rng rng(11);
  std::vector<core::Trace> probes;
  for (int cls = 0; cls < 3; ++cls) {
    for (int rep = 0; rep < 4; ++rep) {
      core::Trace t({}, sim::TimeNs{0}, sim::milliseconds(35));
      for (std::size_t i = 0; i < 20; ++i) {
        t.push(100.0 * cls + rng.gaussian(0.0, 2.0));
      }
      if (rep == 0) probes.push_back(t);
      original.enroll(t, "net-" + std::to_string(cls));
    }
  }
  original.train();

  core::OnlineFingerprinter::RestoredState state;
  state.feature_count = original.feature_count();
  state.class_names = original.class_names();
  state.data = decode_dataset_file(
      encode_dataset_file(original.enrollment_data()), "d");
  state.trained = true;
  state.arena = decode_forest_file(
      encode_forest_file(original.forest().arena()), "f");
  const core::OnlineFingerprinter restored =
      core::OnlineFingerprinter::restore(config, std::move(state));

  for (const core::Trace& probe : probes) {
    const auto a = original.classify(probe);
    const auto b = restored.classify(probe);
    EXPECT_EQ(a.model_name, b.model_name);
    EXPECT_EQ(a.known, b.known);
    EXPECT_EQ(a.confidence, b.confidence);  // bit-exact
    EXPECT_EQ(a.margin, b.margin);
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (std::size_t i = 0; i < a.ranking.size(); ++i) {
      EXPECT_EQ(a.ranking[i], b.ranking[i]);
    }
  }
}

}  // namespace
}  // namespace amperebleed::persist
