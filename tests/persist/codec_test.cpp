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
#include "support/legacy_snapshot.hpp"
#include "support/reference_crc32.hpp"

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

// The slicing-by-8 loop against the bytewise oracle: every length through
// the 8-byte steps and the tail, at every start alignment, plus seeds
// chained across a split at every offset.
TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment) {
  constexpr std::size_t kBig = 1536 * 1024;
  util::Rng rng(0xC2C);
  std::string buf(kBig + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.uniform_below(256));
  const std::string_view all(buf);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::string_view bytes = all.substr(offset, len);
      ASSERT_EQ(crc32(bytes), reference::crc32(bytes))
          << "length " << len << " at offset " << offset;
    }
    const std::string_view big = all.substr(offset, kBig);
    ASSERT_EQ(crc32(big), reference::crc32(big))
        << "1.5 MiB at offset " << offset;
  }
  const std::string_view whole = all.substr(0, 203);
  for (std::size_t split = 0; split <= 64; ++split) {
    const std::uint32_t seed = crc32(whole.substr(0, split));
    ASSERT_EQ(seed, reference::crc32(whole.substr(0, split)));
    ASSERT_EQ(crc32(whole.substr(split), seed), reference::crc32(whole))
        << "split at " << split;
  }
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

// Field-codec round trips: encode into a buffer, decode it back, and insist
// the decoder consumed every byte.

ml::ForestArena arena_round_trip(const ml::ForestArena& arena) {
  Encoder enc;
  encode_arena(enc, arena);
  Decoder dec(enc.buffer(), "arena");
  ml::ForestArena loaded = decode_arena(dec);
  dec.expect_end();
  return loaded;
}

ml::Dataset dataset_round_trip(const ml::Dataset& data) {
  Encoder enc;
  encode_dataset(enc, data);
  Decoder dec(enc.buffer(), "dataset");
  ml::Dataset loaded = decode_dataset(dec);
  dec.expect_end();
  return loaded;
}

TEST(StateCodec, DatasetRoundTripIsExact) {
  const ml::Dataset data = make_dataset();
  const ml::Dataset loaded = dataset_round_trip(data);
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
  // A well-formed dataset field whose values carry a NaN feature: the shape
  // is fine, so only the value check can refuse it.
  Encoder body;
  body.u64(2);  // features
  body.i32_vec(std::vector<std::int32_t>{0, 1});
  body.f64_vec(std::vector<double>{
      1.0, std::numeric_limits<double>::quiet_NaN(), 3.0, 4.0});
  Decoder dec(body.buffer(), "nan");
  EXPECT_THROW(static_cast<void>(decode_dataset(dec)), DecodeError);
}

// Forest encode -> decode -> predict_proba_many is bit-identical to the
// in-memory arena.
TEST(StateCodec, ForestRoundTripPredictsBitIdentically) {
  const ml::Dataset data = make_dataset();
  const ml::RandomForest forest = make_forest(data);

  const ml::RandomForest restored = ml::RandomForest::from_arena(
      forest.config(), arena_round_trip(forest.arena()));

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
}

// A snapshot built from integer-valued data and a hand-made arena, so its
// bytes depend on the codec alone: an enrolling tenant and a trained one,
// -0.0 and NaN among the arena thresholds.
ServiceSnapshot golden_snapshot() {
  util::Rng rng(0x601D);
  ml::Dataset data(5);
  for (int r = 0; r < 9; ++r) {
    std::vector<double> row(5);
    for (double& v : row) {
      v = static_cast<double>(rng.uniform_below(4000)) - 2000.0;
    }
    data.add(row, r % 3);
  }
  ServiceSnapshot snap;
  snap.last_seq = 77;
  TenantState enrolling;
  enrolling.name = "tenant-enrolling";
  enrolling.state = 0;
  enrolling.enrolled = 9;
  enrolling.feature_count = 5;
  enrolling.class_names = {"net-a", "net-b", "net-c"};
  enrolling.data = data;
  snap.tenants.push_back(enrolling);

  TenantState trained = enrolling;
  trained.name = "tenant-trained";
  trained.state = 1;
  trained.classified = 1234;
  trained.trained = true;
  constexpr std::int32_t kLeaf = ml::ForestArena::kLeaf;
  trained.arena.class_count = 3;
  trained.arena.feature = {0, kLeaf, 4, kLeaf, kLeaf, 2, kLeaf, kLeaf};
  trained.arena.threshold = {-0.0, 0.0, 17.5, 0.0, 0.0,
                             std::numeric_limits<double>::quiet_NaN(), 0.0,
                             0.0};
  trained.arena.right = {2, 0, 4, 3, 6, 7, 9, 0};
  trained.arena.dists = {1.0, 0.0, 0.0,  0.0,  1.0, 0.0,
                         0.25, 0.5, 0.25, 0.0, 0.0, 1.0};
  trained.arena.roots = {0, 5};
  snap.tenants.push_back(std::move(trained));
  return snap;
}

// The snapshot file's bytes are pinned: length and CRC-32 of the whole
// image, computed with the bytewise oracle. They are those of the image
// LegacyProfileSnapshotDecodesToGolden pins, with the trained tenant's
// drift profile block cut out, its has-profile byte 0, and the section
// length and CRCs recomputed.
TEST(StateCodec, SnapshotBytesMatchGolden) {
  const ServiceSnapshot snap = golden_snapshot();
  const std::string bytes = encode_snapshot(snap);
  EXPECT_EQ(bytes.size(), 1382u);
  EXPECT_EQ(reference::crc32(bytes), 0xA71D6DA8u);

  // Views built here by hand give the same bytes as the adapter's, and the
  // counting pass sizes the file exactly.
  std::vector<TenantView> views;
  for (const TenantState& t : snap.tenants) {
    TenantView view;
    view.name = t.name;
    view.state = t.state;
    view.enrolled = t.enrolled;
    view.classified = t.classified;
    view.feature_count = t.feature_count;
    view.class_names = &t.class_names;
    view.data = &t.data;
    view.arena = t.trained ? &t.arena : nullptr;
    views.push_back(view);
  }
  EXPECT_EQ(encode_snapshot(snap.last_seq, views), bytes);
  EXPECT_EQ(snapshot_size(snap.last_seq, views), bytes.size());

  const ServiceSnapshot loaded = decode_snapshot(bytes, "golden.bin");
  ASSERT_EQ(loaded.tenants.size(), 2u);
  EXPECT_TRUE(std::signbit(loaded.tenants[1].arena.threshold[0]));
  EXPECT_TRUE(std::isnan(loaded.tenants[1].arena.threshold[5]));
  EXPECT_EQ(encode_snapshot(loaded), bytes);
}

// Snapshots written while the drift reference was persisted carry its
// block after a trained tenant's forest. Rebuilt from the current image,
// that layout matches the pinned bytes it had (length 2470, CRC 0xC7D5740F,
// taken from the writer that persisted it), and it decodes to the same
// tenants: re-encoding gives the current golden image.
TEST(StateCodec, LegacyProfileSnapshotDecodesToGolden) {
  const std::string bytes = encode_snapshot(golden_snapshot());
  const std::string legacy = reference::with_legacy_profiles(bytes, 8);
  EXPECT_EQ(legacy.size(), 2470u);
  EXPECT_EQ(reference::crc32(legacy), 0xC7D5740Fu);
  EXPECT_EQ(encode_snapshot(decode_snapshot(legacy, "legacy.bin")), bytes);
}

TEST(StateCodec, StructurallyInvalidArenaIsRejected) {
  const ml::Dataset data = make_dataset();
  ml::ForestArena arena = make_forest(data).arena();
  // Well-formed nonsense: point a tree root past the node array. decode must
  // reject it rather than hand back an arena whose walk would be UB.
  arena.roots[0] = static_cast<std::int32_t>(arena.feature.size() + 100);
  EXPECT_THROW((void)arena_round_trip(arena), DecodeError);
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
  state.data = dataset_round_trip(original.enrollment_data());
  state.trained = true;
  state.arena = arena_round_trip(original.forest().arena());
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
