// Corruption-sweep property tests (DESIGN.md §15): EVERY malformed byte
// image must surface as a typed DecodeError (decoders) or clean discard
// accounting (journal scan) — never UB, never a crash. CI runs this suite
// under ASan/UBSan, which is what turns "no exception escaped" into "no
// out-of-bounds read happened either".

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/ml/random_forest.hpp"
#include "amperebleed/persist/journal.hpp"
#include "amperebleed/persist/state.hpp"
#include "amperebleed/util/rng.hpp"
#include "support/legacy_snapshot.hpp"

namespace amperebleed::persist {
namespace {

ml::Dataset small_dataset() {
  util::Rng rng(3);
  ml::Dataset data(6);
  for (std::size_t r = 0; r < 12; ++r) {
    const int cls = static_cast<int>(r % 2);
    std::vector<double> row(6);
    for (double& v : row) v = 50.0 * cls + rng.gaussian(0.0, 2.0);
    data.add(row, cls);
  }
  return data;
}

/// An enrolling tenant and a trained one, in the layout that still carried
/// the trained tenant's drift profile, so the sweeps below run through the
/// dataset and arena decoders and the legacy-profile skip.
std::string small_snapshot_file() {
  ServiceSnapshot snap;
  snap.last_seq = 9;
  TenantState tenant;
  tenant.name = "alpha";
  tenant.state = 0;
  tenant.enrolled = 12;
  tenant.feature_count = 6;
  tenant.class_names = {"a", "b"};
  tenant.data = small_dataset();
  snap.tenants.push_back(tenant);

  ml::ForestConfig config;
  config.n_trees = 4;
  ml::RandomForest forest(config);
  forest.fit(tenant.data);
  tenant.name = "beta";
  tenant.state = 1;
  tenant.trained = true;
  tenant.arena = forest.arena();
  snap.tenants.push_back(std::move(tenant));
  return reference::with_legacy_profiles(encode_snapshot(snap), 8);
}

// Truncate at EVERY byte boundary: each prefix must decode-fail cleanly.
template <typename DecodeFn>
void truncation_sweep(const std::string& bytes, DecodeFn decode) {
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)decode(bytes.substr(0, len)), DecodeError)
        << "truncation at byte " << len << " must be a DecodeError";
  }
}

// Flip ONE bit in every byte: CRC32 detects all single-bit flips in
// payloads, framing checks catch the rest — deterministically, so assert
// every position, not a sample.
template <typename DecodeFn>
void bitflip_sweep(const std::string& bytes, DecodeFn decode) {
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << (pos % 8)));
    EXPECT_THROW((void)decode(corrupt), DecodeError)
        << "bit flip at byte " << pos << " must be a DecodeError";
  }
}

TEST(CorruptionSweep, SnapshotTruncatedAtEveryByte) {
  truncation_sweep(small_snapshot_file(), [](std::string_view bytes) {
    return decode_snapshot(bytes, "snapshot.bin");
  });
}

TEST(CorruptionSweep, SnapshotFlippedAtEveryByte) {
  bitflip_sweep(small_snapshot_file(), [](std::string_view bytes) {
    return decode_snapshot(bytes, "snapshot.bin");
  });
}

// Behind a valid CRC only the field decoders stand between a damaged
// legacy profile block and the snapshot: every truncation of the block must
// be a DecodeError, and every single-bit flip must decode or be one.
TEST(CorruptionSweep, LegacyProfileBlockCutOrFlippedBehindAValidCrc) {
  const std::string file = small_snapshot_file();
  const ServiceSnapshot snap = decode_snapshot(file, "snapshot.bin");
  const std::string block =
      reference::legacy_profile_block(snap.tenants[1].data, 8);
  const auto with_block = [&](const std::string& damaged) {
    return reference::reframe_snapshot(
        file, [&](std::size_t t, std::string_view payload) {
          if (t == 0) return std::string(payload);
          EXPECT_TRUE(payload.ends_with(block));
          return std::string(payload.substr(0, payload.size() - block.size())) +
                 damaged;
        });
  };
  ASSERT_EQ(with_block(block), file);
  for (std::size_t len = 0; len < block.size(); ++len) {
    EXPECT_THROW((void)decode_snapshot(with_block(block.substr(0, len)),
                                       "snapshot.bin"),
                 DecodeError)
        << "profile block cut at byte " << len;
  }
  for (std::size_t pos = 0; pos < block.size(); ++pos) {
    std::string damaged = block;
    damaged[pos] = static_cast<char>(damaged[pos] ^ (1u << (pos % 8)));
    try {
      (void)decode_snapshot(with_block(damaged), "snapshot.bin");
    } catch (const DecodeError&) {
    }
  }
}

// Reassemble a two-section file with its sections swapped: the strict
// section-order contract turns reordering into a typed error.
TEST(CorruptionSweep, SwappedSectionsAreRejected) {
  const std::string file = small_snapshot_file();
  // Parse the frames: header (8 bytes), then tag u32 | len u64 | crc u32.
  const std::string header(file.substr(0, 8));
  std::size_t pos = 8;
  std::vector<std::string> sections;
  while (pos < file.size()) {
    Decoder frame(std::string_view(file).substr(pos, 16), "frame");
    (void)frame.u32();
    const std::uint64_t len = frame.u64();
    sections.push_back(file.substr(pos, 16 + len));
    pos += 16 + len;
  }
  ASSERT_GE(sections.size(), 2u);
  std::string swapped = header + sections[1] + sections[0];
  for (std::size_t s = 2; s < sections.size(); ++s) swapped += sections[s];
  EXPECT_THROW((void)decode_snapshot(swapped, "snapshot.bin"), DecodeError);
}

// The journal scanner must NEVER throw on corrupted content — it returns
// the valid prefix plus discard accounting instead.
TEST(CorruptionSweep, JournalScanToleratesEveryTruncationAndFlip) {
  std::vector<JournalRecord> records;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    JournalRecord record;
    record.seq = seq;
    record.op = JournalOp::Train;
    record.tenant = "tenant";
    records.push_back(std::move(record));
  }
  Encoder header;
  header.u32(kFileMagic);
  header.u16(kFormatVersion);
  header.u16(kKindJournal);
  std::string image = header.take();
  for (const JournalRecord& record : records) {
    const std::string payload = encode_record(record);
    Encoder frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(crc32(payload));
    frame.bytes(payload);
    image += frame.take();
  }

  for (std::size_t len = 0; len <= image.size(); ++len) {
    const JournalScan scan = scan_journal(image.substr(0, len), "journal");
    EXPECT_LE(scan.recovered_records, records.size());
    EXPECT_LE(scan.valid_bytes, len);
  }
  for (std::size_t pos = 0; pos < image.size(); ++pos) {
    std::string corrupt = image;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ (1u << (pos % 8)));
    const JournalScan scan = scan_journal(corrupt, "journal");
    // Every record is accounted for: recovered + discarded covers all
    // three (a flipped frame can split one record into several phantom
    // frames, so discarded may exceed the original count — but recovered
    // records are always genuine, in-sequence ones).
    EXPECT_LE(scan.recovered_records, records.size());
    if (scan.header_ok) {
      EXPECT_GE(scan.recovered_records + scan.discarded_records,
                records.size() > 0 ? 1u : 0u);
    }
  }
}

}  // namespace
}  // namespace amperebleed::persist
