#include "amperebleed/persist/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "amperebleed/faults/faults.hpp"
#include "amperebleed/persist/state.hpp"
#include "amperebleed/util/fs.hpp"
#include "support/reference_crc32.hpp"
#include "support/temp_path.hpp"

namespace amperebleed::persist {
namespace {

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override { faults::storage_points_reset(); }
  void TearDown() override {
    faults::storage_points_reset();
    std::remove(path_.c_str());
  }
  std::string path_ = test::temp_path("journal.bin");
};

JournalRecord make_record(std::uint64_t seq, JournalOp op = JournalOp::Enroll,
                          bool with_trace = true) {
  JournalRecord record;
  record.seq = seq;
  record.op = op;
  record.tenant = "tenant-" + std::to_string(seq % 3);
  if (op == JournalOp::Enroll) record.label = "net-1";
  if (with_trace && op == JournalOp::Enroll) {
    core::Trace trace({power::Rail::Ddr, core::Quantity::Power},
                      sim::milliseconds(40), sim::milliseconds(35));
    trace.push(1250.5);
    trace.push_gap();
    trace.push(-0.0);
    record_set_trace(record, trace);
  }
  return record;
}

std::string image_of(const std::vector<JournalRecord>& records) {
  Encoder header;
  header.u32(kFileMagic);
  header.u16(kFormatVersion);
  header.u16(kKindJournal);
  std::string bytes = header.take();
  for (const JournalRecord& record : records) {
    const std::string payload = encode_record(record);
    Encoder frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(crc32(payload));
    frame.bytes(payload);
    bytes += frame.take();
  }
  return bytes;
}

TEST_F(JournalTest, RecordRoundTripsIncludingGappyTrace) {
  const JournalRecord original = make_record(7);
  const JournalRecord loaded =
      decode_record(encode_record(original), "test");
  EXPECT_EQ(loaded.seq, 7u);
  EXPECT_EQ(loaded.op, JournalOp::Enroll);
  EXPECT_EQ(loaded.tenant, original.tenant);
  EXPECT_EQ(loaded.label, "net-1");
  ASSERT_TRUE(loaded.has_trace);

  const core::Trace trace = trace_from_record(loaded);
  EXPECT_EQ(trace.channel().rail, power::Rail::Ddr);
  EXPECT_EQ(trace.channel().quantity, core::Quantity::Power);
  EXPECT_EQ(trace.start(), sim::milliseconds(40));
  EXPECT_EQ(trace.period(), sim::milliseconds(35));
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], 1250.5);
  EXPECT_FALSE(trace.valid(1));  // the gap survived the round trip
  EXPECT_TRUE(trace.valid(2));
  EXPECT_EQ(trace.gap_count(), 1u);
}

// A journal file holding one enroll with a gappy trace, written by the
// writer: its length and CRC-32 (bytewise oracle) are pinned. The constants
// were taken from the byte-at-a-time codec this one replaced.
TEST_F(JournalTest, RecordBytesMatchGolden) {
  JournalRecord record;
  record.seq = 41;
  record.op = JournalOp::Enroll;
  record.tenant = "tenant-golden";
  record.label = "net-7";
  core::Trace trace({power::Rail::Ddr, core::Quantity::Power},
                    sim::milliseconds(40), sim::milliseconds(35));
  for (int i = 0; i < 37; ++i) {
    if (i % 5 == 3) {
      trace.push_gap();
    } else {
      trace.push(i == 8 ? -0.0 : 1000.0 + 12.25 * i);
    }
  }
  record_set_trace(record, trace);
  {
    JournalWriter writer(path_, 0);
    writer.append(record);
  }
  const std::string bytes = util::read_file(path_);
  EXPECT_EQ(bytes.size(), 427u);
  EXPECT_EQ(reference::crc32(bytes), 0x54D3F3A6u);
  EXPECT_EQ(encode_record(decode_record(bytes.substr(kJournalHeaderBytes + 8),
                                        "golden")),
            bytes.substr(kJournalHeaderBytes + 8));
}

TEST_F(JournalTest, DecodeRejectsBadOpRailQuantity) {
  JournalRecord record = make_record(1);
  std::string payload = encode_record(record);
  // op byte sits right after the u64 seq.
  payload[8] = 9;
  EXPECT_THROW((void)decode_record(payload, "test"), DecodeError);
}

TEST_F(JournalTest, ScanRecoversAllIntactRecords) {
  const auto image =
      image_of({make_record(5), make_record(6, JournalOp::Train, false),
                make_record(7, JournalOp::Retire, false)});
  const JournalScan scan = scan_journal(image, "test");
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.recovered_records, 3u);
  EXPECT_EQ(scan.discarded_records, 0u);
  EXPECT_EQ(scan.valid_bytes, image.size());
  EXPECT_EQ(scan.records[0].seq, 5u);
  EXPECT_EQ(scan.records[2].op, JournalOp::Retire);
}

TEST_F(JournalTest, TornTailIsOneDiscardedRecord) {
  const auto image = image_of({make_record(1), make_record(2)});
  // Chop mid-way through the second record: the classic crash artifact.
  const std::string torn = image.substr(0, image.size() - 5);
  const JournalScan scan = scan_journal(torn, "test");
  EXPECT_EQ(scan.recovered_records, 1u);
  EXPECT_EQ(scan.discarded_records, 1u);
  EXPECT_EQ(scan.records[0].seq, 1u);
  EXPECT_GT(scan.discarded_bytes, 0u);
}

TEST_F(JournalTest, BitFlipEndsPrefixAndCountsOrphans) {
  const auto image =
      image_of({make_record(1), make_record(2), make_record(3)});
  std::string flipped = image;
  // Flip one payload bit inside record 2 (skip header + record 1).
  const std::size_t r1_end =
      scan_journal(image_of({make_record(1)}), "t").valid_bytes;
  flipped[r1_end + 12] = static_cast<char>(flipped[r1_end + 12] ^ 0x40);
  const JournalScan scan = scan_journal(flipped, "test");
  EXPECT_EQ(scan.recovered_records, 1u);
  // Record 2 (corrupt) and record 3 (orphaned past the break) both count.
  EXPECT_EQ(scan.discarded_records, 2u);
  EXPECT_EQ(scan.valid_bytes, r1_end);
}

TEST_F(JournalTest, SequenceGapEndsPrefix) {
  const auto image = image_of({make_record(1), make_record(3)});  // 2 missing
  const JournalScan scan = scan_journal(image, "test");
  EXPECT_EQ(scan.recovered_records, 1u);
  EXPECT_EQ(scan.discarded_records, 1u);
}

TEST_F(JournalTest, GarbageHeaderDiscardsWholeFile) {
  const JournalScan scan = scan_journal("not a journal at all", "test");
  EXPECT_FALSE(scan.header_ok);
  EXPECT_EQ(scan.recovered_records, 0u);
  EXPECT_EQ(scan.valid_bytes, 0u);
}

TEST_F(JournalTest, WriterAppendsAndScanReadsBack) {
  {
    JournalWriter writer(path_, 0);
    writer.append(make_record(1));
    writer.append(make_record(2, JournalOp::Train, false));
  }
  const JournalScan scan = scan_journal(util::read_file(path_), path_);
  EXPECT_EQ(scan.recovered_records, 2u);
  EXPECT_EQ(scan.discarded_records, 0u);
}

TEST_F(JournalTest, WriterTruncatesCorruptTailOnReopen) {
  {
    JournalWriter writer(path_, 0);
    writer.append(make_record(1));
  }
  // Simulate a crash that left garbage after the valid prefix.
  std::string image = util::read_file(path_);
  const std::uint64_t valid = image.size();
  image += "torn-garbage";
  util::atomic_write_file(path_, image);

  const JournalScan scan = scan_journal(util::read_file(path_), path_);
  EXPECT_EQ(scan.recovered_records, 1u);
  EXPECT_EQ(scan.discarded_records, 1u);
  {
    JournalWriter writer(path_, scan.valid_bytes);
    writer.append(make_record(2));
  }
  const JournalScan repaired = scan_journal(util::read_file(path_), path_);
  EXPECT_EQ(repaired.recovered_records, 2u);
  EXPECT_EQ(repaired.discarded_records, 0u);
  EXPECT_GT(repaired.valid_bytes, valid);
}

TEST_F(JournalTest, ResetTruncatesToBareHeader) {
  JournalWriter writer(path_, 0);
  writer.append(make_record(1));
  writer.reset();
  const std::string image = util::read_file(path_);
  EXPECT_EQ(image.size(), kJournalHeaderBytes);
  const JournalScan scan = scan_journal(image, path_);
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.recovered_records, 0u);
}

TEST_F(JournalTest, ArmedCrashLeavesTornRecordThatRecoveryDiscards) {
  JournalWriter writer(path_, 0);
  writer.append(make_record(1));
  // Crash at the "journal.append.partial" crossing (the first crossing is
  // the pre-write io_ok decision): half a frame hits the disk, exactly what
  // a power cut mid-write leaves.
  faults::storage_points_arm_crash(2);
  bool crashed = false;
  try {
    writer.append(make_record(2));
  } catch (const faults::SimulatedCrash& crash) {
    crashed = true;
    EXPECT_EQ(crash.site(), "journal.append.partial");
  }
  ASSERT_TRUE(crashed);
  faults::storage_points_reset();

  const JournalScan scan = scan_journal(util::read_file(path_), path_);
  EXPECT_EQ(scan.recovered_records, 1u);  // record 2 never became durable
  EXPECT_EQ(scan.discarded_records, 1u);
}

TEST_F(JournalTest, ArmedIoFailureSurfacesAsIoErrorBeforeWriting) {
  JournalWriter writer(path_, 0);
  writer.append(make_record(1));
  const std::string before = util::read_file(path_);
  faults::storage_points_arm_io_failure(1, 1);
  EXPECT_THROW(writer.append(make_record(2)), IoError);
  faults::storage_points_reset();
  // The failed append touched nothing: the medium is byte-identical.
  EXPECT_EQ(util::read_file(path_), before);
  // The next append (failure window passed) succeeds.
  writer.append(make_record(2));
  EXPECT_EQ(scan_journal(util::read_file(path_), path_).recovered_records,
            2u);
}

TEST_F(JournalTest, FsyncFailureAfterFullWriteRollsBackTheFrame) {
  JournalWriter writer(path_, 0);
  writer.append(make_record(1));
  const std::string before = util::read_file(path_);
  // Crossings per append: io_ok, partial, written, fsync io_ok, synced.
  // Failing the 4th leaves a fully written frame that fsync never made
  // durable — the writer must truncate it back out before the IoError
  // surfaces, or the next acked append lands past orphan bytes the prefix
  // scan then discards.
  faults::storage_points_arm_io_failure(4, 1);
  EXPECT_THROW(writer.append(make_record(2)), IoError);
  faults::storage_points_reset();
  EXPECT_EQ(util::read_file(path_), before);
  // The retried append lands exactly where the rolled-back one was: the
  // scan sees consecutive seqs and discards nothing.
  writer.append(make_record(2));
  const JournalScan scan = scan_journal(util::read_file(path_), path_);
  EXPECT_EQ(scan.recovered_records, 2u);
  EXPECT_EQ(scan.discarded_records, 0u);
  EXPECT_EQ(scan.records[1].seq, 2u);
}

TEST_F(JournalTest, StoragePointSitesTallyCrossings) {
  JournalWriter writer(path_, 0);
  writer.append(make_record(1));
  const auto sites = faults::storage_point_sites();
  ASSERT_FALSE(sites.empty());
  // Two io_ok decisions (pre-write + pre-fsync) + 3 append phases =
  // 5 crossings for one append.
  EXPECT_EQ(faults::storage_point_crossings(), 5u);
}

}  // namespace
}  // namespace amperebleed::persist
