#pragma once
// Typed binary codecs for the service's durable state (DESIGN.md §15):
// field codecs for ForestArena and the enrollment Dataset, composed into the
// one whole-file format, the per-tenant / whole-service snapshot. A snapshot
// keeps only what cannot be recomputed: the drift reference profile is
// rebuilt from the dataset on restore, and a profile block left by an older
// writer is validated and skipped. The service encodes it straight from
// its live tenants through borrowed TenantViews, into one buffer allocated
// at the file's exact size; decoding yields owned TenantStates that
// recovery moves into the restored tenants. The snapshot is a versioned,
// CRC-framed little-endian file built on persist/codec.hpp; decoding
// validates not just framing but structure (node indices in bounds,
// strictly increasing child links, matching array lengths), so even a
// CRC-valid but nonsensical file yields a DecodeError rather than an
// out-of-bounds arena walk.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "amperebleed/core/online.hpp"
#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/ml/forest_arena.hpp"
#include "amperebleed/persist/codec.hpp"

namespace amperebleed::persist {

/// Shared file magic ("ABPS" = AmpereBleed Persisted State).
inline constexpr std::uint32_t kFileMagic = section_tag("ABPS");
inline constexpr std::uint16_t kFormatVersion = 1;

/// Payload kinds (the u16 after the version in every file header); the
/// journal's kind is in journal.hpp.
inline constexpr std::uint16_t kKindSnapshot = 1;

// --- Field-level codecs (compose into larger payloads) ---------------------

void encode_arena(Encoder& enc, const ml::ForestArena& arena);
/// Decodes and structurally validates; the returned arena is safe to walk.
[[nodiscard]] ml::ForestArena decode_arena(Decoder& dec);

void encode_dataset(Encoder& enc, const ml::Dataset& data);
[[nodiscard]] ml::Dataset decode_dataset(Decoder& dec);

// --- Snapshot file ---------------------------------------------------------

/// One tenant session as plain data, decoupled from serve:: so the codec
/// layer has no dependency on the service (serve depends on persist): the
/// fingerprinter's restorable state plus the session's lifecycle fields.
/// Recovery moves the base into OnlineFingerprinter::restore whole.
struct TenantState : core::OnlineFingerprinter::RestoredState {
  std::string name;
  std::uint8_t state = 0;  // serve::TenantSession::State ordinal
  std::uint64_t enrolled = 0;
  std::uint64_t classified = 0;
};

/// Checkpoint of the whole service: every tenant in creation order, plus
/// the sequence number of the last journal record folded in. Recovery loads
/// this and replays only journal records with seq > last_seq.
struct ServiceSnapshot {
  std::uint64_t last_seq = 0;
  std::vector<TenantState> tenants;
};

/// One tenant borrowed for encoding: the live session's fields, read in
/// place. The pointed-to objects must outlive the encode call.
struct TenantView {
  std::string_view name;
  std::uint8_t state = 0;  // serve::TenantSession::State ordinal
  std::uint64_t enrolled = 0;
  std::uint64_t classified = 0;
  std::uint64_t feature_count = 0;
  const std::vector<std::string>* class_names = nullptr;  // never null
  const ml::Dataset* data = nullptr;                      // never null
  const ml::ForestArena* arena = nullptr;  // null unless trained
};

/// Views of `snap`'s tenants, in order.
[[nodiscard]] std::vector<TenantView> views_of(const ServiceSnapshot& snap);

/// The snapshot file of `tenants` as of journal seq `last_seq`.
[[nodiscard]] std::string encode_snapshot(
    std::uint64_t last_seq, std::span<const TenantView> tenants);
/// Exact byte size of encode_snapshot(last_seq, tenants), counted without
/// building the file.
[[nodiscard]] std::size_t snapshot_size(std::uint64_t last_seq,
                                        std::span<const TenantView> tenants);
/// encode_snapshot over views of `snap`'s tenants.
[[nodiscard]] std::string encode_snapshot(const ServiceSnapshot& snap);
[[nodiscard]] ServiceSnapshot decode_snapshot(std::string_view bytes,
                                              const std::string& context);

}  // namespace amperebleed::persist
