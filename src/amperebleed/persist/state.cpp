#include "amperebleed/persist/state.hpp"

#include <cmath>

namespace amperebleed::persist {

namespace {

constexpr std::uint32_t kTagMeta = section_tag("META");
constexpr std::uint32_t kTagTenant = section_tag("TENT");

/// Snapshots written before the drift reference was rebuilt on restore
/// carry it after the forest: rows, class priors, then per dimension a
/// sketch (lo, hi, bin counts, n, sum, sum of squares, min, max) and a value
/// subsample. The block is checked as strictly as when it was decoded and
/// then dropped, so those files still recover.
void skip_legacy_profile(Decoder& dec) {
  (void)dec.u64();
  (void)dec.u64_vec();
  const std::uint64_t dims = dec.u64();
  if (dims > dec.remaining()) dec.fail("implausible profile dimension count");
  for (std::uint64_t d = 0; d < dims; ++d) {
    (void)dec.f64();
    (void)dec.f64();
    if (dec.u64_vec().empty()) dec.fail("sketch with zero bins");
    (void)dec.u64();
    for (int moment = 0; moment < 4; ++moment) (void)dec.f64();
    (void)dec.f64_vec();
  }
}

void encode_tenant(Encoder& enc, const TenantView& tenant) {
  enc.str(tenant.name);
  enc.u8(tenant.state);
  enc.u64(tenant.enrolled);
  enc.u64(tenant.classified);
  enc.u64(tenant.feature_count);
  enc.u64(tenant.class_names->size());
  for (const std::string& name : *tenant.class_names) enc.str(name);
  encode_dataset(enc, *tenant.data);
  enc.u8(tenant.arena != nullptr ? 1 : 0);
  if (tenant.arena != nullptr) encode_arena(enc, *tenant.arena);
  enc.u8(0);  // no drift profile: restore rebuilds it from the dataset
}

/// Every section of the snapshot file, into `file` (which may count).
void write_snapshot_sections(FileWriter& file, std::uint64_t last_seq,
                             std::span<const TenantView> tenants) {
  Encoder& meta = file.begin_section(kTagMeta);
  meta.u64(last_seq);
  meta.u64(tenants.size());
  file.end_section();
  for (const TenantView& tenant : tenants) {
    encode_tenant(file.begin_section(kTagTenant), tenant);
    file.end_section();
  }
}

TenantState decode_tenant(Decoder& dec) {
  TenantState tenant;
  tenant.name = dec.str();
  tenant.state = dec.u8();
  if (tenant.state > 2) {
    dec.fail("invalid tenant state " + std::to_string(tenant.state));
  }
  tenant.enrolled = dec.u64();
  tenant.classified = dec.u64();
  tenant.feature_count = dec.u64();
  const std::uint64_t classes = dec.u64();
  if (classes > dec.remaining()) dec.fail("implausible class count");
  tenant.class_names.reserve(classes);
  for (std::uint64_t c = 0; c < classes; ++c) {
    tenant.class_names.push_back(dec.str());
  }
  tenant.data = decode_dataset(dec);
  if (tenant.data.feature_count() != tenant.feature_count &&
      !tenant.data.empty()) {
    dec.fail("dataset width disagrees with tenant feature width");
  }
  tenant.trained = dec.u8() != 0;
  if (tenant.trained) {
    tenant.arena = decode_arena(dec);
    if (tenant.arena.empty()) dec.fail("trained tenant with empty forest");
  }
  if (dec.u8() != 0) skip_legacy_profile(dec);
  return tenant;
}

}  // namespace

// ---------------------------------------------------------------------------
// ForestArena.

void encode_arena(Encoder& enc, const ml::ForestArena& arena) {
  enc.i32(arena.class_count);
  enc.i32_vec(arena.feature);
  enc.f64_vec(arena.threshold);
  enc.i32_vec(arena.right);
  enc.f64_vec(arena.dists);
  enc.i32_vec(arena.roots);
}

ml::ForestArena decode_arena(Decoder& dec) {
  ml::ForestArena arena;
  arena.class_count = dec.i32();
  arena.feature = dec.i32_vec();
  arena.threshold = dec.f64_vec();
  arena.right = dec.i32_vec();
  arena.dists = dec.f64_vec();
  arena.roots = dec.i32_vec();

  // Structural validation: everything leaf_dist() dereferences must be in
  // bounds, and child links must strictly increase so traversal terminates.
  const std::size_t nodes = arena.feature.size();
  if (arena.threshold.size() != nodes || arena.right.size() != nodes) {
    dec.fail("arena arrays disagree on node count");
  }
  if (nodes == 0) {
    if (!arena.roots.empty() || !arena.dists.empty()) {
      dec.fail("empty arena with roots or leaf distributions");
    }
    return arena;
  }
  if (arena.class_count <= 0) {
    dec.fail("arena class_count " + std::to_string(arena.class_count));
  }
  const std::size_t classes = static_cast<std::size_t>(arena.class_count);
  if (arena.dists.size() % classes != 0 || arena.dists.empty()) {
    dec.fail("leaf distribution array not a multiple of class_count");
  }
  if (arena.roots.empty()) dec.fail("arena with nodes but no trees");
  for (const std::int32_t root : arena.roots) {
    if (root < 0 || static_cast<std::size_t>(root) >= nodes) {
      dec.fail("tree root out of bounds");
    }
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    if (arena.feature[i] == ml::ForestArena::kLeaf) {
      const std::int32_t off = arena.right[i];
      if (off < 0 ||
          static_cast<std::size_t>(off) + classes > arena.dists.size()) {
        dec.fail("leaf distribution offset out of bounds at node " +
                 std::to_string(i));
      }
    } else if (arena.feature[i] < 0) {
      dec.fail("invalid split feature at node " + std::to_string(i));
    } else {
      // Internal node: left child is i + 1 (must exist), right child must
      // point strictly past the node so every walk makes forward progress.
      const std::int32_t right = arena.right[i];
      if (i + 1 >= nodes || right <= static_cast<std::int32_t>(i) ||
          static_cast<std::size_t>(right) >= nodes) {
        dec.fail("child link out of bounds at node " + std::to_string(i));
      }
    }
  }
  return arena;
}

// ---------------------------------------------------------------------------
// Dataset.

void encode_dataset(Encoder& enc, const ml::Dataset& data) {
  enc.u64(data.feature_count());
  enc.i32_vec(data.labels());
  enc.u64(data.size() * data.feature_count());
  for (std::size_t r = 0; r < data.size(); ++r) enc.f64_raw(data.row(r));
}

ml::Dataset decode_dataset(Decoder& dec) {
  const std::uint64_t features = dec.u64();
  const std::vector<std::int32_t> labels = dec.i32_vec();
  const std::vector<double> values = dec.f64_vec();
  // Overflow-safe shape check: division instead of rows * features.
  const bool shape_ok =
      labels.empty() ? values.empty()
                     : features != 0 && values.size() % labels.size() == 0 &&
                           values.size() / labels.size() == features;
  if (!shape_ok) {
    dec.fail("dataset value array disagrees with rows x features");
  }
  for (const std::int32_t label : labels) {
    if (label < 0) dec.fail("negative class label");
  }
  for (const double v : values) {
    if (!std::isfinite(v)) dec.fail("non-finite feature value");
  }
  ml::Dataset data(features);
  data.reserve(labels.size());
  for (std::size_t r = 0; r < labels.size(); ++r) {
    data.add(std::span<const double>(values.data() + r * features, features),
             labels[r]);
  }
  return data;
}

// ---------------------------------------------------------------------------
// Snapshot file.

std::vector<TenantView> views_of(const ServiceSnapshot& snap) {
  std::vector<TenantView> views;
  views.reserve(snap.tenants.size());
  for (const TenantState& tenant : snap.tenants) {
    TenantView& view = views.emplace_back();
    view.name = tenant.name;
    view.state = tenant.state;
    view.enrolled = tenant.enrolled;
    view.classified = tenant.classified;
    view.feature_count = tenant.feature_count;
    view.class_names = &tenant.class_names;
    view.data = &tenant.data;
    if (tenant.trained) view.arena = &tenant.arena;
  }
  return views;
}

std::size_t snapshot_size(std::uint64_t last_seq,
                          std::span<const TenantView> tenants) {
  FileWriter counter(kFileMagic, kFormatVersion, kKindSnapshot,
                     Encoder::counting());
  write_snapshot_sections(counter, last_seq, tenants);
  return counter.size();
}

std::string encode_snapshot(std::uint64_t last_seq,
                            std::span<const TenantView> tenants) {
  // Sized once up front: a file buffer that grows by doubling would hold up
  // to three times the snapshot in flight while it copies.
  FileWriter file(kFileMagic, kFormatVersion, kKindSnapshot,
                  Encoder(snapshot_size(last_seq, tenants)));
  write_snapshot_sections(file, last_seq, tenants);
  return file.take();
}

std::string encode_snapshot(const ServiceSnapshot& snap) {
  return encode_snapshot(snap.last_seq, views_of(snap));
}

ServiceSnapshot decode_snapshot(std::string_view bytes,
                                const std::string& context) {
  FileReader file(bytes, kFileMagic, kFormatVersion, kKindSnapshot, context);
  ServiceSnapshot snap;
  {
    Decoder meta(file.section(kTagMeta), context + "/META");
    snap.last_seq = meta.u64();
    const std::uint64_t tenants = meta.u64();
    meta.expect_end();
    if (tenants > bytes.size()) {
      meta.fail("implausible tenant count " + std::to_string(tenants));
    }
    snap.tenants.reserve(tenants);
    for (std::uint64_t t = 0; t < tenants; ++t) {
      Decoder body(file.section(kTagTenant),
                   context + "/TENT[" + std::to_string(t) + "]");
      snap.tenants.push_back(decode_tenant(body));
      body.expect_end();
    }
  }
  file.expect_end();
  return snap;
}

}  // namespace amperebleed::persist
