#include "amperebleed/persist/state.hpp"

#include <cmath>
#include <utility>

namespace amperebleed::persist {

namespace {

constexpr std::uint32_t kTagMeta = section_tag("META");
constexpr std::uint32_t kTagTenant = section_tag("TENT");
constexpr std::uint32_t kTagBody = section_tag("BODY");

void encode_sketch(Encoder& enc, const obs::StreamingSketch& sketch) {
  const obs::StreamingSketch::Raw raw = sketch.raw();
  enc.f64(raw.lo);
  enc.f64(raw.hi);
  enc.u64_vec(raw.counts);
  enc.u64(raw.n);
  enc.f64(raw.sum);
  enc.f64(raw.sum_sq);
  enc.f64(raw.min);
  enc.f64(raw.max);
}

obs::StreamingSketch decode_sketch(Decoder& dec) {
  obs::StreamingSketch::Raw raw;
  raw.lo = dec.f64();
  raw.hi = dec.f64();
  raw.counts = dec.u64_vec();
  raw.n = dec.u64();
  raw.sum = dec.f64();
  raw.sum_sq = dec.f64();
  raw.min = dec.f64();
  raw.max = dec.f64();
  if (raw.counts.empty()) dec.fail("sketch with zero bins");
  return obs::StreamingSketch::from_raw(std::move(raw));
}

void encode_tenant(Encoder& enc, const TenantState& tenant) {
  enc.str(tenant.name);
  enc.u8(tenant.state);
  enc.u64(tenant.enrolled);
  enc.u64(tenant.classified);
  enc.u64(tenant.feature_count);
  enc.u64(tenant.class_names.size());
  for (const std::string& name : tenant.class_names) enc.str(name);
  encode_dataset(enc, tenant.data);
  enc.u8(tenant.trained ? 1 : 0);
  if (tenant.trained) encode_arena(enc, tenant.arena);
  enc.u8(tenant.has_profile ? 1 : 0);
  if (tenant.has_profile) encode_profile(enc, tenant.profile);
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
  tenant.has_profile = dec.u8() != 0;
  if (tenant.has_profile) tenant.profile = decode_profile(dec);
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
  for (std::size_t r = 0; r < data.size(); ++r) {
    for (const double v : data.row(r)) enc.f64(v);
  }
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
// ReferenceProfile.

void encode_profile(Encoder& enc, const obs::ReferenceProfile& profile) {
  enc.u64(profile.rows);
  enc.u64_vec(profile.class_counts);
  enc.u64(profile.dims());
  for (std::size_t d = 0; d < profile.dims(); ++d) {
    encode_sketch(enc, profile.feature_sketches[d]);
    enc.f64_vec(profile.feature_samples[d]);
  }
}

obs::ReferenceProfile decode_profile(Decoder& dec) {
  obs::ReferenceProfile profile;
  profile.rows = dec.u64();
  profile.class_counts = dec.u64_vec();
  const std::uint64_t dims = dec.u64();
  if (dims > dec.remaining()) dec.fail("implausible profile dimension count");
  profile.feature_sketches.reserve(dims);
  profile.feature_samples.reserve(dims);
  for (std::uint64_t d = 0; d < dims; ++d) {
    profile.feature_sketches.push_back(decode_sketch(dec));
    profile.feature_samples.push_back(dec.f64_vec());
  }
  return profile;
}

// ---------------------------------------------------------------------------
// Whole files.

std::string encode_snapshot(const ServiceSnapshot& snap) {
  FileWriter file(kFileMagic, kFormatVersion, kKindSnapshot);
  Encoder meta;
  meta.u64(snap.last_seq);
  meta.u64(snap.tenants.size());
  file.section(kTagMeta, meta.buffer());
  for (const TenantState& tenant : snap.tenants) {
    Encoder body;
    encode_tenant(body, tenant);
    file.section(kTagTenant, body.buffer());
  }
  return file.take();
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

std::string encode_forest_file(const ml::ForestArena& arena) {
  FileWriter file(kFileMagic, kFormatVersion, kKindForest);
  Encoder body;
  encode_arena(body, arena);
  file.section(kTagBody, body.buffer());
  return file.take();
}

ml::ForestArena decode_forest_file(std::string_view bytes,
                                   const std::string& context) {
  FileReader file(bytes, kFileMagic, kFormatVersion, kKindForest, context);
  Decoder body(file.section(kTagBody), context + "/BODY");
  ml::ForestArena arena = decode_arena(body);
  body.expect_end();
  file.expect_end();
  return arena;
}

std::string encode_dataset_file(const ml::Dataset& data) {
  FileWriter file(kFileMagic, kFormatVersion, kKindDataset);
  Encoder body;
  encode_dataset(body, data);
  file.section(kTagBody, body.buffer());
  return file.take();
}

ml::Dataset decode_dataset_file(std::string_view bytes,
                                const std::string& context) {
  FileReader file(bytes, kFileMagic, kFormatVersion, kKindDataset, context);
  Decoder body(file.section(kTagBody), context + "/BODY");
  ml::Dataset data = decode_dataset(body);
  body.expect_end();
  file.expect_end();
  return data;
}

std::string encode_profile_file(const obs::ReferenceProfile& profile) {
  FileWriter file(kFileMagic, kFormatVersion, kKindProfile);
  Encoder body;
  encode_profile(body, profile);
  file.section(kTagBody, body.buffer());
  return file.take();
}

obs::ReferenceProfile decode_profile_file(std::string_view bytes,
                                          const std::string& context) {
  FileReader file(bytes, kFileMagic, kFormatVersion, kKindProfile, context);
  Decoder body(file.section(kTagBody), context + "/BODY");
  obs::ReferenceProfile profile = decode_profile(body);
  body.expect_end();
  file.expect_end();
  return profile;
}

}  // namespace amperebleed::persist
