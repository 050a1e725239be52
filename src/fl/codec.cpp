#include "fl/codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "io/serialize.h"
#include "tensor/quant.h"
#include "tensor/rng.h"

namespace fedtiny::fl::codec {

namespace {

// v2 wire tags ("SRS2" / "SRU2" little-endian); v1 tags are "SRPS"/"SRPU",
// so the leading u32 doubles as the format version.
constexpr uint32_t kStateTagV2 = 0x32535253;
constexpr uint32_t kUpdateTagV2 = 0x32555253;

constexpr uint32_t kMaxRank = 8;
constexpr uint64_t kMaxTensors = 1u << 20;
constexpr int64_t kMaxTensorNumel = int64_t{1} << 33;

// Update-wire flag bits.
constexpr uint8_t kFlagDelta = 1;  // values are deltas vs the shared reference
constexpr uint8_t kFlagTopK = 2;   // only k support coordinates shipped

// Dense-remainder encodings (the per-tensor enc byte).
constexpr uint8_t kDenseRaw = 0;    // fp32 values
constexpr uint8_t kDenseQuant = 1;  // absolute per-chunk int8
constexpr uint8_t kDenseDelta = 2;  // per-chunk int8 of v - reference

// Dense remainder tensors (biases, BN affine + running stats) are small and
// precision-sensitive; quantize them *absolutely* only past this size, so
// on downlinks (and reference-free encodes) BN statistics stay fp32-exact.
// None of the models in-tree cross it.
constexpr int64_t kDenseQuantMin = 65536;
// Uplinks with a shared reference (the broadcast state both ends hold)
// quantize the *delta* instead: one round of drift is small relative to the
// values, so the chunk ranges — and the absolute error — stay tiny even for
// BN running stats. The floor only skips tensors where the 8 B/chunk params
// would outweigh the 3 B/value saving.
constexpr int64_t kDenseDeltaMin = 8;

// Index coding modes for state layers.
constexpr uint8_t kIndexBitmap = 0;
constexpr uint8_t kIndexVarint = 1;

// Varint index coding stores u32 gaps; layers at or above 2^32 elements
// (none exist in practice) always take the bitmap branch.
constexpr uint64_t kMaxVarintNumel = uint64_t{1} << 32;

void write_shape(io::ByteWriter& w, const std::vector<int64_t>& shape) {
  w.write_u32(static_cast<uint32_t>(shape.size()));
  for (int64_t d : shape) w.write_i64(d);
}

bool read_shape(io::ByteReader& r, std::vector<int64_t>& shape) {
  uint32_t rank = 0;
  if (!r.read_pod(rank) || rank > kMaxRank) return false;
  shape.resize(rank);
  int64_t numel = 1;
  for (auto& d : shape) {
    if (!r.read_pod(d) || d < 0 || d > kMaxTensorNumel) return false;
    if (d > 1 && numel > kMaxTensorNumel / d) return false;
    numel *= std::max<int64_t>(d, 1);
  }
  return true;
}

// ---- value blocks ----------------------------------------------------------
// Layout: ceil(n / chunk) x {f32 lo, f32 scale}, then the codes (n bytes for
// int8, ceil(n/2) for 4-bit, low nibble first). bits == 0 means raw fp32.

size_t packed_code_bytes(size_t n, int bits) {
  return bits == 4 ? quant::packed_u4_bytes(n) : n;
}

void fill_chunk_rand(uint64_t base, uint64_t layer, size_t n, size_t chunk,
                     std::vector<uint32_t>& rand) {
  rand.resize(n);
  const size_t chunks = quant::chunk_count(n, chunk);
  for (size_t c = 0; c < chunks; ++c) {
    Rng rng(derive_seed(base, layer, c));
    const size_t begin = c * chunk;
    const size_t len = std::min(chunk, n - begin);
    for (size_t i = 0; i < len; ++i) rand[begin + i] = rng.next_u32();
  }
}

void write_value_block(io::ByteWriter& w, const float* v, size_t n, int bits,
                       size_t chunk, uint64_t rand_base, uint64_t layer) {
  if (bits == 0) {
    w.write_array(std::span<const float>(v, n));
    return;
  }
  const size_t chunks = quant::chunk_count(n, chunk);
  std::vector<quant::ChunkParams> params(chunks);
  quant::compute_chunk_params(v, n, chunk, bits == 4 ? 15 : 255, params.data());
  w.write_array(std::span<const quant::ChunkParams>(params));
  std::vector<uint8_t> codes(packed_code_bytes(n, bits));
  if (bits == 4) {
    std::vector<uint32_t> rand;
    fill_chunk_rand(rand_base, layer, n, chunk, rand);
    quant::encode_u4(v, n, chunk, params.data(), rand.data(), codes.data());
  } else {
    quant::encode_u8(v, n, chunk, params.data(), codes.data());
  }
  w.write_array(std::span<const uint8_t>(codes));
}

bool read_value_block(io::ByteReader& r, size_t n, int bits, size_t chunk,
                      float* dst) {
  if (bits == 0) {
    if (n * sizeof(float) > r.remaining()) return false;
    return r.read_array(std::span<float>(dst, n));
  }
  const size_t chunks = quant::chunk_count(n, chunk);
  if (chunks * sizeof(quant::ChunkParams) > r.remaining()) return false;
  std::vector<quant::ChunkParams> params(chunks);
  if (!r.read_array(std::span<quant::ChunkParams>(params))) return false;
  const size_t code_bytes = packed_code_bytes(n, bits);
  if (code_bytes > r.remaining()) return false;
  std::vector<uint8_t> codes(code_bytes);
  if (!r.read_array(std::span<uint8_t>(codes))) return false;
  if (bits == 4) {
    quant::decode_u4(codes.data(), n, chunk, params.data(), dst);
  } else {
    quant::decode_u8(codes.data(), n, chunk, params.data(), dst);
  }
  return true;
}

// Quantization noise on a decode round-trip, used by the encoder to update
// the error-feedback residual without re-reading its own wire.
void decode_value_block_inline(const float* v, size_t n, int bits,
                               size_t chunk, uint64_t rand_base,
                               uint64_t layer, float* dst) {
  const size_t chunks = quant::chunk_count(n, chunk);
  std::vector<quant::ChunkParams> params(chunks);
  quant::compute_chunk_params(v, n, chunk, bits == 4 ? 15 : 255, params.data());
  std::vector<uint8_t> codes(packed_code_bytes(n, bits));
  if (bits == 4) {
    std::vector<uint32_t> rand;
    fill_chunk_rand(rand_base, layer, n, chunk, rand);
    quant::encode_u4(v, n, chunk, params.data(), rand.data(), codes.data());
    quant::decode_u4(codes.data(), n, chunk, params.data(), dst);
  } else {
    quant::encode_u8(v, n, chunk, params.data(), codes.data());
    quant::decode_u8(codes.data(), n, chunk, params.data(), dst);
  }
}

// ---- dense remainder -------------------------------------------------------

// `quant_min` is the absolute-quantization floor (kDenseQuantMin for
// states, kDenseDeltaMin for updates so size estimates without a reference
// match the delta-coded real wire); `ref` (flat values of the broadcast
// tensor, or nullptr) enables the delta encoding.
void write_dense_tensor(io::ByteWriter& w, const Tensor& t, bool may_quant,
                        int64_t quant_min, const std::vector<float>* ref) {
  write_shape(w, t.shape());
  const auto v = t.flat();
  uint8_t enc = kDenseRaw;
  if (may_quant && ref != nullptr && ref->size() == v.size() &&
      t.numel() >= kDenseDeltaMin) {
    enc = kDenseDelta;
  } else if (may_quant && t.numel() >= quant_min) {
    enc = kDenseQuant;
  }
  w.write_pod(enc);
  if (enc == kDenseRaw) {
    w.write_array(std::span<const float>(v.data(), v.size()));
  } else if (enc == kDenseDelta) {
    std::vector<float> d(v.begin(), v.end());
    for (size_t i = 0; i < d.size(); ++i) d[i] -= (*ref)[i];
    write_value_block(w, d.data(), d.size(), 8, 256, 0, 0);
  } else {
    write_value_block(w, v.data(), v.size(), 8, 256, 0, 0);
  }
}

bool read_dense_tensor(io::ByteReader& r, Tensor& t,
                       const std::vector<float>* ref) {
  std::vector<int64_t> shape;
  if (!read_shape(r, shape)) return false;
  uint8_t enc = 0;
  if (!r.read_pod(enc) || enc > kDenseDelta) return false;
  const auto numel = static_cast<uint64_t>(Tensor::compute_numel(shape));
  // Cheapest-possible encoding of `numel` values must still fit: header
  // fields are untrusted, so never allocate beyond what the buffer backs.
  if (numel / 2 > r.remaining()) return false;
  if (enc == kDenseDelta &&
      (ref == nullptr || ref->size() != numel)) {
    return false;  // delta-coded wire needs the shared broadcast tensor
  }
  t = Tensor(std::move(shape));
  auto dst = t.flat();
  if (enc == kDenseRaw) {
    return read_value_block(r, dst.size(), 0, 256, dst.data());
  }
  if (!read_value_block(r, dst.size(), 8, 256, dst.data())) return false;
  if (enc == kDenseDelta) {
    for (size_t i = 0; i < dst.size(); ++i) dst[i] += (*ref)[i];
  }
  return true;
}

// ---- support index coding --------------------------------------------------

std::vector<uint32_t> delta_gaps(const std::vector<uint32_t>& indices) {
  std::vector<uint32_t> gaps(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    gaps[i] = i == 0 ? indices[0] : indices[i] - indices[i - 1] - 1;
  }
  return gaps;
}

bool undelta_gaps(const std::vector<uint32_t>& gaps, uint64_t limit,
                  std::vector<uint64_t>& indices) {
  indices.resize(gaps.size());
  uint64_t prev = 0;
  for (size_t i = 0; i < gaps.size(); ++i) {
    const uint64_t idx = i == 0 ? gaps[0] : prev + gaps[i] + 1;
    if (idx >= limit) return false;
    indices[i] = idx;
    prev = idx;
  }
  return true;
}

std::vector<uint32_t> mask_indices(const std::vector<uint64_t>& bits,
                                   uint64_t numel) {
  std::vector<uint32_t> indices;
  for (uint64_t j = 0; j < numel; ++j) {
    if ((bits[j / 64] >> (j % 64)) & 1u) {
      indices.push_back(static_cast<uint32_t>(j));
    }
  }
  return indices;
}

// A reference covers the sparse layers (support-length value vectors) and
// may extend over the dense remainder too (flat values per dense tensor, in
// payload order) — round_reference ships both, size estimates ship neither.
bool reference_fits(const SupportValues* reference,
                    const SparseUpdatePayload& payload) {
  if (reference == nullptr) return false;
  const size_t sparse = payload.sparse_layers.size();
  if (reference->size() != sparse &&
      reference->size() != sparse + payload.dense_tensors.size()) {
    return false;
  }
  for (size_t l = 0; l < sparse; ++l) {
    if ((*reference)[l].size() != payload.sparse_layers[l].values.size()) {
      return false;
    }
  }
  for (size_t i = sparse; i < reference->size(); ++i) {
    if ((*reference)[i].size() !=
        static_cast<size_t>(payload.dense_tensors[i - sparse].numel())) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* name(Codec c) {
  switch (c) {
    case Codec::kNone: return "none";
    case Codec::kInt8: return "int8";
    case Codec::kQ4: return "q4";
    case Codec::kTopK: return "topk8";
  }
  return "none";
}

CodecConfig config_from_name(const std::string& spelling) {
  CodecConfig cfg;
  if (spelling == "none" || spelling.empty()) {
    cfg.codec = Codec::kNone;
  } else if (spelling == "int8") {
    cfg.codec = Codec::kInt8;
  } else if (spelling == "q4") {
    cfg.codec = Codec::kQ4;
  } else if (spelling == "topk" || spelling == "topk8") {
    cfg.codec = Codec::kTopK;
    cfg.quant_bits = 8;
  } else if (spelling == "topk4") {
    cfg.codec = Codec::kTopK;
    cfg.quant_bits = 4;
  } else {
    throw std::invalid_argument("unknown codec '" + spelling + "' (expected " + kCodecNames +
                                ")");
  }
  return cfg;
}

EfState& EfResidualStore::acquire(uint64_t client) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = states_[client];
  if (!slot) slot = std::make_unique<EfState>();
  return *slot;
}

void EfResidualStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  states_.clear();
}

size_t EfResidualStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return states_.size();
}

bool is_v2_wire(std::span<const uint8_t> bytes) {
  if (bytes.size() < sizeof(uint32_t)) return false;
  uint32_t tag = 0;
  std::memcpy(&tag, bytes.data(), sizeof(tag));
  return tag == kStateTagV2 || tag == kUpdateTagV2;
}

std::vector<uint8_t> encode_state(const SparseStatePayload& payload,
                                  const CodecConfig& cfg, uint64_t seed,
                                  int round) {
  // State payloads are absolute values with no shared reference, so 4-bit
  // codes are too destructive: quantized downlinks always use int8.
  const int bits = cfg.enabled() && cfg.quantize_downlink ? 8 : 0;
  const size_t chunk = static_cast<size_t>(std::max(cfg.chunk, 1));
  const uint64_t rand_base =
      derive_seed(seed, static_cast<uint64_t>(round), kBroadcastClient);

  io::ByteWriter w;
  w.write_u32(kStateTagV2);
  w.write_pod(static_cast<uint8_t>(bits));
  w.write_pod(static_cast<uint8_t>(0));  // reserved flags
  w.write_pod(static_cast<uint16_t>(chunk));
  w.write_u32(static_cast<uint32_t>(payload.sparse_layers.size()));
  w.write_u32(static_cast<uint32_t>(payload.dense_tensors.size()));

  std::vector<uint8_t> svb;
  for (size_t l = 0; l < payload.sparse_layers.size(); ++l) {
    const auto& layer = payload.sparse_layers[l];
    write_shape(w, layer.shape);
    const auto numel = static_cast<uint64_t>(layer.numel());

    // Per-layer index coding, chosen by measured size: raw bitmap words vs
    // delta+varint support indices (8-byte count + 4-byte length + stream).
    const size_t bitmap_bytes = ((numel + 63) / 64) * sizeof(uint64_t);
    size_t svb_bytes = 0;
    bool use_varint = false;
    if (numel < kMaxVarintNumel) {
      const auto indices = mask_indices(layer.mask_bits, numel);
      const auto gaps = delta_gaps(indices);
      svb.resize(quant::svb_max_bytes(gaps.size()));
      svb_bytes = quant::svb_encode(gaps.data(), gaps.size(), svb.data());
      use_varint = sizeof(uint64_t) + sizeof(uint32_t) + svb_bytes < bitmap_bytes;
    }
    if (use_varint) {
      w.write_pod(kIndexVarint);
      w.write_u64(layer.values.size());
      w.write_u32(static_cast<uint32_t>(svb_bytes));
      w.write_bytes(std::span<const uint8_t>(svb.data(), svb_bytes));
    } else {
      w.write_pod(kIndexBitmap);
      w.write_array(std::span<const uint64_t>(layer.mask_bits));
    }
    w.write_u64(layer.values.size());
    write_value_block(w, layer.values.data(), layer.values.size(), bits,
                      chunk, rand_base, l);
  }
  for (const auto& t : payload.dense_tensors) {
    write_dense_tensor(w, t, cfg.enabled() && cfg.quantize_downlink,
                       kDenseQuantMin, nullptr);
  }
  return w.take();
}

bool decode_state(std::span<const uint8_t> bytes, SparseStatePayload& out) {
  io::ByteReader r(bytes);
  uint32_t tag = 0, sparse_count = 0, dense_count = 0;
  uint8_t bits = 0, flags = 0;
  uint16_t chunk16 = 0;
  if (!r.read_pod(tag) || tag != kStateTagV2) return false;
  if (!r.read_pod(bits) || (bits != 0 && bits != 4 && bits != 8)) return false;
  if (!r.read_pod(flags) || flags != 0) return false;
  if (!r.read_pod(chunk16) || chunk16 == 0) return false;
  if (!r.read_pod(sparse_count) || !r.read_pod(dense_count)) return false;
  if (sparse_count > kMaxTensors || dense_count > kMaxTensors) return false;
  if (static_cast<uint64_t>(sparse_count) + dense_count >
      r.remaining() / sizeof(uint32_t)) {
    return false;
  }
  const size_t chunk = chunk16;

  out.sparse_layers.assign(sparse_count, {});
  out.dense_tensors.assign(dense_count, {});
  for (auto& layer : out.sparse_layers) {
    if (!read_shape(r, layer.shape)) return false;
    const auto numel = static_cast<uint64_t>(layer.numel());
    const auto words = (numel + 63) / 64;
    uint8_t index_mode = 0;
    if (!r.read_pod(index_mode) || index_mode > kIndexVarint) return false;
    uint64_t kept = 0;
    if (index_mode == kIndexBitmap) {
      if (words * sizeof(uint64_t) > r.remaining()) return false;
      layer.mask_bits.resize(words);
      if (!r.read_array(std::span<uint64_t>(layer.mask_bits))) return false;
      if (const uint64_t tail = numel % 64; tail != 0 && !layer.mask_bits.empty()) {
        layer.mask_bits.back() &= (uint64_t{1} << tail) - 1;
      }
      for (uint64_t word : layer.mask_bits) {
        kept += static_cast<uint64_t>(std::popcount(word));
      }
    } else {
      uint64_t nnz = 0;
      uint32_t nbytes = 0;
      if (!r.read_pod(nnz) || nnz > numel) return false;
      if (!r.read_pod(nbytes) || nbytes > r.remaining()) return false;
      std::vector<uint8_t> buf(nbytes);
      if (!r.read_array(std::span<uint8_t>(buf))) return false;
      std::vector<uint32_t> gaps(nnz);
      if (!quant::svb_decode(buf.data(), buf.size(), gaps.data(), nnz)) {
        return false;
      }
      std::vector<uint64_t> indices;
      if (!undelta_gaps(gaps, numel, indices)) return false;
      layer.mask_bits.assign(words, 0);
      for (uint64_t idx : indices) {
        layer.mask_bits[idx / 64] |= uint64_t{1} << (idx % 64);
      }
      kept = nnz;
    }
    uint64_t value_count = 0;
    if (!r.read_pod(value_count) || value_count != kept) return false;
    // Cheapest encoding of value_count values (4-bit codes) must still fit.
    if (value_count / 2 > r.remaining()) return false;
    layer.values.resize(value_count);
    if (!read_value_block(r, value_count, bits, chunk, layer.values.data())) {
      return false;
    }
  }
  for (auto& t : out.dense_tensors) {
    if (!read_dense_tensor(r, t, nullptr)) return false;
  }
  return r.ok() && r.remaining() == 0;
}

std::vector<uint8_t> encode_update(const SparseUpdatePayload& payload,
                                   const CodecConfig& cfg, uint64_t seed,
                                   int round, uint64_t client,
                                   const SupportValues* reference,
                                   EfState* ef) {
  const bool topk = cfg.codec == Codec::kTopK;
  const int bits = cfg.codec == Codec::kQ4 ? 4
                   : topk                  ? (cfg.quant_bits == 4 ? 4 : 8)
                                           : 8;
  const size_t chunk = static_cast<size_t>(std::max(cfg.chunk, 1));
  const bool use_ref = reference_fits(reference, payload);
  const uint64_t rand_base =
      derive_seed(seed, static_cast<uint64_t>(round), client);

  io::ByteWriter w;
  w.reserve(64);
  w.write_u32(kUpdateTagV2);
  w.write_pod(static_cast<uint8_t>(bits));
  w.write_pod(static_cast<uint8_t>((use_ref ? kFlagDelta : 0) |
                                   (topk ? kFlagTopK : 0)));
  w.write_pod(static_cast<uint16_t>(chunk));
  w.write_u32(static_cast<uint32_t>(payload.sparse_layers.size()));
  w.write_u32(static_cast<uint32_t>(payload.dense_tensors.size()));
  w.write_i64(payload.num_samples);

  std::vector<float> d;
  std::vector<uint8_t> svb;
  for (size_t l = 0; l < payload.sparse_layers.size(); ++l) {
    const auto& layer = payload.sparse_layers[l];
    const size_t n = layer.values.size();
    write_shape(w, layer.shape);
    w.write_u64(n);

    // Delta vs the shared broadcast reference: the chunk ranges then cover
    // one round of local drift instead of the full weight magnitude.
    d.assign(layer.values.begin(), layer.values.end());
    if (use_ref) {
      const auto& ref = (*reference)[l];
      for (size_t i = 0; i < n; ++i) d[i] -= ref[i];
    }

    if (!topk) {
      write_value_block(w, d.data(), n, bits, chunk, rand_base, l);
      continue;
    }

    // Top-k with error feedback: unsent coordinates accumulate in the
    // client residual and are retried next round.
    std::vector<float>* res = nullptr;
    if (ef != nullptr) {
      if (ef->residual.size() != payload.sparse_layers.size()) {
        ef->residual.assign(payload.sparse_layers.size(), {});
      }
      res = &ef->residual[l];
      if (res->size() != n) res->assign(n, 0.0f);  // mask surgery: reset
      for (size_t i = 0; i < n; ++i) d[i] += (*res)[i];
    }
    const size_t k =
        n == 0 ? 0
               : std::min<size_t>(
                     n, std::max<size_t>(
                            1, static_cast<size_t>(std::llround(
                                   cfg.topk_frac * static_cast<double>(n)))));
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                      order.end(), [&](uint32_t a, uint32_t b) {
                        const float fa = std::fabs(d[a]);
                        const float fb = std::fabs(d[b]);
                        return fa != fb ? fa > fb : a < b;
                      });
    std::vector<uint32_t> sel(order.begin(), order.begin() + static_cast<long>(k));
    std::sort(sel.begin(), sel.end());
    std::vector<float> d_sel(k);
    for (size_t j = 0; j < k; ++j) d_sel[j] = d[sel[j]];

    const auto gaps = delta_gaps(sel);
    svb.resize(quant::svb_max_bytes(gaps.size()));
    const size_t svb_bytes = quant::svb_encode(gaps.data(), gaps.size(), svb.data());
    w.write_u32(static_cast<uint32_t>(k));
    w.write_u32(static_cast<uint32_t>(svb_bytes));
    w.write_bytes(std::span<const uint8_t>(svb.data(), svb_bytes));
    write_value_block(w, d_sel.data(), k, bits, chunk, rand_base, l);

    if (res != nullptr) {
      // e' = d on unsent coordinates, d - dequant(d) on sent ones.
      std::vector<float> sent(k);
      decode_value_block_inline(d_sel.data(), k, bits, chunk, rand_base, l,
                                sent.data());
      *res = d;
      for (size_t j = 0; j < k; ++j) (*res)[sel[j]] = d_sel[j] - sent[j];
    }
  }
  const bool dense_ref =
      use_ref && reference->size() ==
                     payload.sparse_layers.size() + payload.dense_tensors.size();
  for (size_t i = 0; i < payload.dense_tensors.size(); ++i) {
    write_dense_tensor(
        w, payload.dense_tensors[i], cfg.enabled(), kDenseDeltaMin,
        dense_ref ? &(*reference)[payload.sparse_layers.size() + i] : nullptr);
  }
  return w.take();
}

bool decode_update(std::span<const uint8_t> bytes, SparseUpdatePayload& out,
                   const SupportValues* reference) {
  io::ByteReader r(bytes);
  uint32_t tag = 0, sparse_count = 0, dense_count = 0;
  uint8_t bits = 0, flags = 0;
  uint16_t chunk16 = 0;
  if (!r.read_pod(tag) || tag != kUpdateTagV2) return false;
  if (!r.read_pod(bits) || (bits != 4 && bits != 8)) return false;
  if (!r.read_pod(flags) || (flags & ~(kFlagDelta | kFlagTopK)) != 0) return false;
  if (!r.read_pod(chunk16) || chunk16 == 0) return false;
  if (!r.read_pod(sparse_count) || !r.read_pod(dense_count)) return false;
  if (sparse_count > kMaxTensors || dense_count > kMaxTensors) return false;
  if (!r.read_pod(out.num_samples) || out.num_samples < 0) return false;
  if (static_cast<uint64_t>(sparse_count) + dense_count >
      r.remaining() / sizeof(uint32_t)) {
    return false;
  }
  const size_t chunk = chunk16;
  const bool use_ref = (flags & kFlagDelta) != 0;
  const bool topk = (flags & kFlagTopK) != 0;
  if (use_ref && (reference == nullptr ||
                  (reference->size() != sparse_count &&
                   reference->size() !=
                       static_cast<uint64_t>(sparse_count) + dense_count))) {
    return false;
  }
  const bool dense_ref =
      use_ref && reference->size() ==
                     static_cast<uint64_t>(sparse_count) + dense_count;

  out.sparse_layers.assign(sparse_count, {});
  out.dense_tensors.assign(dense_count, {});
  for (size_t l = 0; l < out.sparse_layers.size(); ++l) {
    auto& layer = out.sparse_layers[l];
    if (!read_shape(r, layer.shape)) return false;
    uint64_t n = 0;
    if (!r.read_pod(n) ||
        n > static_cast<uint64_t>(Tensor::compute_numel(layer.shape))) {
      return false;
    }
    if (use_ref && (*reference)[l].size() != n) return false;
    if (n / 2 > r.remaining()) return false;  // cheapest possible encoding
    layer.values.assign(n, 0.0f);
    if (use_ref) {
      const auto& ref = (*reference)[l];
      std::copy(ref.begin(), ref.end(), layer.values.begin());
    }
    if (topk) {
      uint32_t k = 0, nbytes = 0;
      if (!r.read_pod(k) || k > n) return false;
      if (!r.read_pod(nbytes) || nbytes > r.remaining()) return false;
      std::vector<uint8_t> buf(nbytes);
      if (!r.read_array(std::span<uint8_t>(buf))) return false;
      std::vector<uint32_t> gaps(k);
      if (!quant::svb_decode(buf.data(), buf.size(), gaps.data(), k)) {
        return false;
      }
      std::vector<uint64_t> sel;
      if (!undelta_gaps(gaps, n, sel)) return false;
      std::vector<float> d(k);
      if (!read_value_block(r, k, bits, chunk, d.data())) return false;
      for (size_t j = 0; j < k; ++j) {
        if (use_ref) {
          layer.values[sel[j]] += d[j];
        } else {
          layer.values[sel[j]] = d[j];
        }
      }
    } else {
      std::vector<float> d(n);
      if (!read_value_block(r, n, bits, chunk, d.data())) return false;
      for (uint64_t i = 0; i < n; ++i) layer.values[i] += d[i];
    }
  }
  for (size_t i = 0; i < out.dense_tensors.size(); ++i) {
    if (!read_dense_tensor(r, out.dense_tensors[i],
                           dense_ref ? &(*reference)[sparse_count + i]
                                     : nullptr)) {
      return false;
    }
  }
  return r.ok() && r.remaining() == 0;
}

}  // namespace fedtiny::fl::codec
