// Payload codec stack: the v2 wire format for sparse-exchange rounds.
//
// Layers on top of fl/payload.*:
//   * value quantization — per-chunk affine int8 (round-half-up) or 4-bit
//     stochastic codes for the kept values, with the stochastic randomness
//     drawn from counter-based (seed, round, client, layer, chunk) streams
//     so the encoded bytes are a pure function of the counters at any
//     worker count;
//   * index compression — each state layer's mask ships as either the raw
//     bitmap or delta+varint (StreamVByte 4-lane) coded support indices,
//     whichever measures smaller for that layer;
//   * delta-vs-reference uplinks — when both ends share the broadcast
//     state at the round's support (they do: the server encoded it), the
//     uplink quantizes v - ref instead of v, which concentrates the chunk
//     ranges around the local update and cuts quantization error;
//   * optional top-k sparsification with client-side error-feedback
//     residuals: only the k largest-|delta| support coordinates ship,
//     the unsent remainder accumulates in the client's residual and is
//     retried next round.
//
// The v1 format (fl/payload.cpp) is untouched; fl::deserialize dispatches
// on the leading tag, so v2 wires and old FTSPRS01 checkpoints both load
// through the same entry points.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fl/config.h"
#include "fl/payload.h"

namespace fedtiny::fl::codec {

/// Client counter used when encoding the broadcast state (one encode shared
/// by the whole cohort) and for size estimates.
inline constexpr uint64_t kBroadcastClient = ~uint64_t{0};

/// Canonical CLI/env spelling of a codec ("none", "int8", "q4", "topk8").
const char* name(Codec c);

/// The spellings config_from_name accepts ("topk" is an alias of "topk8").
inline constexpr const char* kCodecNames = "none|int8|q4|topk8|topk4";

/// Parse a CLI/env codec spelling. Accepts the four canonical names plus
/// "topk4" (top-k with 4-bit values); throws std::invalid_argument on
/// anything else.
CodecConfig config_from_name(const std::string& spelling);

/// The shared reference for delta uplinks: per prunable layer, the decoded
/// broadcast state's values at the round mask's support (ascending index
/// order — the same layout build_sparse_update emits). May extend over the
/// dense remainder too (one flat value vector per dense tensor, in payload
/// order); when it does, dense uplink tensors are delta-coded as well,
/// which keeps BN running stats accurate at ~1 B/value.
using SupportValues = std::vector<std::vector<float>>;

/// One client's error-feedback residual, per prunable layer at support
/// length. Reset (zeroed) automatically when the support length changes
/// (mask surgery between rounds).
struct EfState {
  std::vector<std::vector<float>> residual;
};

/// Per-client residual store for the top-k codec. Follows the out-of-core
/// fleet-state pattern: entries are created on first touch and stay
/// O(support) each, so the store is O(participating clients x model), not
/// O(K x model). Thread-safe for distinct clients (the round loop never
/// trains the same client concurrently).
class EfResidualStore {
 public:
  EfState& acquire(uint64_t client);
  void clear();
  [[nodiscard]] size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::unique_ptr<EfState>> states_;
};

// ---- v2 wire ---------------------------------------------------------------

/// Encode a downlink/checkpoint state payload. Every layer's index coding
/// is chosen by measured size (bitmap vs delta+varint); values are raw
/// fp32 when cfg.quantize_downlink is off, otherwise int8 (q4 state
/// payloads also use int8 — absolute 4-bit state is too destructive).
std::vector<uint8_t> encode_state(const SparseStatePayload& payload,
                                  const CodecConfig& cfg, uint64_t seed,
                                  int round);

/// Decode a v2 state wire. Bitmaps are rebuilt from varint layers, so the
/// output is interchangeable with a v1 payload (payload_mask,
/// reconstruct_state, checkpointing all work unchanged). Returns false on
/// malformed input, never reads out of bounds.
bool decode_state(std::span<const uint8_t> bytes, SparseStatePayload& out);

/// Encode an uplink update payload. `reference` enables delta coding (and
/// is required for the top-k codec path to be useful); pass nullptr to
/// quantize absolute values (same wire size — used for size estimates).
/// `ef` carries the client's error-feedback residual for top-k; nullptr
/// disables error feedback for this encode (estimates, stateless callers).
std::vector<uint8_t> encode_update(const SparseUpdatePayload& payload,
                                   const CodecConfig& cfg, uint64_t seed,
                                   int round, uint64_t client,
                                   const SupportValues* reference,
                                   EfState* ef);

/// Decode a v2 update wire. Delta-coded wires (flag bit) need the same
/// `reference` the encoder used; decoding one without a reference fails.
/// Output layers carry full support-length values (top-k fills unsent
/// coordinates from the reference), so ShardedAccumulator::fold_sparse and
/// reconstruct_update consume them exactly like v1 payloads.
bool decode_update(std::span<const uint8_t> bytes, SparseUpdatePayload& out,
                   const SupportValues* reference);

/// True when `bytes` leads with a v2 tag (state or update).
bool is_v2_wire(std::span<const uint8_t> bytes);

}  // namespace fedtiny::fl::codec
