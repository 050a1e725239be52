#include "tensor/quant.h"

#include <algorithm>
#include <array>
#include <cstring>

// Same dispatch idiom as kernels_fast.cpp: scalar loops compiled once per
// ISA via target_clones (the loops below auto-vectorize), plus an
// explicitly-SIMD SSSE3 shuffle decoder for the varint stream behind a
// runtime __builtin_cpu_supports check.
#if defined(__x86_64__) && defined(__ELF__) && defined(__has_attribute)
// ThreadSanitizer builds go without the clones: their ifunc resolvers run
// before the TSan runtime is up and crash the binary at load.
#if __has_attribute(target_clones) && !defined(__SANITIZE_THREAD__)
#define FEDTINY_QUANT_CLONES \
  __attribute__((target_clones("avx512f", "avx2", "default")))
#endif
#if __has_attribute(target)
#define FEDTINY_QUANT_HAVE_SSSE3 1
#include <immintrin.h>
#endif
#endif
#ifndef FEDTINY_QUANT_CLONES
#define FEDTINY_QUANT_CLONES
#endif

namespace fedtiny {
namespace quant {

namespace {

// ---- value quantization ----------------------------------------------

FEDTINY_QUANT_CLONES
void minmax_span(const float* src, std::size_t n, float* out_lo,
                 float* out_hi) {
  float lo = src[0];
  float hi = src[0];
  for (std::size_t i = 1; i < n; ++i) {
    lo = src[i] < lo ? src[i] : lo;
    hi = src[i] > hi ? src[i] : hi;
  }
  *out_lo = lo;
  *out_hi = hi;
}

// code = trunc(t + 0.5): round-half-up, chosen over nearbyint so the
// rounding is independent of the FP environment and identical in every
// clone (add + truncating convert in both scalar and vector code).
FEDTINY_QUANT_CLONES
void encode_u8_span(const float* src, std::size_t n, float lo, float inv,
                    std::uint8_t* codes) {
  for (std::size_t i = 0; i < n; ++i) {
    float t = (src[i] - lo) * inv;
    t = t < 0.0f ? 0.0f : t;
    t = t > 255.0f ? 255.0f : t;
    codes[i] = static_cast<std::uint8_t>(static_cast<int>(t + 0.5f));
  }
}

FEDTINY_QUANT_CLONES
void decode_u8_span(const std::uint8_t* codes, std::size_t n, float lo,
                    float scale, float* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = lo + static_cast<float>(codes[i]) * scale;
  }
}

FEDTINY_QUANT_CLONES
void decode_u4_span(const std::uint8_t* nibbles, std::size_t n, float lo,
                    float scale, float* dst) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = lo + static_cast<float>(nibbles[i]) * scale;
  }
}

// ---- varint (StreamVByte 4-lane layout) ------------------------------

inline std::uint8_t byte_len_u32(std::uint32_t v) {
  if (v < (1u << 8)) return 1;
  if (v < (1u << 16)) return 2;
  if (v < (1u << 24)) return 3;
  return 4;
}

#ifdef FEDTINY_QUANT_HAVE_SSSE3
// For each control byte: a 16-byte pshufb pattern gathering the four
// variable-length lanes into four u32 slots, and the total data length.
struct SvbTables {
  alignas(16) std::uint8_t shuffle[256][16];
  std::uint8_t len[256];
};

constexpr SvbTables make_svb_tables() {
  SvbTables t{};
  for (int c = 0; c < 256; ++c) {
    int off = 0;
    for (int lane = 0; lane < 4; ++lane) {
      const int len = ((c >> (2 * lane)) & 3) + 1;
      for (int b = 0; b < 4; ++b) {
        t.shuffle[c][lane * 4 + b] =
            b < len ? static_cast<std::uint8_t>(off + b) : 0xFF;
      }
      off += len;
    }
    t.len[c] = static_cast<std::uint8_t>(off);
  }
  return t;
}

constexpr SvbTables kSvb = make_svb_tables();

// Decodes full quads while at least 16 data bytes remain (the unaligned
// 16-byte load may overread past the current quad but never past
// data_end). Returns the number of quads decoded and advances *data.
__attribute__((target("ssse3"))) std::size_t svb_decode_quads_ssse3(
    const std::uint8_t* ctrl, std::size_t quads, const std::uint8_t** data,
    const std::uint8_t* data_end, std::uint32_t* out) {
  const std::uint8_t* p = *data;
  std::size_t q = 0;
  for (; q < quads; ++q) {
    const std::uint8_t c = ctrl[q];
    if (static_cast<std::size_t>(data_end - p) < 16) break;
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i shuf = _mm_load_si128(
        reinterpret_cast<const __m128i*>(kSvb.shuffle[c]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 4 * q),
                     _mm_shuffle_epi8(raw, shuf));
    p += kSvb.len[c];
  }
  *data = p;
  return q;
}
#endif  // FEDTINY_QUANT_HAVE_SSSE3

}  // namespace

void compute_chunk_params(const float* src, std::size_t n, std::size_t chunk,
                          int qmax, ChunkParams* params) {
  const std::size_t chunks = chunk_count(n, chunk);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t len = std::min(chunk, n - begin);
    float lo = 0.0f;
    float hi = 0.0f;
    minmax_span(src + begin, len, &lo, &hi);
    params[c].lo = lo;
    const float range = hi - lo;
    params[c].scale = range > 0.0f ? range / static_cast<float>(qmax) : 0.0f;
  }
}

void encode_u8(const float* src, std::size_t n, std::size_t chunk,
               const ChunkParams* params, std::uint8_t* codes) {
  const std::size_t chunks = chunk_count(n, chunk);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t len = std::min(chunk, n - begin);
    if (params[c].scale == 0.0f) {
      std::memset(codes + begin, 0, len);
      continue;
    }
    encode_u8_span(src + begin, len, params[c].lo, 1.0f / params[c].scale,
                   codes + begin);
  }
}

void decode_u8(const std::uint8_t* codes, std::size_t n, std::size_t chunk,
               const ChunkParams* params, float* dst) {
  const std::size_t chunks = chunk_count(n, chunk);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t len = std::min(chunk, n - begin);
    decode_u8_span(codes + begin, len, params[c].lo, params[c].scale,
                   dst + begin);
  }
}

void encode_u4(const float* src, std::size_t n, std::size_t chunk,
               const ChunkParams* params, const std::uint32_t* rand,
               std::uint8_t* codes) {
  std::memset(codes, 0, packed_u4_bytes(n));
  const std::size_t chunks = chunk_count(n, chunk);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t len = std::min(chunk, n - begin);
    if (params[c].scale == 0.0f) continue;
    const float lo = params[c].lo;
    const float inv = 1.0f / params[c].scale;
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t idx = begin + i;
      float t = (src[idx] - lo) * inv;
      t = t < 0.0f ? 0.0f : t;
      t = t > 15.0f ? 15.0f : t;
      int q = static_cast<int>(t);  // t >= 0: truncation == floor
      const float frac = t - static_cast<float>(q);
      // Stochastic rounding: P(up) == frac, from the caller's u32 stream.
      const float u =
          static_cast<float>(rand[idx]) * (1.0f / 4294967296.0f);
      q += frac > u ? 1 : 0;
      q = q > 15 ? 15 : q;
      codes[idx / 2] |= static_cast<std::uint8_t>(q) << ((idx & 1) * 4);
    }
  }
}

void decode_u4(const std::uint8_t* codes, std::size_t n, std::size_t chunk,
               const ChunkParams* params, float* dst) {
  // Unpack nibbles once, then decode spans with the vectorizable kernel.
  std::vector<std::uint8_t> nibbles(n);
  for (std::size_t i = 0; i < n; ++i) {
    nibbles[i] = (codes[i / 2] >> ((i & 1) * 4)) & 0x0F;
  }
  const std::size_t chunks = chunk_count(n, chunk);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t len = std::min(chunk, n - begin);
    decode_u4_span(nibbles.data() + begin, len, params[c].lo,
                   params[c].scale, dst + begin);
  }
}

std::size_t svb_max_bytes(std::size_t n) {
  return (n + 3) / 4 + 4 * n;
}

std::size_t svb_encode(const std::uint32_t* in, std::size_t n,
                       std::uint8_t* out) {
  if (n == 0) return 0;
  const std::size_t ctrl_bytes = (n + 3) / 4;
  std::uint8_t* ctrl = out;
  std::uint8_t* data = out + ctrl_bytes;
  std::memset(ctrl, 0, ctrl_bytes);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = in[i];
    const std::uint8_t len = byte_len_u32(v);
    ctrl[i / 4] |= static_cast<std::uint8_t>(len - 1) << ((i & 3) * 2);
    std::memcpy(data, &v, len);  // little-endian low bytes
    data += len;
  }
  return static_cast<std::size_t>(data - out);
}

bool svb_decode(const std::uint8_t* buf, std::size_t len, std::uint32_t* out,
                std::size_t n) {
  const std::size_t ctrl_bytes = (n + 3) / 4;
  if (len < ctrl_bytes) return false;
  const std::uint8_t* ctrl = buf;
  const std::uint8_t* data = buf + ctrl_bytes;
  const std::uint8_t* end = buf + len;
  std::size_t i = 0;

#ifdef FEDTINY_QUANT_HAVE_SSSE3
  if (__builtin_cpu_supports("ssse3")) {
    const std::size_t done =
        svb_decode_quads_ssse3(ctrl, n / 4, &data, end, out);
    i = 4 * done;
  }
#endif

  for (; i < n; ++i) {
    const std::size_t vlen =
        static_cast<std::size_t>((ctrl[i / 4] >> ((i & 3) * 2)) & 3) + 1;
    if (static_cast<std::size_t>(end - data) < vlen) return false;
    std::uint32_t v = 0;
    std::memcpy(&v, data, vlen);
    out[i] = v;
    data += vlen;
  }
  // Exact consumption: a trailing-garbage or corrupt-length buffer fails.
  return data == end;
}

}  // namespace quant
}  // namespace fedtiny
