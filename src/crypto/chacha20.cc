#include "crypto/chacha20.h"

#include <algorithm>
#include <cstring>

#include "util/common.h"

#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define PRIO_CHACHA_X86 1
// GCC 12's AVX-512 intrinsics seed their unused pass-through operand with
// a self-initialized local, which -Wmaybe-uninitialized reports inside the
// header wherever an intrinsic is inlined; the suppression covers only the
// header's own lines.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace prio {
namespace {

inline u32 rotl32(u32 x, int n) { return (x << n) | (x >> (32 - n)); }

inline u32 load32_le(const u8* p) {
  return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8 |
         static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

inline void store32_le(u8* p, u32 x) {
  p[0] = static_cast<u8>(x);
  p[1] = static_cast<u8>(x >> 8);
  p[2] = static_cast<u8>(x >> 16);
  p[3] = static_cast<u8>(x >> 24);
}

inline void quarter_round(u32& a, u32& b, u32& c, u32& d) {
  a += b; d ^= a; d = rotl32(d, 16);
  c += d; b ^= c; b = rotl32(b, 12);
  a += b; d ^= a; d = rotl32(d, 8);
  c += d; b ^= c; b = rotl32(b, 7);
}

// Builds the 16-word input state of RFC 8439 section 2.3.
inline void init_state(u32 state[16], std::span<const u8> key, u32 counter,
                       std::span<const u8> nonce) {
  state[0] = 0x61707865;  // "expa"
  state[1] = 0x3320646e;  // "nd 3"
  state[2] = 0x79622d32;  // "2-by"
  state[3] = 0x6b206574;  // "te k"
  for (int i = 0; i < 8; ++i) state[4 + i] = load32_le(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load32_le(nonce.data() + 4 * i);
}

// The scalar reference: one keystream block from a full input state.
void block_from_state(const u32 state[16], u8 out[ChaCha20::kBlockLen]) {
  u32 x[16];
  std::memcpy(x, state, sizeof(x));
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) store32_le(out + 4 * i, x[i] + state[i]);
}

// Every multi-block core computes `groups` whole groups of its width in
// blocks, starting at block state[12], into out = in XOR keystream (in ==
// nullptr: out = keystream). All of them lay the blocks out
// lane-interleaved: every ChaCha word is one vector whose lane l belongs
// to block counter + l, the quarter rounds run vertically (one SIMD op per
// ChaCha op), and a transpose turns the lanes back into byte-order blocks.
using GroupsFn = void (*)(const u32 state[16], const u8* in, u8* out,
                          size_t groups);

#if defined(__GNUC__) || defined(__clang__)

// Portable 4-lane core: GCC/Clang generic vectors, which is SSE2 (the
// x86-64 baseline) on x86 and NEON on ARM.
typedef u32 v4u32 __attribute__((vector_size(16)));

inline v4u32 vrotl(v4u32 x, int n) { return (x << n) | (x >> (32 - n)); }

inline void quarter_round_x4(v4u32& a, v4u32& b, v4u32& c, v4u32& d) {
  a += b; d ^= a; d = vrotl(d, 16);
  c += d; b ^= c; b = vrotl(b, 12);
  a += b; d ^= a; d = vrotl(d, 8);
  c += d; b ^= c; b = vrotl(b, 7);
}

void groups_x4(const u32 state[16], const u8* in, u8* out, size_t groups) {
  u32 counter = state[12];
  for (size_t g = 0; g < groups; ++g, counter += 4) {
    v4u32 x[16];
    for (int j = 0; j < 16; ++j) {
      x[j] = v4u32{state[j], state[j], state[j], state[j]};
    }
    x[12] = v4u32{counter, counter + 1, counter + 2, counter + 3};
    for (int round = 0; round < 10; ++round) {
      quarter_round_x4(x[0], x[4], x[8], x[12]);
      quarter_round_x4(x[1], x[5], x[9], x[13]);
      quarter_round_x4(x[2], x[6], x[10], x[14]);
      quarter_round_x4(x[3], x[7], x[11], x[15]);
      quarter_round_x4(x[0], x[5], x[10], x[15]);
      quarter_round_x4(x[1], x[6], x[11], x[12]);
      quarter_round_x4(x[2], x[7], x[8], x[13]);
      quarter_round_x4(x[3], x[4], x[9], x[14]);
    }
    const size_t base = g * 4 * ChaCha20::kBlockLen;
    for (u32 l = 0; l < 4; ++l) {
      for (int j = 0; j < 16; ++j) {
        const size_t at = base + ChaCha20::kBlockLen * l + 4 * j;
        u32 w = x[j][l] + (j == 12 ? counter + l : state[j]);
        if (in) w ^= load32_le(in + at);
        store32_le(out + at, w);
      }
    }
  }
}

#else  // other compilers: four sequential scalar blocks per group

void groups_x4(const u32 state[16], const u8* in, u8* out, size_t groups) {
  u32 st[16];
  std::memcpy(st, state, sizeof(st));
  u8 ks[ChaCha20::kBlockLen];
  for (size_t b = 0; b < 4 * groups; ++b, ++st[12]) {
    block_from_state(st, ks);
    for (size_t i = 0; i < ChaCha20::kBlockLen; ++i) {
      const size_t at = b * ChaCha20::kBlockLen + i;
      out[at] = (in ? in[at] : 0) ^ ks[i];
    }
  }
}

#endif

#ifdef PRIO_CHACHA_X86

// ---- AVX2: 8 blocks per group ------------------------------------------

#define PRIO_TARGET_AVX2 __attribute__((target("avx2")))

template <int N>
PRIO_TARGET_AVX2 inline __m256i rotl_avx2(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, N), _mm256_srli_epi32(x, 32 - N));
}

// Rotations by 16 and 8 are whole-byte moves: one shuffle instead of two
// shifts and an or. `rot16`/`rot8` are the byte-shuffle masks.
PRIO_TARGET_AVX2 inline void quarter_round_avx2(__m256i& a, __m256i& b,
                                                __m256i& c, __m256i& d,
                                                __m256i rot16, __m256i rot8) {
  a = _mm256_add_epi32(a, b); d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d); b = rotl_avx2<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b); d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d); b = rotl_avx2<7>(_mm256_xor_si256(b, c));
}

PRIO_TARGET_AVX2 inline void emit_avx2(const u8* in, u8* out, size_t at,
                                       __m256i v) {
  if (in) {
    v = _mm256_xor_si256(
        v, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + at)));
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + at), v);
}

// 8x8 transpose of 32-bit words: on entry a[j] lane l is word `first + j`
// of block l; block l's eight words land at out + 64 l + 4 first.
PRIO_TARGET_AVX2 inline void transpose_emit_avx2(const __m256i a[8],
                                                 const u8* in, u8* out,
                                                 size_t first) {
  const __m256i t0 = _mm256_unpacklo_epi32(a[0], a[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(a[0], a[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(a[2], a[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(a[2], a[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(a[4], a[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(a[4], a[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(a[6], a[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(a[6], a[7]);
  // u_m holds words first..first+3 (low 128) / first+4..+7 (u_{m+4}) of
  // blocks m and m + 4.
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  const size_t off = 4 * first;
  constexpr size_t kB = ChaCha20::kBlockLen;
  emit_avx2(in, out, 0 * kB + off, _mm256_permute2x128_si256(u0, u4, 0x20));
  emit_avx2(in, out, 1 * kB + off, _mm256_permute2x128_si256(u1, u5, 0x20));
  emit_avx2(in, out, 2 * kB + off, _mm256_permute2x128_si256(u2, u6, 0x20));
  emit_avx2(in, out, 3 * kB + off, _mm256_permute2x128_si256(u3, u7, 0x20));
  emit_avx2(in, out, 4 * kB + off, _mm256_permute2x128_si256(u0, u4, 0x31));
  emit_avx2(in, out, 5 * kB + off, _mm256_permute2x128_si256(u1, u5, 0x31));
  emit_avx2(in, out, 6 * kB + off, _mm256_permute2x128_si256(u2, u6, 0x31));
  emit_avx2(in, out, 7 * kB + off, _mm256_permute2x128_si256(u3, u7, 0x31));
}

PRIO_TARGET_AVX2 void groups_avx2(const u32 state[16], const u8* in, u8* out,
                                  size_t groups) {
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  constexpr size_t kGroupBytes = 8 * ChaCha20::kBlockLen;
  u32 counter = state[12];
  for (size_t g = 0; g < groups; ++g, counter += 8) {
    const __m256i ctr =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(counter)), lanes);
    __m256i x[16];
    for (int j = 0; j < 16; ++j) x[j] = _mm256_set1_epi32(static_cast<int>(state[j]));
    x[12] = ctr;
    for (int round = 0; round < 10; ++round) {
      quarter_round_avx2(x[0], x[4], x[8], x[12], rot16, rot8);
      quarter_round_avx2(x[1], x[5], x[9], x[13], rot16, rot8);
      quarter_round_avx2(x[2], x[6], x[10], x[14], rot16, rot8);
      quarter_round_avx2(x[3], x[7], x[11], x[15], rot16, rot8);
      quarter_round_avx2(x[0], x[5], x[10], x[15], rot16, rot8);
      quarter_round_avx2(x[1], x[6], x[11], x[12], rot16, rot8);
      quarter_round_avx2(x[2], x[7], x[8], x[13], rot16, rot8);
      quarter_round_avx2(x[3], x[4], x[9], x[14], rot16, rot8);
    }
    for (int j = 0; j < 16; ++j) {
      x[j] = _mm256_add_epi32(
          x[j], j == 12 ? ctr : _mm256_set1_epi32(static_cast<int>(state[j])));
    }
    const size_t base = g * kGroupBytes;
    transpose_emit_avx2(x, in ? in + base : nullptr, out + base, 0);
    transpose_emit_avx2(x + 8, in ? in + base : nullptr, out + base, 8);
  }
}

// ---- AVX-512F: 16 blocks per group -------------------------------------

#define PRIO_TARGET_AVX512 __attribute__((target("avx512f")))

PRIO_TARGET_AVX512 inline void quarter_round_avx512(__m512i& a, __m512i& b,
                                                    __m512i& c, __m512i& d) {
  a = _mm512_add_epi32(a, b); d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 16);
  c = _mm512_add_epi32(c, d); b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 12);
  a = _mm512_add_epi32(a, b); d = _mm512_rol_epi32(_mm512_xor_si512(d, a), 8);
  c = _mm512_add_epi32(c, d); b = _mm512_rol_epi32(_mm512_xor_si512(b, c), 7);
}

PRIO_TARGET_AVX512 inline void emit_avx512(const u8* in, u8* out, size_t at,
                                           __m512i v) {
  if (in) v = _mm512_xor_si512(v, _mm512_loadu_si512(in + at));
  _mm512_storeu_si512(out + at, v);
}

// 16x16 transpose of 32-bit words. Unpacks inside each 128-bit lane give,
// per group of four words g and per m in 0..3, a vector u[g][m] whose
// 128-bit lane k holds words 4g..4g+3 of block 4k + m; two rounds of
// 128-bit lane shuffles then gather block 4k + m's four quarters.
PRIO_TARGET_AVX512 inline void transpose_emit_avx512(const __m512i x[16],
                                                     const u8* in, u8* out) {
  __m512i u[4][4];
  for (int g = 0; g < 4; ++g) {
    const __m512i t0 = _mm512_unpacklo_epi32(x[4 * g], x[4 * g + 1]);
    const __m512i t1 = _mm512_unpackhi_epi32(x[4 * g], x[4 * g + 1]);
    const __m512i t2 = _mm512_unpacklo_epi32(x[4 * g + 2], x[4 * g + 3]);
    const __m512i t3 = _mm512_unpackhi_epi32(x[4 * g + 2], x[4 * g + 3]);
    u[g][0] = _mm512_unpacklo_epi64(t0, t2);
    u[g][1] = _mm512_unpackhi_epi64(t0, t2);
    u[g][2] = _mm512_unpacklo_epi64(t1, t3);
    u[g][3] = _mm512_unpackhi_epi64(t1, t3);
  }
  constexpr size_t kB = ChaCha20::kBlockLen;
  for (size_t m = 0; m < 4; ++m) {
    // v0 = [u0 k0, u0 k1, u1 k0, u1 k1], v1 = the k2/k3 half; same for
    // v2/v3 over u2, u3.
    const __m512i v0 = _mm512_shuffle_i32x4(u[0][m], u[1][m], 0x44);
    const __m512i v1 = _mm512_shuffle_i32x4(u[0][m], u[1][m], 0xEE);
    const __m512i v2 = _mm512_shuffle_i32x4(u[2][m], u[3][m], 0x44);
    const __m512i v3 = _mm512_shuffle_i32x4(u[2][m], u[3][m], 0xEE);
    emit_avx512(in, out, (0 + m) * kB, _mm512_shuffle_i32x4(v0, v2, 0x88));
    emit_avx512(in, out, (4 + m) * kB, _mm512_shuffle_i32x4(v0, v2, 0xDD));
    emit_avx512(in, out, (8 + m) * kB, _mm512_shuffle_i32x4(v1, v3, 0x88));
    emit_avx512(in, out, (12 + m) * kB, _mm512_shuffle_i32x4(v1, v3, 0xDD));
  }
}

PRIO_TARGET_AVX512 void groups_avx512(const u32 state[16], const u8* in,
                                      u8* out, size_t groups) {
  const __m512i lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 12, 13, 14, 15);
  constexpr size_t kGroupBytes = 16 * ChaCha20::kBlockLen;
  u32 counter = state[12];
  for (size_t g = 0; g < groups; ++g, counter += 16) {
    const __m512i ctr =
        _mm512_add_epi32(_mm512_set1_epi32(static_cast<int>(counter)), lanes);
    __m512i x[16];
    for (int j = 0; j < 16; ++j) x[j] = _mm512_set1_epi32(static_cast<int>(state[j]));
    x[12] = ctr;
    for (int round = 0; round < 10; ++round) {
      quarter_round_avx512(x[0], x[4], x[8], x[12]);
      quarter_round_avx512(x[1], x[5], x[9], x[13]);
      quarter_round_avx512(x[2], x[6], x[10], x[14]);
      quarter_round_avx512(x[3], x[7], x[11], x[15]);
      quarter_round_avx512(x[0], x[5], x[10], x[15]);
      quarter_round_avx512(x[1], x[6], x[11], x[12]);
      quarter_round_avx512(x[2], x[7], x[8], x[13]);
      quarter_round_avx512(x[3], x[4], x[9], x[14]);
    }
    for (int j = 0; j < 16; ++j) {
      x[j] = _mm512_add_epi32(
          x[j], j == 12 ? ctr : _mm512_set1_epi32(static_cast<int>(state[j])));
    }
    const size_t base = g * kGroupBytes;
    transpose_emit_avx512(x, in ? in + base : nullptr, out + base);
  }
}

#endif  // PRIO_CHACHA_X86

struct Core {
  size_t width;  // blocks per group
  GroupsFn groups;
};

// Indexed by chacha_core::Path.
#ifdef PRIO_CHACHA_X86
constexpr Core kCores[] = {{4, groups_x4}, {8, groups_avx2}, {16, groups_avx512}};
#else
constexpr Core kCores[] = {{4, groups_x4}};
#endif

// Bit i set: path i runs on this CPU.
unsigned detect_paths() {
  unsigned mask = 1u << static_cast<int>(chacha_core::Path::kGeneric4);
#ifdef PRIO_CHACHA_X86
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    mask |= 1u << static_cast<int>(chacha_core::Path::kAvx2x8);
  }
  if (__builtin_cpu_supports("avx512f")) {
    mask |= 1u << static_cast<int>(chacha_core::Path::kAvx512x16);
  }
#endif
  return mask;
}

unsigned supported_paths() {
  static const unsigned mask = detect_paths();
  return mask;
}

// out = in XOR keystream over `len` bytes from block state[12]: the widest
// path takes whole groups, each narrower supported path the groups it can
// still fill, the scalar block function the last < 4 blocks.
void stream_state(chacha_core::Path path, const u32 state[16], const u8* in,
                  u8* out, size_t len) {
  u32 st[16];
  std::memcpy(st, state, sizeof(st));
  for (int i = static_cast<int>(path); i >= 0; --i) {
    if (!(supported_paths() >> i & 1)) continue;
    const Core& core = kCores[i];
    const size_t group_bytes = core.width * ChaCha20::kBlockLen;
    const size_t n = len / group_bytes;
    if (n == 0) continue;
    core.groups(st, in, out, n);
    st[12] += static_cast<u32>(n * core.width);
    const size_t done = n * group_bytes;
    out += done;
    if (in) in += done;
    len -= done;
  }
  u8 ks[ChaCha20::kBlockLen];
  while (len > 0) {
    block_from_state(st, ks);
    ++st[12];
    const size_t n = std::min(len, ChaCha20::kBlockLen);
    for (size_t i = 0; i < n; ++i) out[i] = (in ? in[i] : 0) ^ ks[i];
    out += n;
    if (in) in += n;
    len -= n;
  }
}

}  // namespace

namespace chacha_core {

bool supported(Path p) { return supported_paths() >> static_cast<int>(p) & 1; }

Path selected() {
  static const Path best = [] {
    for (Path p : {Path::kAvx512x16, Path::kAvx2x8}) {
      if (supported(p)) return p;
    }
    return Path::kGeneric4;
  }();
  return best;
}

const char* name(Path p) {
  switch (p) {
    case Path::kAvx512x16: return "avx512x16";
    case Path::kAvx2x8: return "avx2x8";
    case Path::kGeneric4: break;
  }
  return "generic4";
}

void stream(Path p, std::span<const u8> key, u32 counter,
            std::span<const u8> nonce, const u8* in, u8* out, size_t len) {
  require(key.size() == ChaCha20::kKeyLen, "ChaCha20: key must be 32 bytes");
  require(nonce.size() == ChaCha20::kNonceLen,
          "ChaCha20: nonce must be 12 bytes");
  require(supported(p), "chacha_core::stream: path not supported on this CPU");
  u32 state[16];
  init_state(state, key, counter, nonce);
  stream_state(p, state, in, out, len);
}

}  // namespace chacha_core

void ChaCha20::block(std::span<const u8> key, u32 counter,
                     std::span<const u8> nonce, std::span<u8> out) {
  require(key.size() == kKeyLen, "ChaCha20: key must be 32 bytes");
  require(nonce.size() == kNonceLen, "ChaCha20: nonce must be 12 bytes");
  require(out.size() == kBlockLen, "ChaCha20: output must be 64 bytes");
  u32 state[16];
  init_state(state, key, counter, nonce);
  block_from_state(state, out.data());
}

void ChaCha20::xor_stream(std::span<const u8> key, u32 counter,
                          std::span<const u8> nonce, std::span<u8> data) {
  xor_stream(key, counter, nonce, data, data);
}

void ChaCha20::xor_stream(std::span<const u8> key, u32 counter,
                          std::span<const u8> nonce, std::span<const u8> in,
                          std::span<u8> out) {
  require(in.size() == out.size(), "ChaCha20::xor_stream: size mismatch");
  chacha_core::stream(chacha_core::selected(), key, counter, nonce, in.data(),
                      out.data(), in.size());
}

ChaChaPrg::ChaChaPrg(std::span<const u8> seed32) : pos_(0), counter_(0) {
  require(seed32.size() == ChaCha20::kKeyLen, "ChaChaPrg: seed must be 32 bytes");
  std::memcpy(key_.data(), seed32.data(), seed32.size());
  nonce_.fill(0);
  refill();
}

void ChaChaPrg::refill() {
  ChaCha20::block(key_, counter_++, nonce_, buf_);
  pos_ = 0;
}

void ChaChaPrg::fill(std::span<u8> out) {
  size_t off = 0;
  while (off < out.size()) {
    if (pos_ == buf_.size()) refill();
    size_t n = std::min(out.size() - off, buf_.size() - pos_);
    std::memcpy(out.data() + off, buf_.data() + pos_, n);
    pos_ += n;
    off += n;
  }
}

void ChaChaPrg::fill_blocks(std::span<u8> out) {
  if (out.empty()) return;  // keep memcpy away from a null span
  size_t off = 0;
  // Drain any buffered bytes first so the stream position matches fill().
  if (pos_ < buf_.size()) {
    size_t n = std::min(out.size(), buf_.size() - pos_);
    std::memcpy(out.data(), buf_.data() + pos_, n);
    pos_ += n;
    off += n;
  }
  // Whole blocks go straight into the caller's buffer through the
  // multi-block core: no memcpy, no per-8-byte round-trips through buf_.
  const size_t whole = (out.size() - off) / ChaCha20::kBlockLen;
  if (whole > 0) {
    chacha_core::stream(chacha_core::selected(), key_, counter_, nonce_,
                        nullptr, out.data() + off,
                        whole * ChaCha20::kBlockLen);
    counter_ += static_cast<u32>(whole);
    off += whole * ChaCha20::kBlockLen;
  }
  if (off < out.size()) {
    refill();
    size_t n = out.size() - off;
    std::memcpy(out.data() + off, buf_.data(), n);
    pos_ = n;
  }
}

u64 ChaChaPrg::next_u64() {
  u8 buf[8];
  fill(buf);
  u64 v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<u64>(buf[i]) << (8 * i);
  return v;
}

}  // namespace prio
