// Microbenchmarks (google-benchmark): field multiplication (the header row
// of Table 3), NTT (plus a fresh-vs-constant input pair that shows whether
// the field arithmetic is branch-free), the client's SNIP proof
// construction, ChaCha20, SHA-256, secp256k1 scalar multiplication and
// OR-proof prove/verify (the primitive costs behind the NIZK baseline),
// plus the server's per-blob kernels over one 10 KB explicit share: the
// ChaCha20 stream (per dispatch path), Poly1305, Aead::open and PRG share
// expansion, reported as bytes/s.

#include <benchmark/benchmark.h>

#include "afe/bitvec_sum.h"
#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/poly1305.h"
#include "crypto/rng.h"
#include "crypto/schnorr_or.h"
#include "crypto/sha256.h"
#include "field/field.h"
#include "poly/ntt.h"
#include "share/share.h"
#include "snip/snip.h"

namespace prio {
namespace {

template <typename F>
void BM_FieldMul(benchmark::State& state) {
  SecureRng rng(1);
  F a = rng.field_element<F>();
  F b = rng.field_element<F>();
  for (auto _ : state) {
    a = a * b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK_TEMPLATE(BM_FieldMul, Fp64);
BENCHMARK_TEMPLATE(BM_FieldMul, Fp128);

template <typename F>
void BM_FieldInv(benchmark::State& state) {
  SecureRng rng(2);
  F a = rng.field_element<F>();
  for (auto _ : state) {
    a = a.inv() + F::one();
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK_TEMPLATE(BM_FieldInv, Fp64);
BENCHMARK_TEMPLATE(BM_FieldInv, Fp128);

template <typename F>
void BM_Ntt(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  NttDomain<F> dom(n);
  SecureRng rng(3);
  std::vector<F> data(n);
  for (auto& x : data) x = rng.field_element<F>();
  for (auto _ : state) {
    dom.forward(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetComplexityN(static_cast<i64>(n));
}
BENCHMARK_TEMPLATE(BM_Ntt, Fp64)->RangeMultiplier(4)->Range(64, 16384);
BENCHMARK_TEMPLATE(BM_Ntt, Fp128)->RangeMultiplier(4)->Range(64, 16384);

// Forward NTT on input the branch predictor cannot learn: every iteration
// transforms a freshly drawn random vector (the copy from a pool of
// pre-drawn vectors is inside the timed region for both variants). Its
// twin BM_NttConstant transforms the all-ones vector every time. If the
// field arithmetic has data-dependent branches, the constant variant runs
// well ahead of the fresh one; a fresh/constant ratio near 1 means the
// butterflies are straight-line code.
template <typename F, bool kFresh>
void ntt_input_bench(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  NttDomain<F> dom(n);
  SecureRng rng(8);
  constexpr size_t kPool = 64;
  std::vector<std::vector<F>> pool(kPool, std::vector<F>(n, F::one()));
  if (kFresh) {
    for (auto& v : pool)
      for (auto& x : v) x = rng.field_element<F>();
  }
  std::vector<F> data(n);
  size_t k = 0;
  for (auto _ : state) {
    std::copy(pool[k].begin(), pool[k].end(), data.begin());
    k = (k + 1) % kPool;
    dom.forward(data);
    benchmark::DoNotOptimize(data.data());
    benchmark::ClobberMemory();
  }
}
template <typename F>
void BM_NttFresh(benchmark::State& state) {
  ntt_input_bench<F, true>(state);
}
template <typename F>
void BM_NttConstant(benchmark::State& state) {
  ntt_input_bench<F, false>(state);
}
BENCHMARK_TEMPLATE(BM_NttFresh, Fp64)->Arg(512)->Arg(1024);
BENCHMARK_TEMPLATE(BM_NttConstant, Fp64)->Arg(512)->Arg(1024);

// SnipProver::build_extended_input for the bitvec_sum circuit of the given
// length, on fresh random bit vectors (the client's proof-generation cost).
void BM_BuildExtendedInput(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  afe::BitVectorSum<Fp64> afe(len);
  SnipProver<Fp64> prover(&afe.valid_circuit());
  SecureRng rng(9);
  std::vector<Fp64> x(len);
  for (auto _ : state) {
    for (auto& v : x) v = rng.next_u64() & 1 ? Fp64::one() : Fp64::zero();
    auto ext = prover.build_extended_input(x, rng);
    benchmark::DoNotOptimize(ext.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BuildExtendedInput)->Arg(128)->Arg(256);

void BM_ChaCha20Block(benchmark::State& state) {
  std::vector<u8> key(32, 1), nonce(12, 2);
  u8 out[64];
  u32 ctr = 0;
  for (auto _ : state) {
    ChaCha20::block(key, ctr++, nonce, out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 64);
}
BENCHMARK(BM_ChaCha20Block);

// One lan_backlog explicit share: 1285 Fp64 elements plus the 5-byte
// header.
constexpr size_t kShareElems = 1285;
constexpr size_t kShareBytes = 5 + kShareElems * Fp64::kByteLen;

// Arg: chacha_core::Path. Paths this CPU lacks are skipped.
void BM_ChaCha20Stream10K(benchmark::State& state) {
  const auto path = static_cast<chacha_core::Path>(state.range(0));
  if (!chacha_core::supported(path)) {
    state.SkipWithError("dispatch path not supported on this CPU");
    return;
  }
  std::vector<u8> key(32, 1), nonce(12, 2), data(kShareBytes, 3);
  for (auto _ : state) {
    chacha_core::stream(path, key, 1, nonce, data.data(), data.data(),
                        data.size());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetLabel(std::string(chacha_core::name(path)) +
                 (path == chacha_core::selected() ? " (selected)" : ""));
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(data.size()));
}
BENCHMARK(BM_ChaCha20Stream10K)->DenseRange(0, 2);

void BM_Poly1305_10K(benchmark::State& state) {
  std::vector<u8> key(32, 7), data(kShareBytes, 3);
  for (auto _ : state) {
    auto tag = Poly1305::mac(key, data);
    benchmark::DoNotOptimize(tag);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(data.size()));
}
BENCHMARK(BM_Poly1305_10K);

void BM_AeadOpen10K(benchmark::State& state) {
  std::vector<u8> key(32, 1), nonce(12, 2), pt(kShareBytes, 3);
  const auto sealed = Aead::seal(key, nonce, {}, pt);
  for (auto _ : state) {
    auto out = Aead::open(key, nonce, {}, sealed);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(chacha_core::name(chacha_core::selected()));
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(pt.size()));
}
BENCHMARK(BM_AeadOpen10K);

void BM_ExpandShareSeed1285(benchmark::State& state) {
  std::vector<u8> seed(32, 9);
  std::vector<Fp64> out(kShareElems);
  for (auto _ : state) {
    expand_share_seed_into<Fp64>(seed, std::span<Fp64>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(chacha_core::name(chacha_core::selected()));
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(kShareElems * Fp64::kByteLen));
}
BENCHMARK(BM_ExpandShareSeed1285);

void BM_Sha256(benchmark::State& state) {
  std::vector<u8> data(static_cast<size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    auto d = Sha256::digest(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024);

void BM_EcScalarMul(benchmark::State& state) {
  SecureRng rng(4);
  auto g = ec::Point::generator();
  u8 buf[32];
  rng.fill(buf);
  auto k = ec::Scalar::from_u256(ec::U256::from_bytes_be(buf));
  for (auto _ : state) {
    auto p = g.mul(k);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_EcScalarMul);

void BM_EcFixedBaseMul(benchmark::State& state) {
  SecureRng rng(5);
  static const ec::FixedBaseTable table(ec::Point::generator());
  u8 buf[32];
  rng.fill(buf);
  auto k = ec::Scalar::from_u256(ec::U256::from_bytes_be(buf));
  for (auto _ : state) {
    auto p = table.mul(k);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_EcFixedBaseMul);

void BM_OrProofProve(benchmark::State& state) {
  SecureRng rng(6);
  const auto& params = ec::PedersenParams::instance();
  int bit = 0;
  for (auto _ : state) {
    auto cb = ec::prove_bit(params, bit ^= 1, rng);
    benchmark::DoNotOptimize(cb);
  }
}
BENCHMARK(BM_OrProofProve);

void BM_OrProofVerify(benchmark::State& state) {
  SecureRng rng(7);
  const auto& params = ec::PedersenParams::instance();
  auto cb = ec::prove_bit(params, 1, rng);
  for (auto _ : state) {
    bool ok = ec::verify_bit(params, cb.commitment, cb.proof);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_OrProofVerify);

}  // namespace
}  // namespace prio

BENCHMARK_MAIN();
