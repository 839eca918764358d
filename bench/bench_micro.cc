// Microbenchmarks (google-benchmark): field multiplication (the header row
// of Table 3), NTT, ChaCha20, SHA-256, secp256k1 scalar multiplication and
// OR-proof prove/verify (the primitive costs behind the NIZK baseline),
// plus the server's per-blob kernels over one 10 KB explicit share: the
// ChaCha20 stream (per dispatch path), Poly1305, Aead::open and PRG share
// expansion, reported as bytes/s.

#include <benchmark/benchmark.h>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/poly1305.h"
#include "crypto/rng.h"
#include "crypto/schnorr_or.h"
#include "crypto/sha256.h"
#include "field/field.h"
#include "poly/ntt.h"
#include "share/share.h"

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
