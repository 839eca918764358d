// SNIP protocol tests: completeness over random valid inputs, soundness
// against a malicious-client fuzzer that perturbs every part of the proof,
// zero-knowledge smoke checks, the Beaver-MPC (Prio-MPC) variant, and the
// sans-IO round engine (core/snip_rounds.h) driven without sockets.

#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "circuit/circuit.h"
#include "core/snip_rounds.h"
#include "crypto/rng.h"
#include "snip/mpc.h"
#include "snip/snip.h"

namespace prio {
namespace {

// Valid circuit: every input is a bit. (The paper's running example.)
template <PrimeField F>
Circuit<F> bits_circuit(size_t n) {
  CircuitBuilder<F> b(n);
  for (size_t i = 0; i < n; ++i) b.assert_bit(b.input(i));
  return b.build();
}

template <typename F>
class SnipTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<Fp64, Fp128>;
TYPED_TEST_SUITE(SnipTest, FieldTypes);

TYPED_TEST(SnipTest, CompletenessOnValidInputs) {
  using F = TypeParam;
  SecureRng rng(1);
  for (size_t L : {1, 2, 7, 32}) {
    auto circuit = bits_circuit<F>(L);
    SnipProver<F> prover(&circuit);
    VerificationContext<F> ctx(&circuit, 3, /*shared_seed=*/99);
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<F> x;
      for (size_t i = 0; i < L; ++i) x.push_back(F::from_u64(rng.next_u64() & 1));
      auto ext = prover.build_extended_input(x, rng);
      auto shares = share_vector<F>(ext, 3, rng);
      EXPECT_TRUE(snip_verify_all(ctx, shares)) << "L=" << L;
    }
  }
}

TYPED_TEST(SnipTest, RejectsOutOfRangeInputs) {
  using F = TypeParam;
  SecureRng rng(2);
  auto circuit = bits_circuit<F>(8);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 2, 7);
  // A cheating client submits x with a non-bit entry but otherwise builds
  // the proof honestly (the "encrypt 2 instead of 1" attack from §1).
  std::vector<F> x(8, F::one());
  x[3] = F::from_u64(2);
  auto ext = prover.build_extended_input(x, rng);
  auto shares = share_vector<F>(ext, 2, rng);
  EXPECT_FALSE(snip_verify_all(ctx, shares));
}

TYPED_TEST(SnipTest, SoundnessUnderProofFuzzing) {
  using F = TypeParam;
  SecureRng rng(3);
  const size_t L = 4;
  auto circuit = bits_circuit<F>(L);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 2, 11);
  const SnipLayout& lay = prover.layout();

  std::vector<F> x(L, F::one());
  x[0] = F::from_u64(5);  // invalid input

  // The adversary perturbs every single component of the extended vector
  // (h points, f(0), g(0), the Beaver triple, even x itself) trying to
  // slip the invalid x past the servers. All attempts must fail.
  int accepted = 0, attempts = 0;
  auto base = prover.build_extended_input(x, rng);
  for (size_t pos = 0; pos < lay.total_len(); ++pos) {
    auto ext = base;
    ext[pos] += F::from_u64(1 + (rng.next_u64() % 1000));
    // x itself fuzzed: input might become valid; skip those rare cases.
    if (circuit.is_valid(std::span<const F>(ext.data(), L))) continue;
    auto shares = share_vector<F>(ext, 2, rng);
    ++attempts;
    accepted += snip_verify_all(ctx, shares) ? 1 : 0;
  }
  EXPECT_GT(attempts, 0);
  EXPECT_EQ(accepted, 0);
}

TYPED_TEST(SnipTest, SoundnessWithBadBeaverTriple) {
  using F = TypeParam;
  SecureRng rng(4);
  const size_t L = 4;
  auto circuit = bits_circuit<F>(L);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 2, 13);
  const SnipLayout& lay = prover.layout();

  // Invalid input + a *consistent looking* but wrong triple (c != a*b) --
  // the attack analyzed in Step 3b of Section 4.2.
  std::vector<F> x(L, F::from_u64(3));
  int accepted = 0;
  for (int trial = 0; trial < 20; ++trial) {
    auto ext = prover.build_extended_input(x, rng);
    ext[lay.off_c()] = ext[lay.off_a()] * ext[lay.off_b()] +
                       F::from_u64(1 + trial);  // shift alpha
    auto shares = share_vector<F>(ext, 2, rng);
    accepted += snip_verify_all(ctx, shares) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 0);
}

TYPED_TEST(SnipTest, HonestTripleWrongHStillRejected) {
  using F = TypeParam;
  SecureRng rng(5);
  auto circuit = bits_circuit<F>(3);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 3, 17);
  const SnipLayout& lay = prover.layout();
  // Valid input, but h claims different mul-gate outputs (e.g. trying to
  // make the servers aggregate a different value path). h inconsistent
  // with f*g must be caught by the polynomial identity test.
  std::vector<F> x(3, F::one());
  int accepted = 0;
  for (int trial = 0; trial < 20; ++trial) {
    auto ext = prover.build_extended_input(x, rng);
    size_t h_pos = lay.off_h() + (rng.next_u64() % lay.h_len);
    ext[h_pos] += F::one();
    auto shares = share_vector<F>(ext, 3, rng);
    accepted += snip_verify_all(ctx, shares) ? 1 : 0;
  }
  EXPECT_EQ(accepted, 0);
}

TYPED_TEST(SnipTest, WorksWithCompressedShares) {
  using F = TypeParam;
  SecureRng rng(6);
  auto circuit = bits_circuit<F>(16);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 5, 23);
  std::vector<F> x(16, F::zero());
  x[5] = F::one();
  auto ext = prover.build_extended_input(x, rng);
  auto cs = share_vector_compressed<F>(ext, 5, rng);
  std::vector<std::vector<F>> shares;
  for (const auto& seed : cs.seeds) {
    shares.push_back(expand_share_seed<F>(seed, ext.size()));
  }
  shares.push_back(cs.explicit_share);
  EXPECT_TRUE(snip_verify_all(ctx, shares));
}

TYPED_TEST(SnipTest, AffineOnlyCircuitStillChecked) {
  using F = TypeParam;
  // Circuit with zero mul gates: x0 + x1 == 10. Output check alone.
  CircuitBuilder<F> b(2);
  b.assert_equals(b.add(b.input(0), b.input(1)), F::from_u64(10));
  auto circuit = b.build();
  ASSERT_EQ(circuit.num_mul_gates(), 0u);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 2, 29);
  SecureRng rng(7);
  std::vector<F> good = {F::from_u64(4), F::from_u64(6)};
  std::vector<F> bad = {F::from_u64(4), F::from_u64(7)};
  auto ext_good = prover.build_extended_input(good, rng);
  auto ext_bad = prover.build_extended_input(bad, rng);
  EXPECT_TRUE(snip_verify_all(ctx, share_vector<F>(ext_good, 2, rng)));
  EXPECT_FALSE(snip_verify_all(ctx, share_vector<F>(ext_bad, 2, rng)));
}

TYPED_TEST(SnipTest, RefreshChangesQueryPoint) {
  using F = TypeParam;
  auto circuit = bits_circuit<F>(4);
  VerificationContext<F> ctx(&circuit, 2, 31);
  F r1 = ctx.r();
  ctx.refresh();
  F r2 = ctx.r();
  EXPECT_NE(r1, r2);
  // Still verifies after refresh.
  SecureRng rng(8);
  SnipProver<F> prover(&circuit);
  std::vector<F> x(4, F::one());
  auto ext = prover.build_extended_input(x, rng);
  EXPECT_TRUE(snip_verify_all(ctx, share_vector<F>(ext, 2, rng)));
}

// Zero-knowledge smoke test: the values a single server sees (its shares
// plus the broadcast d, e) are identically distributed for two different
// valid inputs. We check a necessary statistical condition: means of the
// share of f(0) over many runs do not reveal which input was used -- and,
// more sharply, that the d/e broadcasts are uniform-looking (non-constant)
// and independent of x.
TYPED_TEST(SnipTest, BroadcastValuesDoNotDependOnInput) {
  using F = TypeParam;
  auto circuit = bits_circuit<F>(2);
  SnipProver<F> prover(&circuit);
  VerificationContext<F> ctx(&circuit, 2, 37);
  SecureRng rng(9);

  auto run_d_values = [&](std::vector<F> x) {
    std::vector<u64> ds;
    for (int i = 0; i < 64; ++i) {
      auto ext = prover.build_extended_input(x, rng);
      auto shares = share_vector<F>(ext, 2, rng);
      auto st0 = snip_local_check(ctx, 0, std::span<const F>(shares[0]));
      auto st1 = snip_local_check(ctx, 1, std::span<const F>(shares[1]));
      F d = st0.d_share + st1.d_share;
      u8 buf[F::kByteLen];
      d.to_bytes(buf);
      ds.push_back(buf[0]);  // low byte as a crude histogram key
    }
    return ds;
  };

  auto d0 = run_d_values({F::zero(), F::zero()});
  auto d1 = run_d_values({F::one(), F::one()});
  // Both sequences should look scattered: more than 32 distinct low bytes
  // out of 64 draws with overwhelming probability if uniform.
  auto distinct = [](std::vector<u64> v) {
    std::sort(v.begin(), v.end());
    return std::unique(v.begin(), v.end()) - v.begin();
  };
  EXPECT_GT(distinct(d0), 32);
  EXPECT_GT(distinct(d1), 32);
}

// ---------- Prio-MPC (Beaver evaluation at the servers) ----------

TYPED_TEST(SnipTest, BeaverMpcEvaluatesCircuit) {
  using F = TypeParam;
  SecureRng rng(10);
  const size_t L = 8, s = 3;
  auto circuit = bits_circuit<F>(L);

  std::vector<F> x;
  for (size_t i = 0; i < L; ++i) x.push_back(F::from_u64(i % 2));

  auto triples = make_beaver_triples<F>(circuit.num_mul_gates(), rng);
  auto x_shares = share_vector<F>(x, s, rng);
  auto t_shares = share_vector<F>(triples, s, rng);

  std::vector<BeaverMpcSession<F>> sessions;
  sessions.reserve(s);
  for (size_t i = 0; i < s; ++i) {
    sessions.emplace_back(&circuit, s, i, x_shares[i], t_shares[i]);
  }
  while (!sessions[0].done()) {
    std::vector<std::pair<F, F>> totals;
    for (size_t i = 0; i < s; ++i) {
      auto msgs = sessions[i].round_messages();
      if (totals.empty()) totals.assign(msgs.size(), {F::zero(), F::zero()});
      for (size_t j = 0; j < msgs.size(); ++j) {
        totals[j].first += msgs[j].first;
        totals[j].second += msgs[j].second;
      }
    }
    for (size_t i = 0; i < s; ++i) sessions[i].resolve_round(totals);
  }
  // Sum output shares: all outputs must be zero for a valid input.
  std::vector<F> outs(circuit.outputs().size(), F::zero());
  for (size_t i = 0; i < s; ++i) {
    auto o = sessions[i].output_shares();
    for (size_t j = 0; j < o.size(); ++j) outs[j] += o[j];
  }
  for (const auto& o : outs) EXPECT_TRUE(o.is_zero());
}

TYPED_TEST(SnipTest, BeaverMpcCatchesInvalidInput) {
  using F = TypeParam;
  SecureRng rng(11);
  const size_t L = 4, s = 2;
  auto circuit = bits_circuit<F>(L);
  std::vector<F> x(L, F::from_u64(7));  // not bits

  auto triples = make_beaver_triples<F>(circuit.num_mul_gates(), rng);
  auto x_shares = share_vector<F>(x, s, rng);
  auto t_shares = share_vector<F>(triples, s, rng);
  std::vector<BeaverMpcSession<F>> sessions;
  for (size_t i = 0; i < s; ++i) {
    sessions.emplace_back(&circuit, s, i, x_shares[i], t_shares[i]);
  }
  while (!sessions[0].done()) {
    std::vector<std::pair<F, F>> totals;
    for (size_t i = 0; i < s; ++i) {
      auto msgs = sessions[i].round_messages();
      if (totals.empty()) totals.assign(msgs.size(), {F::zero(), F::zero()});
      for (size_t j = 0; j < msgs.size(); ++j) {
        totals[j].first += msgs[j].first;
        totals[j].second += msgs[j].second;
      }
    }
    for (size_t i = 0; i < s; ++i) sessions[i].resolve_round(totals);
  }
  bool any_nonzero = false;
  std::vector<F> outs(circuit.outputs().size(), F::zero());
  for (size_t i = 0; i < s; ++i) {
    auto o = sessions[i].output_shares();
    for (size_t j = 0; j < o.size(); ++j) outs[j] += o[j];
  }
  for (const auto& o : outs) any_nonzero = any_nonzero || !o.is_zero();
  EXPECT_TRUE(any_nonzero);
}

TYPED_TEST(SnipTest, TripleCheckCircuitGuardsMpcTriples) {
  using F = TypeParam;
  SecureRng rng(12);
  auto triples = make_beaver_triples<F>(5, rng);
  auto check = make_triple_check_circuit<F>(5);
  EXPECT_TRUE(check.is_valid(triples));
  triples[2] += F::one();  // corrupt one c
  EXPECT_FALSE(check.is_valid(triples));

  // And the SNIP over the triple-check circuit rejects the bad triples.
  SnipProver<F> prover(&check);
  VerificationContext<F> ctx(&check, 2, 41);
  auto ext = prover.build_extended_input(triples, rng);
  EXPECT_FALSE(snip_verify_all(ctx, share_vector<F>(ext, 2, rng)));
}

// ---------- prover fast path vs the textbook transform ----------

// Textbook reference for the prover: interpolate f and g on the N-domain,
// zero-pad to 2N, evaluate on the 2N-domain and multiply pointwise. Draws
// from rng in the same order as SnipProver.
template <PrimeField F>
std::vector<F> reference_extended_input(const Circuit<F>& circuit,
                                        std::span<const F> x, SecureRng& rng) {
  const SnipLayout lay = SnipLayout::for_circuit_dims(circuit.num_inputs(),
                                                      circuit.num_mul_gates());
  std::vector<F> left, right;
  circuit.mul_gate_inputs(circuit.evaluate(x), &left, &right);
  std::vector<F> f(lay.n, F::zero()), g(lay.n, F::zero());
  f[0] = rng.field_element<F>();
  g[0] = rng.field_element<F>();
  std::copy(left.begin(), left.end(), f.begin() + 1);
  std::copy(right.begin(), right.end(), g.begin() + 1);
  std::vector<F> ext(x.begin(), x.end());
  ext.push_back(f[0]);
  ext.push_back(g[0]);
  NttDomain<F> dom_n(lay.n), dom_2n(lay.h_len);
  dom_n.inverse(f);
  dom_n.inverse(g);
  f.resize(lay.h_len, F::zero());
  g.resize(lay.h_len, F::zero());
  dom_2n.forward(f);
  dom_2n.forward(g);
  for (size_t i = 0; i < lay.h_len; ++i) ext.push_back(f[i] * g[i]);
  const F a = rng.field_element<F>();
  const F b = rng.field_element<F>();
  ext.push_back(a);
  ext.push_back(b);
  ext.push_back(a * b);
  return ext;
}

// A circuit with exactly m mul gates, proven on random (invalid) field
// inputs so f and g carry full-size values.
template <PrimeField F>
std::vector<F> prove_random(size_t m, u64 seed) {
  auto circuit = bits_circuit<F>(m);
  SecureRng rng(seed);
  std::vector<F> x(m);
  for (F& v : x) v = rng.field_element<F>();
  SnipProver<F> prover(&circuit);
  return prover.build_extended_input(x, rng);
}

TYPED_TEST(SnipTest, BuildExtendedInputMatchesTextbookTransform) {
  using F = TypeParam;
  for (size_t m : {1, 2, 3, 7, 127, 128, 255, 256}) {
    auto circuit = bits_circuit<F>(m);
    ASSERT_EQ(circuit.num_mul_gates(), m);
    const u64 seed = 1000 + m;
    const std::vector<F> got = prove_random<F>(m, seed);

    SecureRng rng(seed);
    std::vector<F> x(m);
    for (F& v : x) v = rng.field_element<F>();
    const std::vector<F> want = reference_extended_input(circuit, std::span<const F>(x), rng);
    ASSERT_EQ(got.size(), want.size()) << "m=" << m;
    EXPECT_TRUE(got == want) << "m=" << m;
  }
}

// Provers of different sizes built and run on several threads at once, so
// the process-wide NTT table cache (twiddles and coset tables) is filled
// concurrently. Every proof must equal the single-threaded one.
TEST(NttCacheConcurrency, ConcurrentProversMatchSingleThreaded) {
  const std::vector<size_t> sizes = {3, 6, 14, 30, 62, 126, 254, 510};
  constexpr size_t kThreads = 4;
  std::vector<std::vector<std::vector<Fp64>>> got64(
      kThreads, std::vector<std::vector<Fp64>>(sizes.size()));
  std::vector<std::vector<std::vector<Fp128>>> got128(
      kThreads, std::vector<std::vector<Fp128>>(sizes.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the sizes from a different starting point.
      for (size_t k = 0; k < sizes.size(); ++k) {
        const size_t i = (k + 2 * t) % sizes.size();
        got64[t][i] = prove_random<Fp64>(sizes[i], 3000 + i);
        got128[t][i] = prove_random<Fp128>(sizes[i], 3000 + i);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (size_t i = 0; i < sizes.size(); ++i) {
    const auto want64 = prove_random<Fp64>(sizes[i], 3000 + i);
    const auto want128 = prove_random<Fp128>(sizes[i], 3000 + i);
    for (size_t t = 0; t < kThreads; ++t) {
      EXPECT_TRUE(got64[t][i] == want64) << "m=" << sizes[i] << " thread " << t;
      EXPECT_TRUE(got128[t][i] == want128) << "m=" << sizes[i] << " thread " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Round engine (core/snip_rounds.h): three servers' engines in one thread,
// every message through encode + decode.
// ---------------------------------------------------------------------------

// A four-submission batch on three servers: valid, an out-of-range input
// with an honest proof, valid, and one that server 1 could not parse.
struct EngineBatch {
  static constexpr size_t kServers = 3;
  static constexpr size_t kQ = 4;
  using F = Fp64;

  EngineBatch() {
    SecureRng rng(5);
    SnipProver<F> prover(&circuit);
    SnipVerifier<F> ver(&circuit);
    for (size_t i = 0; i < kServers; ++i) ctxs.emplace_back(&circuit, kServers, 42);
    checks.assign(kServers, SnipLocalChecks<F>(kQ));
    for (size_t v = 0; v < kQ; ++v) {
      std::vector<F> x(4, F::one());
      if (v == 1) x[2] = F::from_u64(2);
      auto shares = share_vector<F>(prover.build_extended_input(x, rng), kServers, rng);
      for (size_t i = 0; i < kServers; ++i) {
        if (v == 3 && i == 1) continue;
        checks[i].set(v, ver.local_check(ctxs[i], i, std::span<const F>(shares[i])));
      }
    }
  }

  std::vector<SnipRound1<F>> round1() const {
    std::vector<SnipRound1<F>> out;
    for (const auto& c : checks) {
      out.push_back(*decode_snip_round1<F>(encode_snip_round(snip_round1(c)), kQ));
    }
    return out;
  }
  SnipRound2<F> round2() const {
    return *decode_snip_round2<F>(encode_snip_round(snip_combine<F>(round1())), kQ);
  }
  std::vector<SnipRound3<F>> round3(const SnipRound2<F>& r2) const {
    std::vector<SnipRound3<F>> out;
    for (size_t i = 0; i < kServers; ++i) {
      out.push_back(*decode_snip_round3<F>(
          encode_snip_round(*snip_round3(ctxs[i], checks[i], r2)), r2.de.size()));
    }
    return out;
  }

  Circuit<F> circuit = bits_circuit<F>(4);
  std::vector<VerificationContext<F>> ctxs;
  std::vector<SnipLocalChecks<F>> checks;
};

TEST(SnipRoundsTest, LockStepEnginesDecideLikeTheReferenceCheck) {
  EngineBatch b;
  const auto r2 = b.round2();
  EXPECT_EQ(r2.live, (std::vector<u8>{1, 1, 1, 0}));
  const auto r3 = b.round3(r2);
  const auto r4 = decode_snip_round4(
      encode_snip_round(snip_decide<Fp64>(r2, r3)), EngineBatch::kQ);
  ASSERT_TRUE(r4.has_value());
  EXPECT_EQ(r4->accept, (std::vector<u8>{1, 0, 1, 0}));
}

// Every message refuses a truncated body, a body with a trailing byte, and
// a body whose count exceeds the batch it is decoded for.
TEST(SnipRoundsTest, MalformedBodiesRefused) {
  using F = Fp64;
  EngineBatch b;
  constexpr size_t q = EngineBatch::kQ;
  const auto r1 = b.round1()[0];
  const auto r2 = b.round2();
  const auto r3 = b.round3(r2)[0];
  const size_t ql = r2.de.size();
  const SnipRound4 r4 = snip_decide<F>(r2, b.round3(r2));
  const std::pair<F, F> extra{F::one(), F::one()};

  auto r1_big = r1;
  r1_big.parsed.push_back(1);
  r1_big.de.push_back(extra);
  auto r2_big = r2;
  r2_big.live.push_back(1);
  r2_big.de.push_back(extra);
  auto r3_big = r3;
  r3_big.sigma_out.push_back(extra);
  auto r4_big = r4;
  r4_big.accept.push_back(0);

  struct Case {
    const char* name;
    std::vector<u8> body, oversized;
    std::function<bool(std::span<const u8>)> decodes;
  };
  const std::vector<Case> cases = {
      {"round 1", encode_snip_round(r1), encode_snip_round(r1_big),
       [&](auto body) { return decode_snip_round1<F>(body, q).has_value(); }},
      {"round 2", encode_snip_round(r2), encode_snip_round(r2_big),
       [&](auto body) { return decode_snip_round2<F>(body, q).has_value(); }},
      {"round 3", encode_snip_round(r3), encode_snip_round(r3_big),
       [&](auto body) { return decode_snip_round3<F>(body, ql).has_value(); }},
      {"round 4", encode_snip_round(r4), encode_snip_round(r4_big),
       [&](auto body) { return decode_snip_round4(body, q).has_value(); }},
  };
  for (const Case& c : cases) {
    EXPECT_TRUE(c.decodes(c.body)) << c.name;
    auto truncated = c.body;
    truncated.pop_back();
    EXPECT_FALSE(c.decodes(truncated)) << c.name << " truncated";
    auto trailing = c.body;
    trailing.push_back(0);
    EXPECT_FALSE(c.decodes(trailing)) << c.name << " trailing byte";
    EXPECT_FALSE(c.decodes(c.oversized)) << c.name << " oversized";
    EXPECT_FALSE(c.decodes({})) << c.name << " empty";
  }
}

TEST(SnipRoundsTest, Round2TotalsMustMatchLivePopcount) {
  EngineBatch b;
  const auto r2 = b.round2();  // three live submissions
  auto fewer = r2;
  fewer.de.pop_back();
  auto more = r2;
  more.de.push_back(r2.de.back());
  for (const auto& m : {fewer, more}) {
    EXPECT_FALSE(decode_snip_round2<Fp64>(encode_snip_round(m), EngineBatch::kQ))
        << m.de.size() << " totals for 3 live";
  }
}

// A leader that marks live a submission this server did not parse is
// equivocating: the server refuses to answer round 3.
TEST(SnipRoundsTest, LiveBitOnUnparsedSubmissionRefused) {
  EngineBatch b;
  auto r2 = b.round2();
  r2.live[3] = 1;
  r2.de.push_back(r2.de.back());
  ASSERT_TRUE(decode_snip_round2<Fp64>(encode_snip_round(r2), EngineBatch::kQ));
  EXPECT_FALSE(snip_round3(b.ctxs[1], b.checks[1], r2).has_value());
  EXPECT_TRUE(snip_round3(b.ctxs[0], b.checks[0], r2).has_value());
}

}  // namespace
}  // namespace prio
