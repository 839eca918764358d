// Figure 7 reproduction: client encoding time across the application
// scenarios of Section 6.2, for Prio (SNIP), Prio-MPC, NIZK, and the SNARK
// cost model. The number in parentheses is the count of multiplication
// gates in the Valid circuit, matching the figure's x-axis labels.
//
// Scenarios:
//   Cell:    average signal strength per km^2 grid cell -- Geneva (64),
//            Seattle (868), Chicago (2424), London (6280), Tokyo (8760)
//   Browser: RAPPOR-style stats, count-min low/high resolution --
//            LowRes (80), HighRes (1410)
//   Survey:  Beck-21 (84), PCSI-78 (312), CPI-434 (434)
//   LinReg:  Heart (174; 13 mixed-width features), BrCa (929; 30x14-bit)
//
// Expected shape (paper): Prio fastest (milliseconds); Prio-MPC a small
// constant factor above; NIZK 50-100x slower; SNARK estimate ~1000x slower.

#include <cstdio>
#include <memory>

#include "afe/bitvec_sum.h"
#include "afe/countmin.h"
#include "afe/freq.h"
#include "afe/linreg.h"
#include "baseline/nizk.h"
#include "baseline/snark_model.h"
#include "bench_util.h"
#include "core/deployment.h"
#include "core/mpc_deployment.h"

namespace prio {
namespace {

using F = Fp64;

// Type-erased scenario: builds a Valid circuit + a representative encoding.
struct Scenario {
  std::string name;
  const Circuit<F>* circuit;
  std::vector<F> encoding;
};

// Measures client cost for the three measured schemes given a circuit and a
// valid encoding for it.
struct Times {
  double prio_s, mpc_s, nizk_s, snark_est_s;
};

Times measure(const Scenario& sc, bool run_nizk) {
  Times t{};
  SecureRng rng(1);
  const size_t m = sc.circuit->num_mul_gates();

  // Prio client: SNIP proof + compressed shares for 5 servers.
  {
    SnipProver<F> prover(sc.circuit);
    int reps = m > 4000 ? 3 : 10;
    t.prio_s = benchutil::time_seconds([&] {
      for (int i = 0; i < reps; ++i) {
        auto ext = prover.build_extended_input(sc.encoding, rng);
        auto cs = share_vector_compressed<F>(ext, 5, rng);
        volatile size_t sink = cs.explicit_share.size();
        (void)sink;
      }
    }) / reps;
  }

  // Prio-MPC client: M Beaver triples + SNIP over the triples + shares.
  {
    auto triple_circuit = make_triple_check_circuit<F>(m);
    SnipProver<F> prover(&triple_circuit);
    int reps = m > 4000 ? 2 : 5;
    t.mpc_s = benchutil::time_seconds([&] {
      for (int i = 0; i < reps; ++i) {
        auto triples = make_beaver_triples<F>(m, rng);
        auto ext = prover.build_extended_input(triples, rng);
        std::vector<F> flat(sc.encoding);
        flat.insert(flat.end(), ext.begin(), ext.end());
        auto cs = share_vector_compressed<F>(flat, 5, rng);
        volatile size_t sink = cs.explicit_share.size();
        (void)sink;
      }
    }) / reps;
  }

  // NIZK client: one Pedersen commitment + OR proof per mul gate (the
  // proofs replace each bit/product check). Linear in M with a large
  // constant; measure a slice and scale for the big scenarios.
  if (run_nizk) {
    const auto& params = ec::PedersenParams::instance();
    size_t sample = std::min<size_t>(m, 64);
    double per_proof = benchutil::time_seconds([&] {
      for (size_t i = 0; i < sample; ++i) {
        auto cb = ec::prove_bit(params, static_cast<int>(i & 1), rng);
        volatile bool sink = cb.commitment.is_infinity();
        (void)sink;
      }
    }, 1) / sample;
    t.nizk_s = per_proof * m;
  }

  // SNARK: the paper's cost model (never run, as in the paper).
  baseline::SnarkCostModel snark;
  t.snark_est_s = snark.client_seconds(sc.encoding.size(), 5);
  return t;
}

}  // namespace
}  // namespace prio

int main() {
  using namespace prio;
  benchutil::header(
      "Figure 7: client encoding time by scenario (milliseconds)");

  // Keep the AFE objects alive for the duration.
  std::vector<std::unique_ptr<afe::FrequencyCount<F>>> cells;
  std::vector<std::unique_ptr<afe::BitVectorSum<F>>> surveys;
  std::vector<Scenario> scenarios;

  // Cell scenarios: frequency count over G grid cells (G mul gates).
  for (auto [city, cells_n] :
       std::initializer_list<std::pair<const char*, size_t>>{
           {"Cell/Geneva", 64},
           {"Cell/Seattle", 868},
           {"Cell/Chicago", 2424},
           {"Cell/London", 6280},
           {"Cell/Tokyo", 8760}}) {
    cells.push_back(std::make_unique<afe::FrequencyCount<F>>(cells_n));
    scenarios.push_back(
        {city, &cells.back()->valid_circuit(), cells.back()->encode(0)});
  }

  // Browser statistics: count-min sketches sized to the paper's gate
  // counts (LowRes ~80, HighRes ~1410 mul gates), see EXPERIMENTS.md.
  static afe::CountMinSketch<F> low(/*eps=*/std::exp(1.0) / 10, 1.0 / 1024);
  static afe::CountMinSketch<F> high(std::exp(1.0) / 100, 1.0 / (1 << 20));
  scenarios.push_back(
      {"Browser/LowRes", &low.valid_circuit(), low.encode(42)});
  scenarios.push_back(
      {"Browser/HighRes", &high.valid_circuit(), high.encode(42)});

  // Surveys: one bit (or one-hot level) per question.
  for (auto [name, bits] : std::initializer_list<std::pair<const char*, size_t>>{
           {"Survey/Beck-21", 84},     // 21 questions x 4 levels
           {"Survey/PCSI-78", 312},    // 78 questions x 4 levels
           {"Survey/CPI-434", 434}}) {  // 434 booleans
    surveys.push_back(std::make_unique<afe::BitVectorSum<F>>(bits));
    std::vector<u8> v(bits, 0);
    scenarios.push_back({name, &surveys.back()->valid_circuit(),
                         surveys.back()->encode(v)});
  }

  // Regression: Heart (13 mixed-width features summing with target to 70
  // bits -> 174 gates) and BrCa (30 features x 14-bit -> 929 gates).
  static afe::LinearRegression<F> heart(
      std::vector<size_t>{8, 1, 3, 8, 9, 1, 3, 8, 1, 6, 3, 3, 8}, 8);
  static afe::LinearRegression<F> brca(30, 14);
  {
    afe::LinearRegression<F>::Input in;
    in.x = {200, 1, 5, 130, 240, 1, 4, 150, 0, 20, 2, 3, 100};
    in.y = 128;
    scenarios.push_back(
        {"LinReg/Heart", &heart.valid_circuit(), heart.encode(in)});
  }
  {
    afe::LinearRegression<F>::Input in;
    in.x.assign(30, 1000);
    in.y = 9000;
    scenarios.push_back(
        {"LinReg/BrCa", &brca.valid_circuit(), brca.encode(in)});
  }

  std::printf("%-18s %8s %10s %10s %10s %12s\n", "scenario", "xGates",
              "Prio", "Prio-MPC", "NIZK", "SNARK(est)");
  // Milliseconds throughout: the smallest circuits encode in tens of
  // microseconds, which four decimals of a second would print as zero.
  for (const auto& sc : scenarios) {
    auto t = measure(sc, /*run_nizk=*/true);
    std::printf("%-18s %8zu %10.4f %10.4f %10.1f %12.0f\n", sc.name.c_str(),
                sc.circuit->num_mul_gates(), t.prio_s * 1e3, t.mpc_s * 1e3,
                t.nizk_s * 1e3, t.snark_est_s * 1e3);
  }
  std::printf(
      "\nShape check vs paper Fig. 7: Prio clients run in milliseconds,\n"
      "NIZK is 50-100x slower, the SNARK estimate is ~1000x slower.\n");
  return 0;
}
