// The four server-to-server rounds that verify a batch of SNIPs (Section
// 4.2, batched per Section 6 and Appendix I), as one server's pure step
// functions over message structs. Nothing here sends, receives, blocks or
// spawns a thread; the callers move the messages:
//   * PrioDeployment (core/deployment.h) runs s engines in lock-step and
//     accounts the traffic on a SimNetwork; its serial path is a batch of
//     one whose leader is client_id mod s;
//   * PrioMpcDeployment (core/mpc_deployment.h) runs them over the SNIP
//     that proves its Beaver triples well formed;
//   * ServerNode::run_rounds (server/node.h) seals, sends and receives the
//     encoded messages over a net::Transport, one engine per server.
//
// Batch flow (q submissions; a submission is live iff every server parsed
// it; ql are live):
//   round 1  every server -> leader   parse bitmap(q) + q (d, e) shares
//   combine  leader                   AND the bitmaps, sum (d, e) over live
//   round 2  leader -> every server   live bitmap(q) + ql (d, e) totals
//   round 3  every server -> leader   ql (sigma, out) shares
//   decide   leader                   accept iff sigma and out both sum to 0
//   round 4  leader -> every server   decision bitmap(q)
// A non-leader therefore sends a constant ~4 field elements per submission
// whatever its length -- the flat Prio line of Figure 6. After round 4
// each server applies its replay floor and aggregates its x-shares in
// submission order, so every server reaches the same verdicts.
//
// Precondition: q must not exceed the refresh window. The whole batch is
// checked under one secret point r, which may serve at most refresh_every
// submissions (VerificationContext::refresh_due); callers split larger
// batches (process_in_refresh_chunks) or refuse them (prio_server --batch).
//
// The decoders apply the wire's bounds checks: a body that is truncated,
// oversized, has trailing bytes, or whose counts disagree with the batch
// is refused (nullopt). snip_round3 refuses a round 2 that marks live a
// submission this server did not parse (an equivocating leader).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "net/wire.h"
#include "snip/snip.h"

namespace prio {

// One server's round-1 inputs for a batch: which submissions it parsed
// and, for those, its SNIP local-check state. Distinct v may be set from
// distinct threads.
template <PrimeField F>
struct SnipLocalChecks {
  explicit SnipLocalChecks(size_t q = 0) : parsed(q, 0), states(q) {}
  size_t size() const { return parsed.size(); }
  void set(size_t v, const SnipLocalState<F>& st) {
    parsed[v] = 1;
    states[v] = st;
  }
  std::vector<u8> parsed;
  std::vector<SnipLocalState<F>> states;
};

template <PrimeField F>
struct SnipRound1 {
  std::vector<u8> parsed;           // q bits
  std::vector<std::pair<F, F>> de;  // q (d, e) shares, zero where unparsed
};

template <PrimeField F>
struct SnipRound2 {
  std::vector<u8> live;             // q bits
  std::vector<std::pair<F, F>> de;  // ql (d, e) totals, in live order
};

template <PrimeField F>
struct SnipRound3 {
  std::vector<std::pair<F, F>> sigma_out;  // ql (sigma, out) shares
};

struct SnipRound4 {
  std::vector<u8> accept;  // q bits, set only on live submissions
};

template <PrimeField F>
SnipRound1<F> snip_round1(const SnipLocalChecks<F>& checks) {
  SnipRound1<F> m{checks.parsed, {}};
  m.de.assign(checks.size(), {F::zero(), F::zero()});
  for (size_t v = 0; v < checks.size(); ++v) {
    if (checks.parsed[v]) {
      m.de[v] = {checks.states[v].d_share, checks.states[v].e_share};
    }
  }
  return m;
}

// Leader: every server's round-1 message, its own included.
template <PrimeField F>
SnipRound2<F> snip_combine(std::span<const SnipRound1<F>> msgs) {
  require(!msgs.empty(), "snip_combine: no messages");
  const size_t q = msgs[0].parsed.size();
  SnipRound2<F> out{std::vector<u8>(q, 1), {}};
  for (const auto& m : msgs) {
    require(m.parsed.size() == q && m.de.size() == q,
            "snip_combine: batch size mismatch");
    for (size_t v = 0; v < q; ++v) out.live[v] &= m.parsed[v];
  }
  for (size_t v = 0; v < q; ++v) {
    if (!out.live[v]) continue;
    F d = F::zero(), e = F::zero();
    for (const auto& m : msgs) {
      d += m.de[v].first;
      e += m.de[v].second;
    }
    out.de.emplace_back(d, e);
  }
  return out;
}

// Every server: its (sigma, out) shares for the live set.
template <PrimeField F>
std::optional<SnipRound3<F>> snip_round3(const VerificationContext<F>& ctx,
                                         const SnipLocalChecks<F>& checks,
                                         const SnipRound2<F>& totals) {
  if (totals.live.size() != checks.size()) return std::nullopt;
  SnipRound3<F> out;
  for (size_t v = 0; v < checks.size(); ++v) {
    if (!totals.live[v]) continue;
    const size_t i = out.sigma_out.size();
    if (!checks.parsed[v] || i == totals.de.size()) return std::nullopt;
    const SnipLocalState<F>& st = checks.states[v];
    out.sigma_out.emplace_back(
        snip_sigma_share(ctx, st, totals.de[i].first, totals.de[i].second),
        st.out_combo);
  }
  if (out.sigma_out.size() != totals.de.size()) return std::nullopt;
  return out;
}

// Leader: every server's round-3 message, its own included.
template <PrimeField F>
SnipRound4 snip_decide(const SnipRound2<F>& totals,
                       std::span<const SnipRound3<F>> msgs) {
  for (const auto& m : msgs) {
    require(m.sigma_out.size() == totals.de.size(),
            "snip_decide: live count mismatch");
  }
  SnipRound4 out{std::vector<u8>(totals.live.size(), 0)};
  for (size_t v = 0, i = 0; v < totals.live.size(); ++v) {
    if (!totals.live[v]) continue;
    F sigma = F::zero(), combo = F::zero();
    for (const auto& m : msgs) {
      sigma += m.sigma_out[i].first;
      combo += m.sigma_out[i].second;
    }
    out.accept[v] = snip_accept(sigma, combo) ? 1 : 0;
    ++i;
  }
  return out;
}

// Wire encoding: length-prefixed bitmaps and (F, F) vectors (net/wire.h).
template <PrimeField F>
std::vector<u8> encode_snip_round(const SnipRound1<F>& m) {
  net::Writer w;
  w.bitmap(m.parsed);
  w.field_pairs<F>(m.de);
  return w.take();
}

template <PrimeField F>
std::vector<u8> encode_snip_round(const SnipRound2<F>& m) {
  net::Writer w;
  w.bitmap(m.live);
  w.field_pairs<F>(m.de);
  return w.take();
}

template <PrimeField F>
std::vector<u8> encode_snip_round(const SnipRound3<F>& m) {
  net::Writer w;
  w.field_pairs<F>(m.sigma_out);
  return w.take();
}

inline std::vector<u8> encode_snip_round(const SnipRound4& m) {
  net::Writer w;
  w.bitmap(m.accept);
  return w.take();
}

template <PrimeField F>
std::optional<SnipRound1<F>> decode_snip_round1(std::span<const u8> body,
                                                size_t q) {
  net::Reader r(body);
  SnipRound1<F> m{r.bitmap(q), r.field_pairs<F>(q)};
  if (!r.ok() || !r.at_end() || m.parsed.size() != q || m.de.size() != q) {
    return std::nullopt;
  }
  return m;
}

template <PrimeField F>
std::optional<SnipRound2<F>> decode_snip_round2(std::span<const u8> body,
                                                size_t q) {
  net::Reader r(body);
  SnipRound2<F> m{r.bitmap(q), r.field_pairs<F>(q)};
  size_t n_live = 0;
  for (u8 b : m.live) n_live += b;
  if (!r.ok() || !r.at_end() || m.live.size() != q || m.de.size() != n_live) {
    return std::nullopt;
  }
  return m;
}

template <PrimeField F>
std::optional<SnipRound3<F>> decode_snip_round3(std::span<const u8> body,
                                                size_t ql) {
  net::Reader r(body);
  SnipRound3<F> m{r.field_pairs<F>(ql)};
  if (!r.ok() || !r.at_end() || m.sigma_out.size() != ql) return std::nullopt;
  return m;
}

inline std::optional<SnipRound4> decode_snip_round4(std::span<const u8> body,
                                                    size_t q) {
  net::Reader r(body);
  SnipRound4 m{r.bitmap(q)};
  if (!r.ok() || !r.at_end() || m.accept.size() != q) return std::nullopt;
  return m;
}

}  // namespace prio
