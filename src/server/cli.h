// Flag parsing shared by the prio_server, prio_client, and prio_loadgen
// binaries: --key value pairs, the --servers endpoint list, and the common
// deployment configuration (--afe / deprecated --len, --master-seed,
// --shards) -- one place knows the flag vocabulary, so the three binaries
// cannot drift apart on how a deployment is named.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "afe/registry.h"
#include "net/tcp_transport.h"
#include "util/common.h"

namespace prio::server {

// One server endpoint as the binaries address it: the peer-mesh port the
// servers dial each other on, and the client port submissions arrive on.
// `host` must be an IPv4 literal ("127.0.0.1", "10.0.0.2"); the transport
// does no DNS resolution.
struct ServerEndpoint {
  std::string host;
  u16 peer_port = 0;
  u16 client_port = 0;
};

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      require(arg.rfind("--", 0) == 0, "flags must look like --key value");
      // A flag followed by another flag (or by nothing) is boolean sugar:
      // "--smoke" stores "1". Every value-taking flag in the vocabulary
      // has a value that cannot start with "--".
      // Values are built as strings and moved in: GCC 12 at -O3 misreads
      // an inlined assign(const char*) here as an overlapping memcpy
      // (-Wrestrict).
      if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
        values_[arg.substr(2)] = std::string("1");
      } else {
        values_[arg.substr(2)] = std::string(argv[++i]);
      }
    }
  }

  std::string str(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  u64 num(const std::string& key, u64 fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return parse_u64(it->second);
  }

  bool has(const std::string& key) const { return values_.count(key) > 0; }

  // Strict double parse for rate/fraction flags.
  double real(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    errno = 0;
    char* end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    require(errno == 0 && end != it->second.c_str() && *end == '\0',
            "flag value is not a valid number");
    return v;
  }

  // Strict decimal parse: a typo like "4o" or an overflow is an error, not
  // a silent zero.
  static u64 parse_u64(const std::string& text) {
    errno = 0;
    char* end = nullptr;
    u64 v = std::strtoull(text.c_str(), &end, 10);
    require(errno == 0 && end != text.c_str() && *end == '\0' &&
                !text.empty() && text[0] != '-',
            "flag value is not a valid unsigned integer");
    return v;
  }

 private:
  std::map<std::string, std::string> values_;
};

// A TCP port given on the command line: in range and non-zero.
inline u16 parse_port(const std::string& text) {
  u64 v = Flags::parse_u64(text);
  require(v >= 1 && v <= 65535, "port must be in [1, 65535]");
  return static_cast<u16>(v);
}

// Parses "host:peer_port:client_port,host:peer_port:client_port,...".
inline std::vector<ServerEndpoint> parse_server_list(const std::string& list) {
  std::vector<ServerEndpoint> out;
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    std::string entry = list.substr(pos, comma - pos);
    size_t c1 = entry.find(':');
    size_t c2 = entry.find(':', c1 == std::string::npos ? c1 : c1 + 1);
    require(c1 != std::string::npos && c2 != std::string::npos,
            "--servers entries must be host:peer_port:client_port");
    ServerEndpoint ep;
    ep.host = entry.substr(0, c1);
    ep.peer_port = parse_port(entry.substr(c1 + 1, c2 - c1 - 1));
    ep.client_port = parse_port(entry.substr(c2 + 1));
    out.push_back(ep);
    pos = comma + 1;
  }
  require(out.size() >= 2, "--servers needs at least two endpoints");
  return out;
}

inline std::vector<net::TcpMeshTransport::PeerAddr> peer_addrs(
    const std::vector<ServerEndpoint>& eps) {
  std::vector<net::TcpMeshTransport::PeerAddr> out;
  out.reserve(eps.size());
  for (const auto& ep : eps) out.push_back({ep.host, ep.peer_port});
  return out;
}

// The deployment's AFE, from --afe SPEC (afe/registry.h grammar). The
// pre-catalogue --len N flag is still accepted as sugar for
// --afe bitvec_sum:len=N; it is deprecated and the two are mutually
// exclusive so a contradictory invocation fails instead of guessing.
// Returns the spec AS GIVEN (with_afe normalizes it against the
// catalogue's defaults and ranges).
inline afe::AfeSpec resolve_afe_spec(const Flags& flags) {
  if (flags.has("len")) {
    require(!flags.has("afe"),
            "--len is deprecated sugar for --afe bitvec_sum:len=N; "
            "give one of --afe/--len, not both");
    std::fprintf(stderr,
                 "note: --len is deprecated; use --afe bitvec_sum:len=%llu\n",
                 static_cast<unsigned long long>(flags.num("len", 16)));
    return afe::parse_afe_spec("bitvec_sum:len=" +
                               std::to_string(flags.num("len", 16)));
  }
  return afe::parse_afe_spec(flags.str("afe", "bitvec_sum:len=16"));
}

// Deployment parameters every binary agrees on (all servers and all
// clients of one deployment must be launched with equal values).
struct CommonConfig {
  std::vector<ServerEndpoint> endpoints;
  u64 master_seed = 1;
  size_t shards = 1;
  // --pipeline-depth: 1 = serial lanes (byte-identical legacy wire), 2 =
  // prefetch batch N+1 while batch N's rounds are in flight. Depths above
  // 2 are accepted and behave as 2 (one prefetched slot). Part of the
  // deployment identity: depth >= 2 doubles the mesh's transport lane
  // count (a control lane per shard), so all servers must agree.
  size_t pipeline_depth = 1;
  afe::AfeSpec spec;  // as given; normalize via afe::with_afe
};

// Transport lanes the mesh needs for a deployment: one per shard, plus a
// control lane per shard when pipelining (announcements read ahead of the
// data lane's round frames).
inline size_t mesh_lane_count(const CommonConfig& cfg) {
  return cfg.shards * (cfg.pipeline_depth >= 2 ? 2 : 1);
}

inline CommonConfig parse_common_config(const Flags& flags) {
  CommonConfig cfg;
  cfg.endpoints = parse_server_list(
      flags.str("servers", "127.0.0.1:9101:9201,127.0.0.1:9102:9202"));
  cfg.master_seed = flags.num("master-seed", 1);
  cfg.shards = flags.num("shards", 1);
  require(cfg.shards >= 1 && cfg.shards <= 255, "--shards must be 1..255");
  cfg.pipeline_depth = flags.num("pipeline-depth", 1);
  require(cfg.pipeline_depth >= 1 && cfg.pipeline_depth <= 8,
          "--pipeline-depth must be 1..8");
  require(mesh_lane_count(cfg) <= 255,
          "--shards with --pipeline-depth >= 2 needs shards <= 127");
  cfg.spec = resolve_afe_spec(flags);
  return cfg;
}

}  // namespace prio::server
