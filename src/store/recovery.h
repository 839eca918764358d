// Durable epoch store facade + crash-recovery manager for prio_server.
//
// EpochStore owns one server's --data-dir: the current WAL segment
// (store/wal.h) and the epoch snapshot set (store/snapshot.h). The runtime
// (server/shard.h) appends three kinds of records as the epoch runs:
//
//   kWalIntake      u64 client_id, u64 seq, bytes blob
//       -- a sealed client blob accepted at intake, written BEFORE the
//          submit ack, so every blob a batch announcement can ever name is
//          already durable on this server.
//   kWalBatch       u32 count, count * (u64 client_id, u64 seq),
//                   bitmap verdicts
//       -- one committed verification batch: the announced submission ids
//          in batch order plus the final accept bitmap every node agreed
//          on. Written after process_batch returns.
//   kWalEpochClose  u32 epoch, u64 accepted, bytes sigma_enc
//       -- the epoch was published. sigma_enc is the wire encoding of the
//          decoded aggregate's accumulator on server 0 (so a restarted
//          server 0 can keep serving past epochs to clients) and empty on
//          the other servers.
//   kWalGeneration  u64 gen
//       -- the mesh negotiated a new channel-key generation; logged (and
//          synced) before the first frame sealed under it, so a full-mesh
//          restart can never renegotiate a generation already used.
//
// recover_node() rebuilds a freshly constructed ServerNode from the newest
// valid snapshot plus a replay of every WAL segment at or after it. A torn
// or corrupt segment tail is truncated at the first bad CRC and replay
// continues -- recovery never throws on corrupt input, it returns the
// clean prefix of history. Accepted submissions are re-opened from their
// sealed intake blobs to rebuild the accumulator and replay-guard floors
// exactly as the live run computed them.
#pragma once

#include <sys/stat.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/wire.h"
#include "obs/metrics.h"
#include "server/node.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace prio::store {

// One server's durable state directory. Thread-safe: intake threads append
// concurrently with the protocol thread's batch/epoch appends.
class EpochStore {
 public:
  // Intake-byte budget per segment: honest epochs stay far below it, but a
  // flood of distinct (client, seq) pairs -- which the in-memory buffer
  // sheds by eviction -- must not grow the epoch's segment without bound.
  // Over budget, append_intake refuses and the runtime nacks the
  // submission instead of acking durability it cannot provide.
  static constexpr size_t kMaxIntakeBytesPerSegment = size_t{1} << 30;

  EpochStore(std::string dir, FsyncPolicy policy)
      : dir_(std::move(dir)), policy_(policy),
        snapshots_(dir_, policy != FsyncPolicy::kOff) {
    ::mkdir(dir_.c_str(), 0777);  // one level; EEXIST is fine
  }

  const std::string& dir() const { return dir_; }
  FsyncPolicy policy() const { return policy_; }
  SnapshotStore& snapshots() { return snapshots_; }

  // Registers WAL append/fsync latency histograms and a rotation counter
  // (label e.g. shard="2"). Call during setup, before concurrent appends.
  void attach_metrics(obs::Registry* registry, const std::string& label) {
    m_append_ = registry->histogram(
        "prio_wal_append_seconds",
        "WAL record append latency (includes the per-record fsync under "
        "--fsync always)",
        label);
    m_fsync_ = registry->histogram("prio_wal_fsync_seconds",
                                   "Explicit WAL fsync latency", label);
    m_rotations_ = registry->counter(
        "prio_wal_rotations_total", "Epoch-boundary segment rotations", label);
  }

  // Points the writer at the segment for `epoch` (recovery calls this once
  // it knows the node's position; rotate() advances it afterwards).
  void open_segment(u32 epoch) {
    std::lock_guard<std::mutex> lock(mu_);
    open_segment_locked(epoch);
  }

  // False when the segment's intake budget is exhausted (the caller must
  // nack rather than ack an unlogged blob).
  bool append_intake(u64 client_id, u64 seq, std::span<const u8> blob) {
    net::Writer w;
    w.u64_(client_id);
    w.u64_(seq);
    w.bytes(blob);
    std::lock_guard<std::mutex> lock(mu_);
    require(wal_ != nullptr, "EpochStore: append before open_segment");
    if (segment_intake_bytes_ + w.size() > kMaxIntakeBytesPerSegment) {
      return false;
    }
    segment_intake_bytes_ += w.size();
    {
      obs::ScopedTimer t(m_append_);
      wal_->append(kWalIntake, w.data());
    }
    return true;
  }

  void append_batch(std::span<const std::pair<u64, u64>> ids,
                    std::span<const u8> verdicts) {
    net::Writer w;
    w.u32_(static_cast<u32>(ids.size()));
    for (const auto& [cid, seq] : ids) {
      w.u64_(cid);
      w.u64_(seq);
    }
    w.bitmap(verdicts);
    append(kWalBatch, w.data());
  }

  static std::string aggregates_path(const std::string& dir) {
    return dir + "/aggregates.log";
  }

  void append_epoch_close(u32 epoch, u64 accepted,
                          std::span<const u8> sigma_enc) {
    net::Writer w;
    w.u32_(epoch);
    w.u64_(accepted);
    w.bytes(sigma_enc);
    // Server 0 also logs the aggregate to the never-rotated aggregates
    // log (segment rotation prunes old epochs' segments, but clients may
    // ask for any past epoch) -- before the segment's close record, so a
    // crash between the two re-publishes the same bytes rather than
    // closing an epoch whose aggregate was never saved.
    if (!sigma_enc.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!agg_log_) {
        agg_log_ = std::make_unique<WalWriter>(aggregates_path(dir_), policy_);
      }
      agg_log_->append(kWalEpochClose, w.data());
    }
    append(kWalEpochClose, w.data());
  }

  // Logs a mesh channel-key generation bump. Must be called BEFORE any
  // frame is sealed under the new generation: recovery restores the max
  // of the snapshot's generation and every logged bump, so a full-mesh
  // restart (every node losing its in-memory generation at once) still
  // negotiates max+1 strictly above anything ever put on the wire --
  // without the record, a retried batch after a coordinated crash would
  // reuse (key, nonce) pairs on different plaintext. Synced immediately:
  // bumps are rare (one per mesh establishment) and the key-reuse guard
  // must survive power loss even under the kEpoch policy, which only
  // trades away durability of data (kOff stays best-effort, as documented).
  void append_generation(u64 gen) {
    net::Writer w;
    w.u64_(gen);
    std::lock_guard<std::mutex> lock(mu_);
    require(wal_ != nullptr, "EpochStore: append before open_segment");
    {
      obs::ScopedTimer t(m_append_);
      wal_->append(kWalGeneration, w.data());
    }
    obs::ScopedTimer t(m_fsync_);
    require(wal_->sync(), "EpochStore: generation record failed to sync");
  }

  // One acked-but-unconsumed intake blob carried across an epoch boundary
  // (see rotate()).
  struct CarryOver {
    u64 client_id = 0;
    u64 seq = 0;
    std::span<const u8> blob;
  };

  // Epoch boundary: fsync the closed segment (policies always/epoch),
  // publish the boundary snapshot, start the next segment, re-log the
  // intake blobs the closed epoch acked but never consumed (their only
  // durable copy lives in the segments about to be pruned), and only then
  // drop segments and snapshots the new snapshot makes unreachable. If
  // the snapshot cannot be published, nothing is pruned -- recovery still
  // reaches the same state from the older snapshot plus every retained
  // segment. Idempotent for a repeated (new_epoch, same inputs) call,
  // which the rejoin path relies on: duplicate carry-over records dedup
  // at recovery exactly like duplicate intake records.
  void rotate(u32 new_epoch, std::span<const u8> node_snapshot,
              std::span<const CarryOver> carry_over = {}) {
    std::lock_guard<std::mutex> lock(mu_);
    if (m_rotations_) m_rotations_->inc();
    bool synced;
    {
      obs::ScopedTimer t(m_fsync_);
      synced = !wal_ || wal_->sync();
      if (agg_log_) synced = agg_log_->sync() && synced;
    }
    const bool snap_ok = snapshots_.write(new_epoch, node_snapshot);
    open_segment_locked(new_epoch);
    for (const CarryOver& c : carry_over) {
      net::Writer w;
      w.u64_(c.client_id);
      w.u64_(c.seq);
      w.bytes(c.blob);
      segment_intake_bytes_ += w.size();  // bounded by the runtime buffer
      wal_->append(kWalIntake, w.data());
    }
    // The carry-over must be durable (per policy) before the old segments
    // holding the originals can go. Any failed sync (EIO and friends)
    // blocks the prune the same way a failed snapshot write does: deleting
    // the only copies that verifiably reached the disk, on the strength of
    // replacements that may still be stuck in a failing page cache, is how
    // a recoverable I/O hiccup becomes data loss at the next power cut.
    {
      obs::ScopedTimer t(m_fsync_);
      synced = wal_->sync() && synced;
    }
    if (snap_ok && synced) {
      prune_wal_segments(dir_, new_epoch);
      snapshots_.prune(new_epoch);
    }
  }

 private:
  void open_segment_locked(u32 epoch) {
    wal_ = std::make_unique<WalWriter>(dir_, epoch, policy_);
    segment_intake_bytes_ = 0;
    // The new segment's directory entry must be durable too, or a power
    // loss could orphan fsynced records inside a file with no name.
    if (policy_ != FsyncPolicy::kOff) fsync_dir(dir_);
  }

  void append(u8 type, std::span<const u8> payload) {
    std::lock_guard<std::mutex> lock(mu_);
    require(wal_ != nullptr, "EpochStore: append before open_segment");
    obs::ScopedTimer t(m_append_);
    wal_->append(type, payload);
  }

  std::string dir_;
  FsyncPolicy policy_;
  SnapshotStore snapshots_;
  std::mutex mu_;
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<WalWriter> agg_log_;  // server 0: published aggregates
  size_t segment_intake_bytes_ = 0;
  obs::Histogram* m_append_ = nullptr;
  obs::Histogram* m_fsync_ = nullptr;
  obs::Counter* m_rotations_ = nullptr;
};

// What recovery hands back to the runtime, beyond the restored node: the
// unconsumed intake buffer, the published-epoch history (server 0), and
// the last committed batch (the rejoin catch-up record peers may ask for).
template <PrimeField F, typename Afe>
struct RecoveryResult {
  bool ok = false;
  std::string error;

  std::map<std::pair<u64, u64>, std::vector<u8>> buffer;
  std::map<u32, typename ServerNode<F, Afe>::EpochAggregate> published;
  std::vector<std::pair<u64, u64>> last_batch_ids;
  std::vector<u8> last_batch_verdicts;

  bool used_snapshot = false;
  u32 segments_replayed = 0;
  u32 truncated_tails = 0;
  u64 intake_records = 0;
  u64 batches_applied = 0;
  u64 epochs_closed = 0;
};

// Rebuilds `node` (freshly constructed, same config as the crashed
// process) from `store`'s snapshot + WAL. Returns ok=false only on
// semantic corruption (an accepted blob that no longer opens, a record
// stream that contradicts itself) or an I/O failure that would make the
// repair unsound (a torn tail the disk refuses to truncate); torn tails
// themselves are truncated and absorbed.
// `max_buffer` caps the rebuilt intake buffer at the runtime's own bound
// (the WAL may hold records for blobs the live run later evicted);
// lowest (client, seq) keys -- the oldest per client -- are shed first,
// mirroring the live oldest-first eviction as closely as the log allows.
template <PrimeField F, typename Afe>
RecoveryResult<F, Afe> recover_node(ServerNode<F, Afe>* node, const Afe* afe,
                                    EpochStore* store,
                                    size_t max_buffer = 1 << 16) {
  RecoveryResult<F, Afe> out;

  if (auto snap = store->snapshots().load_newest()) {
    if (!node->restore_state(snap->bytes)) {
      out.error = "snapshot " + std::to_string(snap->epoch) +
                  " passed its CRC but failed to restore (version mismatch?)";
      return out;
    }
    out.used_snapshot = true;
  }

  const u32 snap_epoch = out.used_snapshot ? node->epoch() : 0;
  for (u32 seg_epoch : list_wal_epochs(store->dir())) {
    // Segments below the snapshot epoch survive only when a crash
    // interrupted rotate() between the snapshot publish and the carry-over
    // sync (or the prune). Their batches and epoch closes are already
    // inside the snapshot, but their intake records may hold the ONLY
    // durable copy of acked-but-unconsumed blobs (the carry-over that
    // would have re-logged them never happened), so they replay in
    // buffer-only mode: intake records fill the buffer, batch records
    // consume the blobs they named, and node state is never touched.
    const bool buffer_only = out.used_snapshot && seg_epoch < snap_epoch;
    const std::string path = wal_segment_path(store->dir(), seg_epoch);
    WalSegment seg = read_segment(path);
    if (seg.torn_tail) {
      // Truncate at the first bad CRC so the next append continues a
      // clean stream. This must succeed before the server may run: an
      // append after retained garbage sits past the first bad CRC, where
      // no future replay can reach it -- every record written from then
      // on would be silently lost at the next restart. (Corrupt *input*
      // never fails recovery; a disk that refuses the repair does.)
      if (!truncate_segment(path, seg.clean_bytes)) {
        out.error = "cannot truncate torn tail of " + path;
        return out;
      }
      ++out.truncated_tails;
    }
    ++out.segments_replayed;

    for (const WalRecord& rec : seg.records) {
      net::Reader r(rec.payload);
      if (rec.type == kWalIntake) {
        const u64 cid = r.u64_();
        const u64 seq = r.u64_();
        auto blob = r.bytes();
        if (!r.ok() || !r.at_end()) {
          out.error = "malformed intake record";
          return out;
        }
        // A client retry may have logged the same (cid, seq) twice; the
        // first copy wins, as it did in the live intake buffer.
        out.buffer.try_emplace({cid, seq}, std::move(blob));
        ++out.intake_records;
      } else if (rec.type == kWalBatch) {
        const u32 count = r.u32_();
        if (!r.ok() || count == 0 || count > (1u << 20)) {
          out.error = "malformed batch record";
          return out;
        }
        std::vector<std::pair<u64, u64>> ids;
        ids.reserve(count);
        for (u32 i = 0; i < count; ++i) {
          const u64 cid = r.u64_();
          const u64 seq = r.u64_();
          ids.push_back({cid, seq});
        }
        auto verdicts = r.bitmap(count);
        if (!r.ok() || !r.at_end() || verdicts.size() != count) {
          out.error = "malformed batch record";
          return out;
        }
        if (buffer_only) {
          // The snapshot already reflects this batch; just consume the
          // blobs it named (a blob from an even older, pruned segment may
          // legitimately be absent) and keep it as the catch-up record --
          // a live node, too, remembers its last committed batch across a
          // rotation.
          for (const auto& id : ids) out.buffer.erase(id);
          out.last_batch_ids = std::move(ids);
          out.last_batch_verdicts.assign(verdicts.begin(), verdicts.end());
          continue;
        }
        // Reassemble this server's view of the batch from the intake
        // records, consuming the named blobs like the live assemble did.
        std::vector<SubmissionShare> shares(count);
        for (u32 i = 0; i < count; ++i) {
          shares[i].client_id = ids[i].first;
          auto it = out.buffer.find(ids[i]);
          if (it != out.buffer.end()) {
            shares[i].blob = std::move(it->second);
            out.buffer.erase(it);
          } else if (verdicts[i]) {
            out.error = "batch record accepts a blob the WAL never logged";
            return out;
          }
        }
        if (!node->apply_batch_record(shares, verdicts)) {
          out.error = "accepted blob failed to re-open during replay";
          return out;
        }
        out.last_batch_ids = std::move(ids);
        out.last_batch_verdicts.assign(verdicts.begin(), verdicts.end());
        ++out.batches_applied;
      } else if (rec.type == kWalEpochClose) {
        const u32 epoch = r.u32_();
        const u64 accepted = r.u64_();
        auto sigma_enc = r.bytes();
        if (!r.ok() || !r.at_end()) {
          out.error = "malformed epoch-close record";
          return out;
        }
        if (buffer_only) {
          continue;  // inside the snapshot; server 0's aggregate history
        }            // is reloaded from aggregates.log below
        if (epoch + 1 == node->epoch()) {
          continue;  // duplicate from a retried publish; already applied
        }
        if (epoch != node->epoch()) {
          out.error = "epoch-close record out of order";
          return out;
        }
        if (node->self() == 0 && !sigma_enc.empty()) {
          net::Reader sr(sigma_enc);
          auto sigma = sr.template field_vector<F>(afe->k_prime());
          if (!sr.ok() || !sr.at_end() || sigma.size() != afe->k_prime()) {
            out.error = "malformed published accumulator in epoch record";
            return out;
          }
          typename ServerNode<F, Afe>::EpochAggregate agg;
          agg.epoch = epoch;
          agg.accepted = accepted;
          agg.sigma = std::move(sigma);
          agg.result = decode_aggregate<F>(
              *afe, std::span<const F>(agg.sigma), agg.accepted);
          out.published.emplace(epoch, std::move(agg));
        }
        node->close_epoch_local();
        ++out.epochs_closed;
      } else if (rec.type == kWalGeneration) {
        const u64 gen = r.u64_();
        if (!r.ok() || !r.at_end()) {
          out.error = "malformed generation record";
          return out;
        }
        // Max, not last: the snapshot's generation may already be ahead of
        // an old segment's records, and bumps themselves only ever grow.
        node->set_generation(std::max(node->generation(), gen));
      } else {
        out.error = "unknown WAL record type";
        return out;
      }
    }
  }

  // Server 0: reload the published-aggregate history from the never-
  // rotated aggregates log (old epochs' segments are pruned, but clients
  // may still ask for any past epoch). A torn tail is truncated like any
  // segment; an entry at or past the current epoch belongs to a
  // publication that never committed and is re-derived by re-publishing.
  if (node->self() == 0) {
    const std::string agg_path = EpochStore::aggregates_path(store->dir());
    WalSegment agg_log = read_segment(agg_path);
    if (agg_log.torn_tail) {
      if (!truncate_segment(agg_path, agg_log.clean_bytes)) {
        out.error = "cannot truncate torn tail of " + agg_path;
        return out;
      }
      ++out.truncated_tails;
    }
    for (const WalRecord& rec : agg_log.records) {
      net::Reader r(rec.payload);
      const u32 epoch = r.u32_();
      const u64 accepted = r.u64_();
      auto sigma_enc = r.bytes();
      if (rec.type != kWalEpochClose || !r.ok() || !r.at_end()) {
        out.error = "malformed aggregates-log record";
        return out;
      }
      if (epoch >= node->epoch() || out.published.count(epoch) > 0) continue;
      net::Reader sr(sigma_enc);
      auto sigma = sr.template field_vector<F>(afe->k_prime());
      if (!sr.ok() || !sr.at_end() || sigma.size() != afe->k_prime()) {
        out.error = "malformed aggregates-log record";
        return out;
      }
      typename ServerNode<F, Afe>::EpochAggregate agg;
      agg.epoch = epoch;
      agg.accepted = accepted;
      agg.sigma = std::move(sigma);
      agg.result = decode_aggregate<F>(*afe, std::span<const F>(agg.sigma),
                                       agg.accepted);
      out.published.emplace(epoch, std::move(agg));
    }
  }

  while (out.buffer.size() > max_buffer) out.buffer.erase(out.buffer.begin());

  // Future appends continue the open epoch's segment.
  store->open_segment(node->epoch());
  out.ok = true;
  return out;
}

}  // namespace prio::store
