// ReplicaStore — one peer's durable state: a frame WAL plus a snapshot,
// under one data directory.
//
// Layout on disk (inside StoreConfig::data_dir):
//
//   wal.log       append-only frame log (see wal.hpp)
//   snapshot.bin  checksummed compaction point (see snapshot.hpp)
//
// Lifecycle: open() reads the snapshot, scans the log's valid prefix and
// keeps the recovered records buffered; the owner applies the snapshot
// state (take_snapshot_state → ReplicaNode::import_durable_state), then
// replay()s the buffered frames through handle_frame, then appends new
// frames as they arrive. write_snapshot() atomically replaces the
// snapshot and truncates the log — sequence numbering continues across
// the truncation, so a stale tail can never splice onto a newer log.
//
// Recovery is tolerant by construction:
//  - torn/corrupt log tail → longest valid prefix, file truncated to it;
//  - corrupt snapshot      → empty base state, log still salvaged using
//    its own first record as the sequence base (values folded into the
//    lost snapshot are gone, but everything still in the log survives,
//    and anti-entropy pulls refill the rest);
//  - records at or below the snapshot's last_seq (a crash between
//    snapshot write and log truncation leaves them) are replayed anyway —
//    replay goes through the same duplicate-tolerant handle_frame path as
//    live traffic, so re-applying superseded records is a no-op.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace updp2p::store {

/// Fault-injection switchboard for crash/chaos harnesses. A harness shares
/// one instance with the store through StoreConfig::faults and flips the
/// flags mid-run; the store consults them at its two write points and
/// counts what actually fired. The same instance survives a simulated
/// restart (the harness passes it into the reopened store's config), so a
/// "broken disk" stays broken across process lifetimes. Never set in
/// production configs.
struct StoreFaults {
  bool fail_appends = false;    ///< append_frame reports I/O failure
  bool fail_snapshots = false;  ///< write_snapshot fails before writing
  /// Simulated crash between snapshot write and log truncation: the new
  /// snapshot lands durably but the stale log survives — the interleaving
  /// recovery's bad-sequence salvage path exists to absorb. write_snapshot
  /// reports failure (as a crashed process would never report at all);
  /// pair it with an immediate kill, before further appends extend the
  /// stale log.
  bool torn_snapshots = false;
  std::uint64_t appends_failed = 0;
  std::uint64_t snapshots_failed = 0;
  std::uint64_t snapshots_torn = 0;
};

struct StoreConfig {
  /// Data directory for this peer. Empty = durability disabled.
  std::string data_dir;
  /// Write a snapshot (and truncate the log) after this many appended
  /// records. 0 disables the count trigger.
  std::uint64_t snapshot_every_records = 256;
  /// Periodic snapshot cadence in runtime seconds (armed on the owner's
  /// timer queue; a timer-triggered snapshot is skipped while the log is
  /// empty). 0 disables the timer trigger.
  common::SimTime snapshot_interval = 0.0;
  /// fsync(2) after every append. Off by default: the paper's failure
  /// model is process death (SIGKILL), against which a completed write(2)
  /// already survives; power-loss durability costs an fsync per receipt.
  bool fsync_appends = false;
  /// Optional fault injection (chaos/crash tests only). nullptr in every
  /// production path; shared so a harness can flip faults mid-run and
  /// carry them across simulated restarts.
  std::shared_ptr<StoreFaults> faults;

  [[nodiscard]] bool enabled() const noexcept { return !data_dir.empty(); }
};

struct StoreStats {
  std::uint64_t records_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t records_since_snapshot = 0;
  // Recovery diagnostics, fixed at open():
  std::uint64_t records_recovered = 0;   ///< valid WAL records replayable
  std::uint64_t values_recovered = 0;    ///< values in the snapshot
  std::uint64_t wal_discarded_bytes = 0; ///< torn/corrupt tail dropped
  WalTail recovery_tail = WalTail::kCleanEnd;
  bool snapshot_corrupt = false;
};

class ReplicaStore {
 public:
  struct RecoveredFrame {
    common::PeerId from;
    common::Round round = 0;
    std::span<const std::byte> frame;  ///< valid only inside replay()'s cb
  };

  /// Opens (creating if needed) the data directory, reads the snapshot,
  /// scans the WAL and truncates its corrupt tail, and leaves the log
  /// open for appending. nullopt only on I/O errors (mkdir/open/truncate
  /// failures) — NEVER on corruption, which recovery absorbs.
  [[nodiscard]] static std::optional<ReplicaStore> open(StoreConfig config,
                                                       std::string* error);

  /// Moves out the snapshot's recovered base state (membership + values).
  /// Call once, before replay().
  [[nodiscard]] SnapshotData take_snapshot_state();

  /// Invokes `fn` for every recovered WAL record in append order, then
  /// frees the recovery buffer. Call once, after take_snapshot_state().
  void replay(const std::function<void(const RecoveredFrame&)>& fn);

  /// Appends one frame with its delivery context. Returns the record's
  /// sequence number, or nullopt on I/O failure (the caller keeps running
  /// volatile — durability degrades, the protocol does not stop).
  std::optional<std::uint64_t> append_frame(common::PeerId from,
                                            common::Round round,
                                            std::span<const std::byte> frame);

  /// True when the count trigger says the log has earned a compaction.
  [[nodiscard]] bool snapshot_due() const noexcept;

  /// Atomically writes `membership` + `values` as the new snapshot (its
  /// last_seq is the last appended record) and truncates the log.
  [[nodiscard]] bool write_snapshot(
      const common::ChunkedPeerSet& membership,
      std::vector<version::VersionedValue> values, std::string* error);

  /// fsync(2) the WAL (e.g. before an orderly shutdown).
  bool sync() { return wal_.sync(); }

  [[nodiscard]] const StoreStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const StoreConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t next_seq() const noexcept {
    return wal_.next_seq();
  }
  [[nodiscard]] const std::string& wal_path() const noexcept {
    return wal_path_;
  }
  [[nodiscard]] const std::string& snapshot_path() const noexcept {
    return snapshot_path_;
  }

 private:
  ReplicaStore() = default;

  struct RecordRef {
    common::PeerId from;
    common::Round round = 0;
    std::size_t offset = 0;  ///< frame offset into recovered_log_
    std::size_t size = 0;
  };

  StoreConfig config_;
  std::string wal_path_;
  std::string snapshot_path_;
  FrameWal wal_;
  StoreStats stats_;
  SnapshotData snapshot_state_;             ///< until take_snapshot_state()
  std::vector<std::byte> recovered_log_;    ///< valid WAL prefix, until replay()
  std::vector<RecordRef> recovered_records_;
};

}  // namespace updp2p::store
