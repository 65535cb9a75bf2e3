#include "store/replica_store.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

namespace updp2p::store {

namespace {

/// mkdir -p, leaf first: an existing directory (or one whose parent
/// exists) costs a single mkdir; parents are created only after the leaf
/// failed with ENOENT. On failure errno describes the failing step.
bool make_dirs(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) return true;
  if (errno != ENOENT) return false;
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) return false;
  if (!make_dirs(path.substr(0, slash))) return false;
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

}  // namespace

std::optional<ReplicaStore> ReplicaStore::open(StoreConfig config,
                                               std::string* error) {
  ReplicaStore store;
  store.config_ = std::move(config);
  if (!make_dirs(store.config_.data_dir)) {
    if (error != nullptr) {
      *error = store.config_.data_dir + ": mkdir: " + std::strerror(errno);
    }
    return std::nullopt;
  }
  store.wal_path_ = store.config_.data_dir + "/wal.log";
  store.snapshot_path_ = store.config_.data_dir + "/snapshot.bin";

  // 1. Snapshot: the base state. Corruption here is absorbed — we fall
  // back to an empty base and let the log (and later anti-entropy pulls)
  // rebuild what it can.
  std::string snapshot_error;
  auto snapshot = read_snapshot_file(store.snapshot_path_, &snapshot_error);
  if (!snapshot) {
    store.stats_.snapshot_corrupt = true;
    snapshot = SnapshotData{};
  }
  store.snapshot_state_ = std::move(*snapshot);
  store.stats_.values_recovered = store.snapshot_state_.values.size();

  // 2. WAL: read raw, keep the valid prefix buffered for replay(). With a
  // healthy snapshot the first record must carry last_seq+1; with a lost
  // snapshot the log's own first record declares the base (salvage).
  const std::optional<std::uint64_t> first_seq =
      store.stats_.snapshot_corrupt
          ? std::nullopt
          : std::make_optional(store.snapshot_state_.last_seq + 1);
  {
    std::ifstream in(store.wal_path_, std::ios::binary);
    if (in) {
      std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
      if (in.bad()) {
        if (error != nullptr) *error = store.wal_path_ + ": read failed";
        return std::nullopt;
      }
      store.recovered_log_.resize(raw.size());
      // An empty log (truncated by a snapshot) has null data(): memcpy
      // from null is undefined even for zero bytes.
      if (!raw.empty()) {
        std::memcpy(store.recovered_log_.data(), raw.data(), raw.size());
      }
    }
  }
  const WalScanResult scan = scan_wal(
      store.recovered_log_, first_seq, [&store](const WalRecord& record) {
        RecordRef ref;
        ref.from = record.from;
        ref.round = record.round;
        ref.offset = static_cast<std::size_t>(
            record.frame.data() - store.recovered_log_.data());
        ref.size = record.frame.size();
        store.recovered_records_.push_back(ref);
      });
  store.recovered_log_.resize(scan.valid_bytes);
  store.stats_.records_recovered = scan.records;
  store.stats_.wal_discarded_bytes = scan.discarded_bytes;
  store.stats_.recovery_tail = scan.tail;

  // 3. Reopen for append past the valid prefix. Sequence numbering is the
  // max of what the snapshot and the log have seen, so it never rewinds
  // even when a crash interleaved snapshot write and log truncation.
  const std::uint64_t next_seq =
      std::max(store.snapshot_state_.last_seq + 1, scan.next_seq);
  auto wal = FrameWal::open_for_append(store.wal_path_, scan.valid_bytes,
                                       next_seq, store.config_.fsync_appends,
                                       error);
  if (!wal) return std::nullopt;
  store.wal_ = std::move(*wal);
  return store;
}

SnapshotData ReplicaStore::take_snapshot_state() {
  return std::exchange(snapshot_state_, SnapshotData{});
}

void ReplicaStore::replay(
    const std::function<void(const RecoveredFrame&)>& fn) {
  for (const RecordRef& ref : recovered_records_) {
    RecoveredFrame frame;
    frame.from = ref.from;
    frame.round = ref.round;
    frame.frame = std::span<const std::byte>(
        recovered_log_.data() + ref.offset, ref.size);
    fn(frame);
  }
  recovered_records_.clear();
  recovered_records_.shrink_to_fit();
  recovered_log_.clear();
  recovered_log_.shrink_to_fit();
}

std::optional<std::uint64_t> ReplicaStore::append_frame(
    common::PeerId from, common::Round round,
    std::span<const std::byte> frame) {
  if (config_.faults && config_.faults->fail_appends) {
    ++config_.faults->appends_failed;
    return std::nullopt;  // indistinguishable from a real write failure
  }
  const auto seq = wal_.append(from, round, frame);
  if (!seq) return std::nullopt;
  ++stats_.records_appended;
  ++stats_.records_since_snapshot;
  stats_.bytes_appended += kWalHeaderBytes + kWalBodyPreambleBytes +
                           frame.size();
  return seq;
}

bool ReplicaStore::snapshot_due() const noexcept {
  return config_.snapshot_every_records > 0 &&
         stats_.records_since_snapshot >= config_.snapshot_every_records;
}

bool ReplicaStore::write_snapshot(
    const common::ChunkedPeerSet& membership,
    std::vector<version::VersionedValue> values, std::string* error) {
  if (config_.faults && config_.faults->fail_snapshots) {
    ++config_.faults->snapshots_failed;
    if (error != nullptr) *error = snapshot_path_ + ": injected snapshot fault";
    return false;
  }
  SnapshotData data;
  data.last_seq = wal_.next_seq() - 1;
  data.membership = membership;
  data.values = std::move(values);
  if (!write_snapshot_file(snapshot_path_, data, error)) return false;
  if (config_.faults && config_.faults->torn_snapshots) {
    // Injected crash point: the snapshot is durably in place but the log
    // keeps its (now entirely superseded) records. Recovery must discard
    // that stale tail via the bad-sequence check and stand on the snapshot.
    ++config_.faults->snapshots_torn;
    if (error != nullptr) {
      *error = wal_path_ + ": injected crash before log truncation";
    }
    return false;
  }
  // Snapshot is durably in place (rename + dir fsync): every log record is
  // now superseded, so the log can drop to empty. If THIS truncation is
  // what a crash interrupts, recovery replays the stale records through
  // the duplicate-tolerant live path — harmless.
  if (!wal_.truncate_all()) {
    if (error != nullptr) *error = wal_path_ + ": truncate failed";
    return false;
  }
  ++stats_.snapshots_written;
  stats_.records_since_snapshot = 0;
  return true;
}

}  // namespace updp2p::store
