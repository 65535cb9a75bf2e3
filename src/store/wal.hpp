// FrameWal — append-only write-ahead log of codec-v2 wire frames.
//
// A peer in this system is offline most of its life (10–30 % online, §2),
// and a SIGKILL must not cost it the updates it already holds: the WAL
// makes every state-changing receipt durable BEFORE the protocol
// acknowledges it, so a restarted peer replays its log through
// ReplicaNode::handle_frame and stands exactly where it died.
//
// Record layout (all integers little-endian):
//
//   record := u32 len | u32 crc32c | u64 seq | body
//   body   := u32 from | u32 round | frame
//
// `len` is the body length (8 + frame bytes) and `crc32c` covers seq+body,
// so a flipped bit anywhere after `len` is caught, and a lying `len` is
// caught by the CRC of whatever it framed. `seq` increases by exactly 1
// from the sequence the log was opened at; a gap or repeat marks the end
// of the valid prefix (e.g. blocks recycled by the filesystem). `frame`
// is the EXACT codec-v2 wire frame as received/sent — replay feeds these
// bytes to the same handle_frame entry point live traffic uses, which is
// what makes replayed state bit-identical to lived state. `from`/`round`
// are the delivery context the frame itself does not carry.
//
// Torn-tail contract: every append is one write(2) of a complete record,
// so a crash leaves at most one torn record at the tail. scan() accepts
// the longest valid prefix and reports why it stopped; open_for_append()
// truncates the file to that prefix and continues — corrupt bytes can
// cost the tail record, never the log.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace updp2p::store {

/// Upper bound (exclusive) on a record's `len` field. A record frames one
/// datagram-sized codec frame plus 8 context bytes; 16 MiB is orders of
/// magnitude above any legal frame and small enough that a hostile or
/// garbage length can never command a large allocation.
inline constexpr std::uint32_t kMaxWalRecordBytes = 1u << 24;

/// Fixed bytes before the body: len + crc + seq.
inline constexpr std::size_t kWalHeaderBytes = 16;
/// Fixed body preamble: from + round.
inline constexpr std::size_t kWalBodyPreambleBytes = 8;

/// One recovered record; `frame` aliases the scan buffer and is valid only
/// inside the scan callback.
struct WalRecord {
  std::uint64_t seq = 0;
  common::PeerId from;
  common::Round round = 0;
  std::span<const std::byte> frame;
};

/// Why a scan stopped (diagnostics; kCleanEnd is the healthy case).
enum class WalTail : std::uint8_t {
  kCleanEnd,     ///< file ends exactly on a record boundary
  kTornHeader,   ///< trailing partial header (crash mid-write)
  kTornBody,     ///< header promises more body than the file holds
  kBadCrc,       ///< checksum mismatch (bit rot or garbage tail)
  kBadLength,    ///< len below the preamble or >= kMaxWalRecordBytes
  kBadSequence,  ///< seq is not the expected successor
};

[[nodiscard]] const char* to_string(WalTail tail) noexcept;

struct WalScanResult {
  std::uint64_t records = 0;        ///< valid records delivered
  std::uint64_t next_seq = 1;       ///< successor of the last valid record
  std::uint64_t valid_bytes = 0;    ///< length of the valid prefix
  std::uint64_t discarded_bytes = 0;///< bytes past the valid prefix
  WalTail tail = WalTail::kCleanEnd;
};

/// Scans `bytes` as a WAL, invoking `on_record` for each valid record in
/// order. When `first_seq` is set the first record must carry exactly that
/// sequence; when nullopt the log's own first (CRC-valid) record declares
/// the base — the salvage path when the snapshot that knew the base was
/// itself lost. Later records must still chain +1. Stops at the first
/// invalid byte; never reads past the buffer, never allocates
/// proportional to a decoded length. Safe on arbitrary hostile input.
WalScanResult scan_wal(std::span<const std::byte> bytes,
                       std::optional<std::uint64_t> first_seq,
                       const std::function<void(const WalRecord&)>& on_record);

/// Reads `path` fully and scan_wal()s it. A missing file is an empty,
/// clean log. nullopt only on I/O errors (not on corruption — corruption
/// is handled by prefix acceptance).
std::optional<WalScanResult> scan_wal_file(
    const std::string& path, std::optional<std::uint64_t> first_seq,
    const std::function<void(const WalRecord&)>& on_record);

/// Append handle. One writer per file; the durable store serialises all
/// access through the runtime's single event loop.
class FrameWal {
 public:
  FrameWal() = default;
  FrameWal(const FrameWal&) = delete;
  FrameWal& operator=(const FrameWal&) = delete;
  FrameWal(FrameWal&& other) noexcept;
  FrameWal& operator=(FrameWal&& other) noexcept;
  ~FrameWal();

  /// Opens `path` for appending at `truncate_to` bytes (the valid prefix a
  /// scan established — everything past it is discarded) with the next
  /// record carrying `next_seq`. Creates the file when absent.
  [[nodiscard]] static std::optional<FrameWal> open_for_append(
      const std::string& path, std::uint64_t truncate_to,
      std::uint64_t next_seq, bool fsync_each_append, std::string* error);

  /// Appends one record (a single write(2) of the complete record) and
  /// returns its sequence number, or nullopt on I/O failure. With
  /// fsync_each_append the record is durable when this returns.
  std::optional<std::uint64_t> append(common::PeerId from,
                                      common::Round round,
                                      std::span<const std::byte> frame);

  /// Truncates the log to empty (all records superseded by a snapshot).
  /// Sequence numbering continues — seq is global to the store, not to
  /// one log incarnation, so a stale pre-truncation tail can never splice
  /// onto a newer log.
  bool truncate_all();

  /// fsync(2) the log file.
  bool sync();

  [[nodiscard]] std::uint64_t next_seq() const noexcept { return next_seq_; }
  [[nodiscard]] std::uint64_t appended_bytes() const noexcept {
    return appended_bytes_;
  }

 private:
  int fd_ = -1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t appended_bytes_ = 0;
  bool fsync_each_append_ = false;
  std::vector<std::byte> scratch_;  ///< capacity-warm record build buffer
};

}  // namespace updp2p::store
