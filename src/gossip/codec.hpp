// Binary wire codec for the gossip protocol messages.
//
// Nodes exchange these bytes wherever they run: the round engines store
// encoded frames on their buses, and a deployment sends them as
// datagrams. This codec defines a compact, versioned, self-describing
// encoding for every GossipPayload alternative:
//
//   frame   := magic(2) version(1) kind(1) body
//   varint  := LEB128 unsigned
//   string  := varint length || bytes
//   vv      := varint count || (varint peer, varint counter)*
//   value   := string key || string payload || digest128(16) || vv ||
//              flags(1) || float64 written_at
//   peerset := varint chunk_count || chunk*        (see below)
//   push    := value || varint round || peerset
//   pullreq := vv || varint count || digest128* || digest128 store
//   pullresp:= vv || flags(1) || varint count || value*
//   ack     := digest128(16)
//   queryreq:= string key || varint nonce
//   queryrep:= string key || varint nonce || flags(1) || varint count ||
//              value*
//
// The flooding list travels in the ChunkedPeerSet's canonical chunked
// form (format v2): each chunk covers one 2^16-id range and is either a
// delta-varint array (sparse) or a raw bitmap (dense):
//
//   chunk   := varint key || form(1) || varint cardinality || body
//   body    := first-low varint || (gap-1) varint*        form 0 (array)
//            | 1024 x u64 little-endian                   form 1 (bitmap)
//
// Chunk keys are strictly increasing (no overlapping ranges) and bounded
// by kMaxWirePeerId >> 16, which re-establishes the per-id bound: no id a
// chunk can express reaches kMaxWirePeerId. Canonical-form rules (array
// iff cardinality <= kArrayChunkMax, bitmap popcount must equal the
// declared cardinality, lows strictly increasing) are enforced on decode,
// so decode(encode(s)) == s bit-identically and hostile headers cannot
// smuggle oversized cardinalities.
//
// Decoding is fail-safe: malformed input yields std::nullopt, never UB —
// a peer must survive garbage from the network.
//
// This grammar is implemented once, by the put_*/get_* helpers in
// codec.cpp. Nothing prices a message without encoding it: every byte
// count in the system (RoundMetrics::bytes, BusStats::bytes_sent,
// TransportStats::bytes_sent) is the length of a frame that was built.
//
// Zero-copy pipeline (docs/protocol.md "Frame sharing & lazy decode"): a
// fan-out is one OutboundMessage naming all its targets, so its host
// encodes it once and every recipient reads the same immutable bytes;
// receivers classify duplicates from probe_frame() — a header probe that
// never touches the flooding-list section — and only first receipts pay the
// full decode, streaming the peerset chunks into a warm arena
// ChunkedPeerSet.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gossip/messages.hpp"

namespace updp2p::gossip {

using WireBytes = std::vector<std::byte>;

/// Codec format version; bump on incompatible change. v2: flooding lists
/// switched from flat varint peer arrays to the chunked delta-varint set
/// encoding above.
inline constexpr std::uint8_t kCodecVersion = 2;

/// Upper bound (exclusive) on peer ids accepted off the wire. It keeps the
/// PeerId::invalid() sentinel, which the peer sets reject by contract, off
/// the wire, and bounds the chunk keys a peer-set encoding can name. It
/// does not make a decoded id a safe index: a stamp array over 2^28 ids is
/// 1 GiB, so nothing may size an id-indexed array by the largest id a
/// flooding list named (ReplicaView::sample_into dedups its picks in a
/// hash set sized by the picks). 2^28 comfortably covers the paper's
/// largest evaluated population (10^8, Fig. 5).
inline constexpr std::uint64_t kMaxWirePeerId = std::uint64_t{1} << 28;

/// Upper bound (exclusive) on chunk keys in the peerset encoding: a chunk
/// keyed at or above this could express ids >= kMaxWirePeerId.
inline constexpr std::uint64_t kMaxWireChunkKey =
    kMaxWirePeerId >> common::ChunkedPeerSet::kChunkBits;

/// Wire message kinds (the frame's kind byte). Values are the wire
/// encoding and must never be renumbered.
enum class WireKind : std::uint8_t {
  kPush = 1,
  kPullRequest = 2,
  kPullResponse = 3,
  kAck = 4,
  kQueryRequest = 5,
  kQueryReply = 6,
};

/// Serialises any protocol payload into a framed byte string.
[[nodiscard]] WireBytes encode(const GossipPayload& payload);

/// Appending encode into a caller-owned (typically reused) buffer: the
/// buffer is cleared and filled with exactly what encode() would return,
/// but a warm buffer's capacity is reused instead of reallocated. This is
/// how PeerRuntime encodes every message into one warm frame.
void encode_into(const GossipPayload& payload, WireBytes& out);

/// Parses a framed byte string; nullopt on any malformation (bad magic,
/// unknown version/kind, truncation, overlong varint).
[[nodiscard]] std::optional<GossipPayload> decode(
    std::span<const std::byte> bytes);

/// What a header probe can read without walking the variable-length tail:
/// the message kind plus the cheap identifying fields (enough for duplicate
/// classification, retry cancellation and the WAL's append rules). See
/// probe_frame() for the trust contract.
struct FrameProbe {
  WireKind kind = WireKind::kPush;
  /// kPush: the pushed version's id. kAck: the acknowledged version.
  version::VersionId version;
  /// kQueryRequest / kQueryReply: the correlation nonce.
  std::uint64_t nonce = 0;
  /// kPullResponse: the number of values the response carries.
  std::uint64_t values = 0;
};

/// Cheap header probe: validates magic/version/kind and decodes ONLY the
/// probed fields (for a push that means skipping the two length-prefixed
/// strings and reading the 16-byte digest — the version vector, flags and
/// flooding list are never touched; for a pull response, skipping the
/// summary vector's varints to reach the value count). nullopt when the
/// probed prefix is malformed.
///
/// Trust contract: a successful probe does NOT imply the frame decodes —
/// the unexamined tail may still be garbage. Callers may use the probe for
/// *monotone bookkeeping only* (duplicate counting, retry cancellation
/// lookups); any action that mutates protocol state from the frame's
/// contents must run the full decode first and handle its failure. Once
/// the same frame's full decode succeeded, the probed fields are what it
/// read, and may gate what follows it.
[[nodiscard]] std::optional<FrameProbe> probe_frame(
    std::span<const std::byte> bytes);

/// A push frame's fixed part, decoded by decode_push_into.
struct DecodedPush {
  version::VersionedValue value;  ///< (U, V)
  common::Round round = 0;        ///< t
};

/// Streaming first-receipt decode of a push frame: the flooding-list
/// chunks are decoded directly into `list` (cleared first; a warm arena
/// set reuses its parked chunk buffers, so the common case allocates
/// nothing) instead of materialising a temporary ChunkedPeerSet inside a
/// GossipPayload. decode() reads a push through this function, so the two
/// cannot disagree on the push grammar. On failure `list` is left cleared
/// and the return is nullopt.
[[nodiscard]] std::optional<DecodedPush> decode_push_into(
    std::span<const std::byte> bytes, common::ChunkedPeerSet& list);

// --- low-level primitives (exposed for tests and reuse) ---------------------

/// Appends the canonical chunked peerset encoding (the `peerset` grammar
/// above) — the exact bytes a push frame carries for its flooding list.
/// Exposed for the durable store (src/store/): a snapshot's membership
/// section reuses this encoding verbatim, so one decoder (and one fuzz
/// surface) covers both the wire and the disk.
void encode_peer_set(WireBytes& out, const common::ChunkedPeerSet& set);

/// Decodes one peerset at `offset` (advancing it) into `set`, enforcing
/// every wire bound (strictly increasing chunk keys < kMaxWireChunkKey,
/// canonical forms, cardinality caps). `set` is cleared first; on failure
/// it is left cleared and false is returned.
[[nodiscard]] bool decode_peer_set(std::span<const std::byte> bytes,
                                   std::size_t& offset,
                                   common::ChunkedPeerSet& set);

/// Appends one versioned value in the `value` grammar above (also what
/// push / pull-response / query-reply frames carry). Snapshot reuse, as
/// with encode_peer_set.
void encode_value(WireBytes& out, const version::VersionedValue& value);

/// Decodes one versioned value at `offset` (advancing it); nullopt on any
/// malformation. Offset is unspecified after a failure.
[[nodiscard]] std::optional<version::VersionedValue> decode_value(
    std::span<const std::byte> bytes, std::size_t& offset);

void put_varint(WireBytes& out, std::uint64_t value);

/// Reads a varint at `offset`, advancing it. nullopt on truncation or a
/// varint longer than 10 bytes.
[[nodiscard]] std::optional<std::uint64_t> get_varint(
    std::span<const std::byte> bytes, std::size_t& offset);

}  // namespace updp2p::gossip
