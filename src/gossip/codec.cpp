#include "gossip/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace updp2p::gossip {

namespace {

constexpr std::byte kMagic0{0xD5};
constexpr std::byte kMagic1{0x2B};

using Kind = WireKind;

void put_u8(WireBytes& out, std::uint8_t value) {
  out.push_back(static_cast<std::byte>(value));
}

std::optional<std::uint8_t> get_u8(std::span<const std::byte> bytes,
                                   std::size_t& offset) {
  if (offset >= bytes.size()) return std::nullopt;
  return static_cast<std::uint8_t>(bytes[offset++]);
}

void put_u64(WireBytes& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::byte>((value >> shift) & 0xFF));
  }
}

std::optional<std::uint64_t> get_u64(std::span<const std::byte> bytes,
                                     std::size_t& offset) {
  if (offset + 8 > bytes.size()) return std::nullopt;
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<std::uint64_t>(bytes[offset++]) << shift;
  }
  return value;
}

void put_f64(WireBytes& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

std::optional<double> get_f64(std::span<const std::byte> bytes,
                              std::size_t& offset) {
  const auto raw = get_u64(bytes, offset);
  if (!raw) return std::nullopt;
  return std::bit_cast<double>(*raw);
}

void put_string(WireBytes& out, std::string_view text) {
  put_varint(out, text.size());
  const auto* data = reinterpret_cast<const std::byte*>(text.data());
  out.insert(out.end(), data, data + text.size());
}

std::optional<std::string> get_string(std::span<const std::byte> bytes,
                                      std::size_t& offset) {
  const auto length = get_varint(bytes, offset);
  if (!length || offset + *length > bytes.size()) return std::nullopt;
  std::string text(reinterpret_cast<const char*>(bytes.data() + offset),
                   *length);
  offset += *length;
  return text;
}

void put_digest(WireBytes& out, const common::Digest128& digest) {
  put_u64(out, digest.hi);
  put_u64(out, digest.lo);
}

std::optional<common::Digest128> get_digest(std::span<const std::byte> bytes,
                                            std::size_t& offset) {
  const auto hi = get_u64(bytes, offset);
  const auto lo = get_u64(bytes, offset);
  if (!hi || !lo) return std::nullopt;
  return common::Digest128{*hi, *lo};
}

void put_version_vector(WireBytes& out, const version::VersionVector& vv) {
  put_varint(out, vv.entry_count());
  for (const auto& [peer, counter] : vv.entries()) {
    put_varint(out, peer.value());
    put_varint(out, counter);
  }
}

/// One history entry; nullopt on truncation or an id the wire cannot carry.
std::optional<version::VersionVector::Entry> get_history_entry(
    std::span<const std::byte> bytes, std::size_t& offset) {
  const auto peer = get_varint(bytes, offset);
  const auto counter = get_varint(bytes, offset);
  if (!peer || !counter || *peer >= kMaxWirePeerId) return std::nullopt;
  return version::VersionVector::Entry{
      common::PeerId(static_cast<std::uint32_t>(*peer)), *counter};
}

/// Entries arrive ascending from put_version_vector, but any order, repeated
/// peers and zero counters decode to what observe()-ing them in order would
/// build (VersionVector::from_entries).
std::optional<version::VersionVector> get_version_vector(
    std::span<const std::byte> bytes, std::size_t& offset) {
  const auto count = get_varint(bytes, offset);
  // Each entry needs at least two bytes; reject absurd counts early so a
  // hostile length prefix cannot make us loop for long.
  if (!count || *count > bytes.size()) return std::nullopt;
  // Read every entry once before storing any: the reserve below then pays
  // for bytes actually consumed (two or more per entry), never for a
  // declared count alone, which a snapshot value may set near its 1 GiB cap.
  const std::size_t first = offset;
  for (std::uint64_t i = 0; i < *count; ++i) {
    if (!get_history_entry(bytes, offset)) return std::nullopt;
  }
  std::vector<version::VersionVector::Entry> entries;
  entries.reserve(*count);
  for (std::size_t at = first; at < offset;) {
    if (const auto entry = get_history_entry(bytes, at)) {
      entries.push_back(*entry);
    }
  }
  return version::VersionVector::from_entries(std::move(entries));
}

void put_value(WireBytes& out, const version::VersionedValue& value) {
  put_string(out, value.key);
  put_string(out, value.payload);
  put_digest(out, value.id.digest());
  put_version_vector(out, value.history);
  put_u8(out, value.tombstone ? 1 : 0);
  put_f64(out, value.written_at);
}

std::optional<version::VersionedValue> get_value(
    std::span<const std::byte> bytes, std::size_t& offset) {
  version::VersionedValue value;
  auto key = get_string(bytes, offset);
  auto payload = get_string(bytes, offset);
  auto digest = get_digest(bytes, offset);
  auto history = get_version_vector(bytes, offset);
  auto flags = get_u8(bytes, offset);
  auto written_at = get_f64(bytes, offset);
  if (!key || !payload || !digest || !history || !flags || !written_at) {
    return std::nullopt;
  }
  value.key = std::move(*key);
  value.payload = std::move(*payload);
  value.id = version::VersionId(*digest);
  value.history = std::move(*history);
  value.tombstone = (*flags & 1) != 0;
  value.written_at = *written_at;
  return value;
}

using common::ChunkedPeerSet;

void put_peer_set(WireBytes& out, const ChunkedPeerSet& set) {
  put_varint(out, set.chunks().size());
  for (const ChunkedPeerSet::Chunk& chunk : set.chunks()) {
    put_varint(out, chunk.key);
    put_u8(out, chunk.is_bitmap() ? 1 : 0);
    put_varint(out, chunk.cardinality);
    if (chunk.is_bitmap()) {
      for (const std::uint64_t word : chunk.words()) put_u64(out, word);
    } else {
      // First low verbatim, then gap-1 deltas (lows strictly increase, so
      // every gap is >= 1 and the common consecutive-id case costs one
      // zero byte per entry).
      std::uint16_t prev = 0;
      bool first = true;
      for (const std::uint16_t low : chunk.lows) {
        put_varint(out, first ? low
                              : static_cast<std::uint64_t>(low - prev - 1));
        prev = low;
        first = false;
      }
    }
  }
}

/// Streaming peerset decode into a caller-owned set. `set` is cleared
/// first, and each chunk is decoded straight into one of its parked chunk
/// buffers (the streaming append_*_chunk builders), so decoding into the
/// same set every delivery allocates nothing once the buffers are warm. On
/// failure the set is left cleared so no partial chunks leak to the caller.
bool get_peer_set_into(std::span<const std::byte> bytes, std::size_t& offset,
                       ChunkedPeerSet& set) {
  set.clear();
  const auto chunk_count = get_varint(bytes, offset);
  // Strictly increasing keys below kMaxWireChunkKey bound the chunk count
  // too; rejecting early keeps a hostile prefix from looping for long.
  if (!chunk_count || *chunk_count > kMaxWireChunkKey) return false;
  for (std::uint64_t c = 0; c < *chunk_count; ++c) {
    const auto fail = [&set] {
      set.clear();  // no partial chunks leak to the caller
      return false;
    };
    const auto key = get_varint(bytes, offset);
    // Per-chunk id bound: key < kMaxWirePeerId >> 16 means no id this
    // chunk can express (key<<16 | low16) reaches kMaxWirePeerId. Keys
    // must strictly increase, which also rules out overlapping ranges;
    // append_*_chunk below re-checks that ordering.
    if (!key || *key >= kMaxWireChunkKey) return fail();
    const auto form = get_u8(bytes, offset);
    const auto cardinality = get_varint(bytes, offset);
    if (!form || *form > 1 || !cardinality || *cardinality == 0 ||
        *cardinality > ChunkedPeerSet::kChunkSpan) {
      return fail();
    }
    if (*form == 0) {
      // Canonical form caps an array chunk at kArrayChunkMax entries, and
      // each entry costs at least one encoded byte — a declared
      // cardinality beyond the remaining payload is hostile.
      if (*cardinality > ChunkedPeerSet::kArrayChunkMax ||
          *cardinality > bytes.size() - offset) {
        return fail();
      }
      // First low verbatim, then gap-1 deltas; append_array_chunk rejects
      // lows that do not strictly increase (a wrapped sum among them).
      std::uint64_t value = 0;
      bool first = true;
      const auto next_low = [&]() -> std::optional<std::uint16_t> {
        const auto delta = get_varint(bytes, offset);
        if (!delta) return std::nullopt;
        value = first ? *delta : value + *delta + 1;
        first = false;
        if (value >= ChunkedPeerSet::kChunkSpan) return std::nullopt;
        return static_cast<std::uint16_t>(value);
      };
      if (!set.append_array_chunk(static_cast<std::uint16_t>(*key),
                                  *cardinality, next_low)) {
        return fail();
      }
    } else {
      // append_bitmap_chunk enforces canonical density (> kArrayChunkMax
      // bits); the declared cardinality must match the actual popcount or
      // the header is lying.
      const std::size_t before = set.size();
      if (!set.append_bitmap_chunk(
              static_cast<std::uint16_t>(*key),
              [&bytes, &offset] { return get_u64(bytes, offset); }) ||
          set.size() - before != *cardinality) {
        return fail();
      }
    }
  }
  return true;
}

/// Advances `offset` past one length-prefixed string without materialising
/// it (probe path). False on truncation.
bool skip_string(std::span<const std::byte> bytes, std::size_t& offset) {
  const auto length = get_varint(bytes, offset);
  if (!length || offset + *length > bytes.size()) return false;
  offset += *length;
  return true;
}

/// Advances `offset` past one version vector without building it (probe
/// path). False on truncation or a count no frame could hold.
bool skip_version_vector(std::span<const std::byte> bytes,
                         std::size_t& offset) {
  const auto count = get_varint(bytes, offset);
  if (!count || *count > bytes.size()) return false;
  for (std::uint64_t i = 0; i < 2 * *count; ++i) {
    if (!get_varint(bytes, offset)) return false;
  }
  return true;
}

/// The smallest encoded value: two empty strings, the digest, an empty
/// history, the flags byte and written_at.
constexpr std::size_t kMinValueBytes = 1 + 1 + 16 + 1 + 1 + 8;

/// How many elements of at least `min_bytes` each the bytes after
/// `offset` can hold, capped at `declared`: what a decoder may reserve
/// before it has read one, so a hostile count buys no more memory than
/// the frame's own bytes.
std::size_t fitting(std::span<const std::byte> bytes, std::size_t offset,
                    std::uint64_t declared, std::size_t min_bytes) {
  return static_cast<std::size_t>(std::min<std::uint64_t>(
      declared, (bytes.size() - offset) / min_bytes));
}

/// Parses the fixed frame header; returns the kind byte or nullopt.
std::optional<Kind> get_frame_header(std::span<const std::byte> bytes,
                                     std::size_t& offset) {
  if (bytes.size() < 4 || bytes[0] != kMagic0 || bytes[1] != kMagic1) {
    return std::nullopt;
  }
  offset = 2;
  const auto version = get_u8(bytes, offset);
  if (!version || *version != kCodecVersion) return std::nullopt;
  const auto kind = get_u8(bytes, offset);
  if (!kind || *kind < 1 ||
      *kind > static_cast<std::uint8_t>(Kind::kQueryReply)) {
    return std::nullopt;
  }
  return static_cast<Kind>(*kind);
}

}  // namespace

void encode_peer_set(WireBytes& out, const common::ChunkedPeerSet& set) {
  put_peer_set(out, set);
}

bool decode_peer_set(std::span<const std::byte> bytes, std::size_t& offset,
                     common::ChunkedPeerSet& set) {
  return get_peer_set_into(bytes, offset, set);
}

void encode_value(WireBytes& out, const version::VersionedValue& value) {
  put_value(out, value);
}

std::optional<version::VersionedValue> decode_value(
    std::span<const std::byte> bytes, std::size_t& offset) {
  return get_value(bytes, offset);
}

void put_varint(WireBytes& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::byte>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<std::byte>(value));
}

std::optional<std::uint64_t> get_varint(std::span<const std::byte> bytes,
                                        std::size_t& offset) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    if (offset >= bytes.size() || shift > 63) return std::nullopt;
    const auto byte = static_cast<std::uint8_t>(bytes[offset++]);
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  return std::nullopt;
}

void encode_into(const GossipPayload& payload, WireBytes& out) {
  out.clear();
  if (out.capacity() < 64) out.reserve(64);
  out.push_back(kMagic0);
  out.push_back(kMagic1);
  put_u8(out, kCodecVersion);
  std::visit(
      [&out](const auto& message) {
        using T = std::decay_t<decltype(message)>;
        if constexpr (std::is_same_v<T, PushMessage>) {
          put_u8(out, static_cast<std::uint8_t>(Kind::kPush));
          put_value(out, message.value);
          put_varint(out, message.round);
          put_peer_set(out, message.flooding_list);
        } else if constexpr (std::is_same_v<T, PullRequest>) {
          put_u8(out, static_cast<std::uint8_t>(Kind::kPullRequest));
          put_version_vector(out, message.summary);
          put_varint(out, message.have.size());
          for (const auto& id : message.have) put_digest(out, id.digest());
          put_digest(out, message.store_digest);
        } else if constexpr (std::is_same_v<T, PullResponse>) {
          put_u8(out, static_cast<std::uint8_t>(Kind::kPullResponse));
          put_version_vector(out, message.summary);
          put_u8(out, message.confident ? 1 : 0);
          put_varint(out, message.missing.size());
          for (const auto& value : message.missing) put_value(out, value);
        } else if constexpr (std::is_same_v<T, AckMessage>) {
          put_u8(out, static_cast<std::uint8_t>(Kind::kAck));
          put_digest(out, message.acked.digest());
        } else if constexpr (std::is_same_v<T, QueryRequest>) {
          put_u8(out, static_cast<std::uint8_t>(Kind::kQueryRequest));
          put_string(out, message.key);
          put_varint(out, message.nonce);
        } else {
          static_assert(std::is_same_v<T, QueryReply>);
          put_u8(out, static_cast<std::uint8_t>(Kind::kQueryReply));
          put_string(out, message.key);
          put_varint(out, message.nonce);
          put_u8(out, message.confident ? 1 : 0);
          put_varint(out, message.versions.size());
          for (const auto& value : message.versions) put_value(out, value);
        }
      },
      payload);
}

WireBytes encode(const GossipPayload& payload) {
  WireBytes out;
  encode_into(payload, out);
  return out;
}

std::optional<FrameProbe> probe_frame(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  const auto kind = get_frame_header(bytes, offset);
  if (!kind) return std::nullopt;
  FrameProbe probe;
  probe.kind = *kind;
  switch (*kind) {
    case Kind::kPush: {
      // value := key || payload || digest128 || ... — the digest is the
      // version id; two string skips reach it without touching the version
      // vector or the flooding list.
      if (!skip_string(bytes, offset) || !skip_string(bytes, offset)) {
        return std::nullopt;
      }
      const auto digest = get_digest(bytes, offset);
      if (!digest) return std::nullopt;
      probe.version = version::VersionId(*digest);
      return probe;
    }
    case Kind::kAck: {
      const auto digest = get_digest(bytes, offset);
      if (!digest) return std::nullopt;
      probe.version = version::VersionId(*digest);
      return probe;
    }
    case Kind::kQueryRequest:
    case Kind::kQueryReply: {
      if (!skip_string(bytes, offset)) return std::nullopt;
      const auto nonce = get_varint(bytes, offset);
      if (!nonce) return std::nullopt;
      probe.nonce = *nonce;
      return probe;
    }
    case Kind::kPullResponse: {
      // pullresp := vv || flags || count || value* — the summary's varints
      // are skipped, not stored.
      if (!skip_version_vector(bytes, offset) || !get_u8(bytes, offset)) {
        return std::nullopt;
      }
      const auto values = get_varint(bytes, offset);
      if (!values) return std::nullopt;
      probe.values = *values;
      return probe;
    }
    case Kind::kPullRequest:
      return probe;  // nothing cheap to identify beyond the kind
  }
  return std::nullopt;
}

std::optional<DecodedPush> decode_push_into(std::span<const std::byte> bytes,
                                            common::ChunkedPeerSet& list) {
  std::size_t offset = 0;
  const auto kind = get_frame_header(bytes, offset);
  if (!kind || *kind != Kind::kPush) {
    list.clear();
    return std::nullopt;
  }
  auto value = get_value(bytes, offset);
  auto round = get_varint(bytes, offset);
  if (!value || !round ||
      *round > std::numeric_limits<common::Round>::max() ||
      !get_peer_set_into(bytes, offset, list)) {
    list.clear();
    return std::nullopt;
  }
  return DecodedPush{std::move(*value), static_cast<common::Round>(*round)};
}

std::optional<GossipPayload> decode(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  const auto kind = get_frame_header(bytes, offset);
  if (!kind) return std::nullopt;

  switch (*kind) {
    case Kind::kPush: {
      common::ChunkedPeerSet list;
      auto push = decode_push_into(bytes, list);
      if (!push) return std::nullopt;
      return GossipPayload{
          PushMessage{std::move(push->value), std::move(list), push->round}};
    }
    case Kind::kPullRequest: {
      auto summary = get_version_vector(bytes, offset);
      auto have_count = get_varint(bytes, offset);
      if (!summary || !have_count || *have_count > bytes.size()) {
        return std::nullopt;
      }
      PullRequest request;
      request.summary = std::move(*summary);
      request.have.reserve(fitting(bytes, offset, *have_count, 16));
      for (std::uint64_t i = 0; i < *have_count; ++i) {
        auto digest = get_digest(bytes, offset);
        if (!digest) return std::nullopt;
        request.have.emplace_back(*digest);
      }
      auto store_digest = get_digest(bytes, offset);
      if (!store_digest) return std::nullopt;
      request.store_digest = *store_digest;
      return GossipPayload{std::move(request)};
    }
    case Kind::kPullResponse: {
      auto summary = get_version_vector(bytes, offset);
      auto confident = get_u8(bytes, offset);
      auto count = get_varint(bytes, offset);
      if (!summary || !confident || !count || *count > bytes.size()) {
        return std::nullopt;
      }
      PullResponse response;
      response.summary = std::move(*summary);
      response.confident = (*confident & 1) != 0;
      response.missing.reserve(
          fitting(bytes, offset, *count, kMinValueBytes));
      for (std::uint64_t i = 0; i < *count; ++i) {
        auto value = get_value(bytes, offset);
        if (!value) return std::nullopt;
        response.missing.push_back(std::move(*value));
      }
      return GossipPayload{std::move(response)};
    }
    case Kind::kAck: {
      auto digest = get_digest(bytes, offset);
      if (!digest) return std::nullopt;
      return GossipPayload{AckMessage{version::VersionId(*digest)}};
    }
    case Kind::kQueryRequest: {
      auto key = get_string(bytes, offset);
      auto nonce = get_varint(bytes, offset);
      if (!key || !nonce) return std::nullopt;
      return GossipPayload{QueryRequest{std::move(*key), *nonce}};
    }
    case Kind::kQueryReply: {
      auto key = get_string(bytes, offset);
      auto nonce = get_varint(bytes, offset);
      auto confident = get_u8(bytes, offset);
      auto count = get_varint(bytes, offset);
      if (!key || !nonce || !confident || !count || *count > bytes.size()) {
        return std::nullopt;
      }
      QueryReply reply;
      reply.key = std::move(*key);
      reply.nonce = *nonce;
      reply.confident = (*confident & 1) != 0;
      reply.versions.reserve(fitting(bytes, offset, *count, kMinValueBytes));
      for (std::uint64_t i = 0; i < *count; ++i) {
        auto value = get_value(bytes, offset);
        if (!value) return std::nullopt;
        reply.versions.push_back(std::move(*value));
      }
      return GossipPayload{std::move(reply)};
    }
  }
  return std::nullopt;
}

}  // namespace updp2p::gossip
