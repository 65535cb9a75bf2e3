// Transport-level datagram framing.
//
// A UDP datagram must carry the sender's peer identity: the gossip codec
// frames *payloads* (its own magic/version/kind header) but deliberately
// knows nothing about transport addressing. The frame header prepended to
// every live datagram is fixed-size and payload-agnostic:
//
//   offset  size  field
//   0       2     magic 0x55 0x50 ("UP")
//   2       1     frame version (kFrameVersion)
//   3       1     flags (reserved, must be 0)
//   4       4     source peer id, unsigned little-endian
//   8       ...   payload (a gossip::codec byte string)
//
// Parsing is fail-safe — malformed input yields nullopt, never UB — and
// mirrors the codec's kMaxWirePeerId hardening: a hostile source id cannot
// smuggle PeerId::invalid() or command population-sized allocations
// downstream. See docs/protocol.md §5 "Wire framing".
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/types.hpp"

namespace updp2p::net {

inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Upper bound (exclusive) on source peer ids accepted off the wire. Kept
/// equal to gossip::kMaxWirePeerId (2^28) — the two layers harden the same
/// dense-array indexing paths and must not drift apart.
inline constexpr std::uint64_t kMaxFramePeerId = std::uint64_t{1} << 28;

namespace frame_detail {
inline constexpr std::byte kMagic0{0x55};
inline constexpr std::byte kMagic1{0x50};
}  // namespace frame_detail

/// A successfully parsed frame. `payload` aliases the input buffer.
struct ParsedFrame {
  common::PeerId from;
  std::span<const std::byte> payload;
};

/// Serialises the frame header + payload into `out` (overwriting it).
inline void frame_datagram(common::PeerId from,
                           std::span<const std::byte> payload,
                           std::vector<std::byte>& out) {
  out.clear();
  out.reserve(kFrameHeaderBytes + payload.size());
  out.push_back(frame_detail::kMagic0);
  out.push_back(frame_detail::kMagic1);
  out.push_back(static_cast<std::byte>(kFrameVersion));
  out.push_back(std::byte{0});  // flags
  const std::uint32_t id = from.value();
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::byte>((id >> shift) & 0xFF));
  }
  out.insert(out.end(), payload.begin(), payload.end());
}

/// Parses a framed datagram; nullopt on any malformation (short buffer,
/// bad magic, unknown version, nonzero flags, out-of-range source id).
[[nodiscard]] inline std::optional<ParsedFrame> parse_frame(
    std::span<const std::byte> bytes) {
  if (bytes.size() < kFrameHeaderBytes) return std::nullopt;
  if (bytes[0] != frame_detail::kMagic0 || bytes[1] != frame_detail::kMagic1) {
    return std::nullopt;
  }
  if (static_cast<std::uint8_t>(bytes[2]) != kFrameVersion) {
    return std::nullopt;
  }
  if (bytes[3] != std::byte{0}) return std::nullopt;
  std::uint32_t id = 0;
  for (int i = 0; i < 4; ++i) {
    id |= static_cast<std::uint32_t>(bytes[4 + i]) << (8 * i);
  }
  if (id >= kMaxFramePeerId) return std::nullopt;
  return ParsedFrame{common::PeerId(id), bytes.subspan(kFrameHeaderBytes)};
}

}  // namespace updp2p::net
