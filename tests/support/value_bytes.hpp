// Hand-built wire bytes of one versioned value, for codec tests that need
// a value the encoder would never write (hostile counts, unordered
// histories, truncations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>

#include "gossip/codec.hpp"

namespace updp2p::testsupport {

/// A value's wire bytes: key "k", `payload_bytes` of payload, a digest, a
/// history declaring `declared` entries followed by the (peer, counter)
/// varints given, a flags byte and written_at.
[[nodiscard]] inline gossip::WireBytes value_bytes(
    std::size_t payload_bytes, std::uint64_t declared,
    std::initializer_list<std::pair<std::uint64_t, std::uint64_t>> entries) {
  gossip::WireBytes out;
  gossip::put_varint(out, 1);
  out.push_back(std::byte{'k'});
  gossip::put_varint(out, payload_bytes);
  out.insert(out.end(), payload_bytes, std::byte{'p'});
  out.insert(out.end(), 16, std::byte{0x5A});  // version id digest
  gossip::put_varint(out, declared);
  for (const auto& [peer, counter] : entries) {
    gossip::put_varint(out, peer);
    gossip::put_varint(out, counter);
  }
  out.push_back(std::byte{0});             // flags: not a tombstone
  out.insert(out.end(), 8, std::byte{0});  // written_at 0.0
  return out;
}

}  // namespace updp2p::testsupport
