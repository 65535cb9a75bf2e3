// Compact open-addressing membership set over sparse peer ids.
//
// A stamp array indexed by peer id costs O(max_id) memory per instance,
// which is fine for a handful of shared scratch sets but fatal for
// per-node state: at a 100k population, one stamp array per replica view
// is 400 KB x 100k nodes, and a hostile id can size it at will.
// A replica's view holds only the peers it actually knows, so its
// membership index should cost O(|view|): this set stores the 32-bit ids
// themselves in a power-of-two open-addressing table with linear probing
// (load factor <= 0.75). No tombstones — the protocol's views only grow,
// and scratch users (the sampler's pick dedup) clear() between calls.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/ensure.hpp"
#include "common/types.hpp"

namespace updp2p::common {

class SmallPeerSet {
 public:
  SmallPeerSet() = default;

  /// Grows the table so `count` ids insert without rehashing.
  void reserve(std::size_t count) {
    std::size_t wanted = kMinCapacity;
    while (wanted * 3 < count * 4) wanted *= 2;  // keep load <= 0.75
    if (wanted > slots_.size()) rehash(wanted);
  }

  /// Inserts `peer`; returns true when it was not already present.
  bool insert(PeerId peer) {
    const std::uint32_t id = key_of(peer);
    if (slots_.empty()) rehash(kMinCapacity);
    std::size_t slot = probe_start(id);
    while (slots_[slot] != kEmpty) {
      if (slots_[slot] == id) return false;
      slot = (slot + 1) & mask_;
    }
    slots_[slot] = id;
    ++size_;
    if (size_ * 4 > slots_.size() * 3) rehash(slots_.size() * 2);
    return true;
  }

  [[nodiscard]] bool contains(PeerId peer) const noexcept {
    if (slots_.empty()) return false;
    const std::uint32_t id = peer.value();
    if (id == kEmpty) return false;
    std::size_t slot = probe_start(id);
    while (slots_[slot] != kEmpty) {
      if (slots_[slot] == id) return true;
      slot = (slot + 1) & mask_;
    }
    return false;
  }

  /// Hints the cache that `peer`'s probe window is about to be read.
  void prefetch(PeerId peer) const noexcept {
    if (!slots_.empty()) __builtin_prefetch(&slots_[probe_start(peer.value())], 0, 1);
  }

  /// Empties the set; table capacity is retained.
  void clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
  }

  /// Visits every stored id in table order. The order is deterministic
  /// for a given insert history (it depends only on hashing and rehash
  /// points), which is what the deterministic simulators require.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const std::uint32_t id : slots_) {
      if (id != kEmpty) fn(PeerId(id));
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  /// Current table width (diagnostics / tests).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
  static constexpr std::size_t kMinCapacity = 8;

  static std::uint32_t key_of(PeerId peer) {
    UPDP2P_ENSURE(peer.is_valid(), "SmallPeerSet requires valid peer ids");
    return peer.value();
  }

  /// 32-bit avalanche mix (Murmur3 finalizer): sequential ids — the common
  /// dense-population case — spread over the whole table.
  [[nodiscard]] std::size_t probe_start(std::uint32_t id) const noexcept {
    std::uint32_t h = id;
    h ^= h >> 16;
    h *= 0x85ebca6bu;
    h ^= h >> 13;
    h *= 0xc2b2ae35u;
    h ^= h >> 16;
    return h & mask_;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<std::uint32_t> old = std::move(slots_);
    slots_.assign(new_capacity, kEmpty);
    mask_ = new_capacity - 1;
    for (const std::uint32_t id : old) {
      if (id == kEmpty) continue;
      std::size_t slot = probe_start(id);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
      slots_[slot] = id;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace updp2p::common
