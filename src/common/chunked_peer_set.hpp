// Adaptive compressed peer-id set (roaring-style).
//
// A flooding list R_f names a subset of a dense id universe, and §4–5 of
// the paper make its *size on the wire* a first-class cost. A flat vector
// pays 4 bytes per entry in memory, ~10 modelled bytes on the wire, and
// O(|R_f|) per membership probe. This container splits the 32-bit id space
// into 2^16-id chunks keyed by the high 16 bits and stores each chunk in
// whichever form is smaller:
//
//   * a sorted array of 16-bit low halves while the chunk is sparse
//     (<= kArrayChunkMax entries, 2 bytes per peer), or
//   * a packed 8 KiB bitmap once the chunk saturates (1 bit per id),
//
// promoting and demoting automatically so the representation is a pure
// function of the contents (canonical form). Canonicality is what makes
// equality chunk-wise, the wire encoding deterministic, and a decode of an
// encode bit-identical to the source set.
//
// Set algebra runs chunk-at-a-time: union and difference over bitmap
// chunks are 64-bit OR / AND-NOT sweeps (word-parallel — 64 ids per
// instruction), array chunks use linear merges or galloping probes when
// one side is much smaller. `absorb` fuses "which of these are new?" with
// the union itself, which is exactly the shape of a view merging a
// received flooding list.
//
// Iteration (for_each, absorb callbacks) is always in ascending id order;
// deterministic simulation depends on that, so it is part of the contract.
//
// clear() parks chunk buffers on an internal free list instead of freeing
// them, so a warm set rebuilt every round performs no heap allocation —
// the same steady-state property DensePeerSet gives the stamp scratch.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace updp2p::common {

class ChunkedPeerSet {
 public:
  /// Ids per chunk: the low 16 bits index within a chunk, the high bits
  /// select it.
  static constexpr std::uint32_t kChunkBits = 16;
  static constexpr std::uint32_t kChunkSpan = 1u << kChunkBits;
  /// 64-bit words in a bitmap chunk (8 KiB).
  static constexpr std::size_t kBitmapWords = kChunkSpan / 64;
  /// Canonical representation boundary: a chunk holding more than this
  /// many ids is a bitmap, otherwise a sorted array. 4096 entries is where
  /// the 2-byte-per-entry array crosses the fixed 8 KiB bitmap.
  static constexpr std::uint32_t kArrayChunkMax = 4096;

  /// One 2^16-id range. Exposed read-only for the wire codec; everything
  /// else should go through the set-level operations.
  struct Chunk {
    std::uint16_t key = 0;           ///< id >> 16
    std::uint32_t cardinality = 0;   ///< ids present in this chunk
    std::vector<std::uint16_t> lows; ///< sorted low halves (array form)
    std::vector<std::uint64_t> bits; ///< kBitmapWords words (bitmap form)

    [[nodiscard]] bool is_bitmap() const noexcept { return !bits.empty(); }
  };

  ChunkedPeerSet() = default;
  ChunkedPeerSet(std::initializer_list<PeerId> peers) {
    for (const PeerId peer : peers) insert(peer);
  }

  // Copies drop the scratch free list; only live chunks transfer.
  ChunkedPeerSet(const ChunkedPeerSet& other)
      : chunks_(other.chunks_), size_(other.size_) {}
  ChunkedPeerSet& operator=(const ChunkedPeerSet& other) {
    if (this != &other) {
      chunks_ = other.chunks_;
      size_ = other.size_;
    }
    return *this;
  }
  ChunkedPeerSet(ChunkedPeerSet&&) noexcept = default;
  ChunkedPeerSet& operator=(ChunkedPeerSet&&) noexcept = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::span<const Chunk> chunks() const noexcept {
    return chunks_;
  }

  /// Empties the set; chunk buffers are parked for reuse, so a warm set
  /// refilled to a similar shape allocates nothing.
  void clear() noexcept {
    for (Chunk& chunk : chunks_) {
      chunk.cardinality = 0;
      chunk.lows.clear();
      chunk.bits.clear();
      spare_.push_back(std::move(chunk));
    }
    chunks_.clear();
    size_ = 0;
  }

  /// Inserts `peer`; returns true when it was not already present.
  bool insert(PeerId peer) {
    UPDP2P_ENSURE(peer.is_valid(),
                  "ChunkedPeerSet requires valid peer ids");
    const auto key = static_cast<std::uint16_t>(peer.value() >> kChunkBits);
    const auto low = static_cast<std::uint16_t>(peer.value());
    Chunk& chunk = chunk_for(key);
    if (chunk.is_bitmap()) {
      std::uint64_t& word = chunk.bits[low >> 6];
      const std::uint64_t mask = std::uint64_t{1} << (low & 63);
      if ((word & mask) != 0) return false;
      word |= mask;
    } else {
      const auto it =
          std::lower_bound(chunk.lows.begin(), chunk.lows.end(), low);
      if (it != chunk.lows.end() && *it == low) return false;
      chunk.lows.insert(it, low);
      if (chunk.lows.size() > kArrayChunkMax) promote(chunk);
    }
    ++chunk.cardinality;
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(PeerId peer) const noexcept {
    if (!peer.is_valid()) return false;
    const auto key = static_cast<std::uint16_t>(peer.value() >> kChunkBits);
    const Chunk* chunk = find_chunk(key);
    if (chunk == nullptr) return false;
    const auto low = static_cast<std::uint16_t>(peer.value());
    if (chunk->is_bitmap()) {
      return (chunk->bits[low >> 6] >> (low & 63)) & 1;
    }
    return std::binary_search(chunk->lows.begin(), chunk->lows.end(), low);
  }

  /// Id at the given ascending rank (0-based); `rank` must be < size().
  /// Array chunks answer by direct index; bitmap chunks by a popcount
  /// scan. This is what lets uniform sampling run straight off the
  /// compressed form — no materialised member vector needed.
  [[nodiscard]] PeerId select_rank(std::size_t rank) const;

  /// Number of members strictly below `peer` (which need not be present).
  [[nodiscard]] std::size_t rank_of(PeerId peer) const noexcept;

  /// Largest id in the set; the set must be non-empty.
  [[nodiscard]] std::uint32_t max_id() const {
    UPDP2P_ENSURE(size_ > 0, "max_id() on an empty ChunkedPeerSet");
    const Chunk& chunk = chunks_.back();
    const std::uint32_t base = std::uint32_t{chunk.key} << kChunkBits;
    if (!chunk.is_bitmap()) return base | chunk.lows.back();
    for (std::size_t w = kBitmapWords; w-- > 0;) {
      if (chunk.bits[w] != 0) {
        return base |
               static_cast<std::uint32_t>(
                   w * 64 + (63 - std::countl_zero(chunk.bits[w])));
      }
    }
    UPDP2P_ENSURE(false, "bitmap chunk with nonzero cardinality has no bits");
    return 0;
  }

  /// Visits every id in ascending order (part of the contract: callers use
  /// this order for deterministic downstream draws).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Chunk& chunk : chunks_) for_each_in_chunk(chunk, fn);
  }

  /// Union: adds every id of `other` to this set. Bitmap/bitmap pairs run
  /// word-parallel (64-bit OR).
  void insert_all(const ChunkedPeerSet& other) {
    absorb(other, [](PeerId) {});
  }

  /// Union fused with novelty detection: every id of `other` that was NOT
  /// already present is reported to `on_new` (ascending order) and then
  /// inserted. This is the shape of a view merge — one pass computes both
  /// the difference (word-parallel AND-NOT over bitmap chunks) and the
  /// union.
  template <typename Fn>
  void absorb(const ChunkedPeerSet& other, Fn&& on_new) {
    if (other.empty() || &other == this) return;
    // Iterate by index: inserting chunks invalidates iterators. Both chunk
    // lists are key-sorted, so a single merge walk pairs them up.
    std::size_t mine = 0;
    for (const Chunk& theirs : other.chunks_) {
      while (mine < chunks_.size() && chunks_[mine].key < theirs.key) ++mine;
      if (mine == chunks_.size() || chunks_[mine].key > theirs.key) {
        // No local chunk for this range: everything in it is new.
        for_each_in_chunk(theirs, on_new);
        chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(mine),
                       copy_chunk(theirs));
        size_ += theirs.cardinality;
        ++mine;
        continue;
      }
      absorb_chunk(chunks_[mine], theirs, on_new);
      ++mine;
    }
  }

  /// Difference: removes every id of `other` from this set (R \ other).
  /// Bitmap/bitmap pairs run word-parallel (64-bit AND-NOT); when an array
  /// chunk meets a much larger one, membership is resolved by galloping
  /// (binary-search) probes instead of a full linear merge.
  void subtract(const ChunkedPeerSet& other);

  /// Keeps the `cap` smallest ids, dropping the rest. (Under a sorted-set
  /// representation the head/tail drop policies of §4.2 order by peer id.)
  void keep_lowest(std::size_t cap);

  /// Keeps the `cap` largest ids, dropping the rest.
  void keep_highest(std::size_t cap);

  /// Keeps `cap` ids drawn uniformly without replacement (Floyd's
  /// algorithm over ranks), sampling directly from the compressed form —
  /// the surviving elements never materialise as a full vector. Draws
  /// exactly min(cap, size) uniform_below calls, independent of set size.
  void keep_random(StreamRng& rng, std::size_t cap) {
    if (cap >= size_) return;
    if (cap == 0) {
      clear();
      return;
    }
    // Floyd's F2: for j in [n-cap, n), pick r <= j; take j itself iff r was
    // already taken. Yields a uniform cap-subset of ranks [0, n). Taken
    // ranks live in a scratch bitset (O(1) membership; clearing costs
    // n/64 words) and are sorted once at the end — the sorted-insert
    // alternative is O(cap^2) element moves.
    rank_scratch_.clear();
    rank_bits_.assign((size_ + 63) / 64, 0);
    const auto test_and_set = [this](std::uint32_t r) {
      std::uint64_t& word = rank_bits_[r >> 6];
      const std::uint64_t mask = std::uint64_t{1} << (r & 63);
      const bool taken = (word & mask) != 0;
      word |= mask;
      return taken;
    };
    for (std::size_t j = size_ - cap; j < size_; ++j) {
      const auto r = static_cast<std::uint32_t>(rng.uniform_below(j + 1));
      if (test_and_set(r)) {
        // Floyd's invariant: j itself cannot have been taken yet.
        const auto jj = static_cast<std::uint32_t>(j);
        (void)test_and_set(jj);
        rank_scratch_.push_back(jj);
      } else {
        rank_scratch_.push_back(r);
      }
    }
    std::sort(rank_scratch_.begin(), rank_scratch_.end());
    keep_ranks(rank_scratch_);
  }

  /// Copies the contents into `out` (ascending), replacing it.
  void to_vector(std::vector<PeerId>& out) const {
    out.clear();
    out.reserve(size_);
    for_each([&out](PeerId peer) { out.push_back(peer); });
  }

  /// Heap bytes held by live chunks (excludes parked spare buffers).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t total = chunks_.capacity() * sizeof(Chunk);
    for (const Chunk& chunk : chunks_) {
      total += chunk.lows.capacity() * sizeof(std::uint16_t);
      total += chunk.bits.capacity() * sizeof(std::uint64_t);
    }
    return total;
  }

  /// Exact byte count of this set's canonical wire encoding (the chunked
  /// delta-varint layout produced by gossip::put_peer_set): varint chunk
  /// count, then per chunk varint key + form byte + varint cardinality +
  /// (delta-varint lows | raw bitmap words). Kept in sync with the codec
  /// by round-trip tests; the bandwidth model uses it so accounted bytes
  /// match bytes a real transport would send.
  [[nodiscard]] std::size_t wire_encoded_bytes() const noexcept;

  // --- wire-decode builders ---------------------------------------------------
  // Append one chunk; `key` must exceed every existing chunk's key. The
  // canonical-form rules are enforced (returns false on violation instead
  // of aborting — the caller is a decoder facing hostile input): an array
  // chunk needs 1..kArrayChunkMax strictly increasing lows; a bitmap chunk
  // needs more than kArrayChunkMax bits set. On success the chunk is
  // adopted verbatim.

  [[nodiscard]] bool append_array_chunk(std::uint16_t key,
                                        std::span<const std::uint16_t> lows);
  [[nodiscard]] bool append_bitmap_chunk(std::uint16_t key,
                                         std::span<const std::uint64_t> words);

  friend bool operator==(const ChunkedPeerSet& a, const ChunkedPeerSet& b) {
    if (a.size_ != b.size_ || a.chunks_.size() != b.chunks_.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.chunks_.size(); ++i) {
      const Chunk& ca = a.chunks_[i];
      const Chunk& cb = b.chunks_[i];
      // Canonical form: equal contents imply equal representation.
      if (ca.key != cb.key || ca.cardinality != cb.cardinality ||
          ca.lows != cb.lows || ca.bits != cb.bits) {
        return false;
      }
    }
    return true;
  }

 private:
  template <typename Fn>
  static void for_each_in_chunk(const Chunk& chunk, Fn& fn) {
    const std::uint32_t base = std::uint32_t{chunk.key} << kChunkBits;
    if (chunk.is_bitmap()) {
      for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t word = chunk.bits[w];
        while (word != 0) {
          const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
          fn(PeerId(base + static_cast<std::uint32_t>(w * 64) + bit));
          word &= word - 1;
        }
      }
    } else {
      for (const std::uint16_t low : chunk.lows) fn(PeerId(base | low));
    }
  }

  /// Finds the chunk for `key`, creating (and key-sorting in) an empty
  /// array chunk if absent.
  Chunk& chunk_for(std::uint16_t key);
  [[nodiscard]] const Chunk* find_chunk(std::uint16_t key) const noexcept {
    const auto it = std::lower_bound(
        chunks_.begin(), chunks_.end(), key,
        [](const Chunk& chunk, std::uint16_t k) { return chunk.key < k; });
    return it != chunks_.end() && it->key == key ? &*it : nullptr;
  }

  /// Takes a parked chunk buffer (or a fresh one) with the given key.
  Chunk take_chunk(std::uint16_t key);
  /// Deep copy reusing a parked buffer.
  Chunk copy_chunk(const Chunk& source);
  /// Array -> bitmap (contents unchanged).
  static void promote(Chunk& chunk);
  /// Bitmap -> array; requires cardinality <= kArrayChunkMax.
  static void demote(Chunk& chunk);
  /// Re-establishes canonical form after a cardinality change.
  static void canonicalize(Chunk& chunk) {
    if (chunk.is_bitmap() && chunk.cardinality <= kArrayChunkMax) {
      demote(chunk);
    } else if (!chunk.is_bitmap() && chunk.lows.size() > kArrayChunkMax) {
      promote(chunk);
    }
  }
  /// Drops chunks whose cardinality reached zero, parking their buffers.
  void drop_empty_chunks();
  /// Keeps exactly the ids at the given sorted, distinct ranks.
  void keep_ranks(const std::vector<std::uint32_t>& ranks);

  template <typename Fn>
  void absorb_chunk(Chunk& ours, const Chunk& theirs, Fn& on_new) {
    const std::uint32_t base = std::uint32_t{ours.key} << kChunkBits;
    const std::uint32_t before = ours.cardinality;
    if (ours.is_bitmap() && theirs.is_bitmap()) {
      // Word-parallel difference + union: 64 ids per AND-NOT/OR pair. The
      // store is gated on novelty so a duplicate list (the common case on
      // re-delivery) touches the 8 KiB bitmap read-only.
      for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t fresh = theirs.bits[w] & ~ours.bits[w];
        if (fresh == 0) continue;
        ours.bits[w] |= theirs.bits[w];
        ours.cardinality += static_cast<std::uint32_t>(std::popcount(fresh));
        do {
          const auto bit = static_cast<std::uint32_t>(std::countr_zero(fresh));
          on_new(PeerId(base + static_cast<std::uint32_t>(w * 64) + bit));
          fresh &= fresh - 1;
        } while (fresh != 0);
      }
    } else if (ours.is_bitmap()) {
      for (const std::uint16_t low : theirs.lows) {
        std::uint64_t& word = ours.bits[low >> 6];
        const std::uint64_t mask = std::uint64_t{1} << (low & 63);
        if ((word & mask) == 0) {
          word |= mask;
          ++ours.cardinality;
          on_new(PeerId(base | low));
        }
      }
    } else if (theirs.is_bitmap()) {
      // Result exceeds kArrayChunkMax (theirs alone does); promote first,
      // then flag our pre-existing ids and walk theirs word-parallel.
      promote(ours);
      absorb_chunk(ours, theirs, on_new);
      return;
    } else {
      // Sorted-array union, difference first: pass 1 collects theirs \ ours
      // into scratch (ascending) without writing a single element of ours,
      // so the dominant duplicate-delivery case — the incoming list is a
      // subset of what we already hold — costs one read-only scan. The
      // probe walk gallops (restartable lower_bound) when ours dwarfs
      // theirs, and runs a dual-pointer sweep otherwise.
      merge_scratch_.clear();
      const std::vector<std::uint16_t>& a = ours.lows;
      const std::vector<std::uint16_t>& b = theirs.lows;
      if (a.size() >= 8 * b.size()) {
        auto it = a.begin();
        for (const std::uint16_t low : b) {
          it = std::lower_bound(it, a.end(), low);
          if (it == a.end() || *it != low) merge_scratch_.push_back(low);
        }
      } else {
        std::size_t i = 0;
        for (const std::uint16_t low : b) {
          while (i < a.size() && a[i] < low) ++i;
          if (i == a.size() || a[i] != low) merge_scratch_.push_back(low);
        }
      }
      if (!merge_scratch_.empty()) {
        for (const std::uint16_t low : merge_scratch_) {
          on_new(PeerId(base | low));
        }
        // Pass 2: in-place backward merge of the fresh lows; writes stop at
        // the first position where the remaining prefix is already placed.
        const std::size_t n = ours.lows.size();
        std::size_t j = merge_scratch_.size();
        ours.cardinality += static_cast<std::uint32_t>(j);
        ours.lows.resize(n + j);
        std::size_t i = n;
        std::size_t w = n + j;
        while (j > 0) {
          if (i > 0 && ours.lows[i - 1] > merge_scratch_[j - 1]) {
            ours.lows[--w] = ours.lows[--i];
          } else {
            ours.lows[--w] = merge_scratch_[--j];
          }
        }
        if (ours.lows.size() > kArrayChunkMax) promote(ours);
      }
    }
    size_ += ours.cardinality - before;
  }

  std::vector<Chunk> chunks_;  ///< key-sorted, canonical form
  std::size_t size_ = 0;
  std::vector<Chunk> spare_;   ///< parked buffers for allocation-free reuse
  std::vector<std::uint16_t> merge_scratch_;
  std::vector<std::uint32_t> rank_scratch_;
  std::vector<std::uint64_t> rank_bits_;  ///< keep_random taken-rank bitset
};

}  // namespace updp2p::common
