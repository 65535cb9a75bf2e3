// Adaptive compressed peer-id set (roaring-style).
//
// A flooding list R_f names a subset of a dense id universe, and §4–5 of
// the paper make its *size on the wire* a first-class cost. A flat vector
// pays 4 bytes per entry in memory, up to 4 bytes per entry as a flat
// varint array on the wire, and O(|R_f|) per membership probe. This
// container splits the 32-bit id space into 2^16-id chunks keyed by the
// high 16 bits and stores each chunk in whichever form is smaller:
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
// Set algebra runs chunk-at-a-time: a union over bitmap chunks is a 64-bit
// OR sweep (word-parallel — 64 ids per instruction), array chunks use
// linear merges or galloping probes when one side is much smaller.
//
// Bitmap buffers are shared copy-on-write (CRoaring's copy-on-write
// containers are the reference design). Copying a set, or taking a union
// with a chunk this set lacks, bumps the buffer's reference count instead
// of copying 8 KiB; a union whose chunk gains nothing leaves it shared,
// and a chunk whose ids all lie in an incoming bitmap adopts that bitmap.
// So every view bootstrapped from one full-membership set holds the same
// buffers. The unshare rule: every write to a bitmap goes through
// writable_words(), which copies the buffer first unless this chunk is its
// only holder. Array chunks (at most 8 KiB, usually far less) are always
// private.
//
// Threads: a set is a plain value — concurrent const use is safe,
// concurrent mutation of ONE set is not. Sets that share buffers may live
// on different threads and be mutated independently: the counts are
// atomic, and the only-holder check loads with acquire ordering, so every
// read another holder made before dropping its reference happens-before
// this holder's in-place write.
//
// Iteration (for_each) is always in ascending id order; deterministic
// simulation depends on that, so it is part of the contract.
//
// clear() parks array buffers, and the bitmap buffers this set alone
// holds, on internal free lists instead of freeing them, so a warm set
// rebuilt every round performs no heap allocation.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
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

  /// Handle to a reference-counted 8 KiB bitmap buffer. The count is
  /// intrusive and atomic; the last handle to let go frees the buffer.
  /// Only ChunkedPeerSet can allocate or write one.
  class SharedBitmap {
   public:
    SharedBitmap() = default;
    SharedBitmap(const SharedBitmap& other) noexcept : block_(other.block_) {
      if (block_ != nullptr) {
        block_->refs.fetch_add(1, std::memory_order_relaxed);
      }
    }
    SharedBitmap(SharedBitmap&& other) noexcept
        : block_(std::exchange(other.block_, nullptr)) {}
    SharedBitmap& operator=(SharedBitmap other) noexcept {
      std::swap(block_, other.block_);
      return *this;
    }
    ~SharedBitmap() { reset(); }

    explicit operator bool() const noexcept { return block_ != nullptr; }
    [[nodiscard]] const std::uint64_t* data() const noexcept {
      return block_->words.data();
    }

   private:
    friend class ChunkedPeerSet;
    struct Block {
      std::atomic<std::uint32_t> refs{1};
      std::array<std::uint64_t, kBitmapWords> words{};
    };

    /// A new zeroed buffer held only by the returned handle.
    [[nodiscard]] static SharedBitmap allocate() {
      SharedBitmap bitmap;
      bitmap.block_ = new Block;
      return bitmap;
    }
    void reset() noexcept {
      if (block_ != nullptr &&
          block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        delete block_;
      }
      block_ = nullptr;
    }
    /// Whether no other handle shares the buffer (acquire: see the header).
    [[nodiscard]] bool unique() const noexcept {
      return block_->refs.load(std::memory_order_acquire) == 1;
    }
    /// Writable words; only for the sole holder.
    [[nodiscard]] std::uint64_t* mutable_data() noexcept {
      return block_->words.data();
    }

    Block* block_ = nullptr;
  };

  /// One 2^16-id range. Exposed read-only for the wire codec; everything
  /// else should go through the set-level operations.
  struct Chunk {
    std::uint16_t key = 0;           ///< id >> 16
    std::uint32_t cardinality = 0;   ///< ids present in this chunk
    std::vector<std::uint16_t> lows; ///< sorted low halves (array form)
    SharedBitmap bitmap;             ///< bitmap form, possibly shared

    [[nodiscard]] bool is_bitmap() const noexcept {
      return static_cast<bool>(bitmap);
    }
    /// The bitmap's kBitmapWords words, empty for an array chunk. Chunks
    /// sharing one buffer return the same data() — sharing is observable.
    [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
      if (!is_bitmap()) return {};
      return {bitmap.data(), kBitmapWords};
    }
  };

  ChunkedPeerSet() = default;
  ChunkedPeerSet(std::initializer_list<PeerId> peers) {
    for (const PeerId peer : peers) insert(peer);
  }

  // Copies share every bitmap buffer and drop the scratch free lists; only
  // live chunks transfer.
  ChunkedPeerSet(const ChunkedPeerSet& other)
      : chunks_(other.chunks_), size_(other.size_), max_id_(other.max_id_) {}
  ChunkedPeerSet& operator=(const ChunkedPeerSet& other) {
    if (this != &other) {
      chunks_ = other.chunks_;
      size_ = other.size_;
      max_id_ = other.max_id_;
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
    for (Chunk& chunk : chunks_) park(chunk);
    chunks_.clear();
    size_ = 0;
    max_id_ = 0;
  }

  /// Inserts `peer`; returns true when it was not already present.
  bool insert(PeerId peer) {
    UPDP2P_ENSURE(peer.is_valid(),
                  "ChunkedPeerSet requires valid peer ids");
    const auto key = static_cast<std::uint16_t>(peer.value() >> kChunkBits);
    const auto low = static_cast<std::uint16_t>(peer.value());
    Chunk& chunk = chunk_for(key);
    if (chunk.is_bitmap()) {
      const std::uint64_t mask = std::uint64_t{1} << (low & 63);
      if ((chunk.bitmap.data()[low >> 6] & mask) != 0) return false;
      writable_words(chunk)[low >> 6] |= mask;
    } else {
      const auto it =
          std::lower_bound(chunk.lows.begin(), chunk.lows.end(), low);
      if (it != chunk.lows.end() && *it == low) return false;
      chunk.lows.insert(it, low);
      if (chunk.lows.size() > kArrayChunkMax) promote(chunk);
    }
    ++chunk.cardinality;
    ++size_;
    max_id_ = std::max(max_id_, peer.value());
    return true;
  }

  [[nodiscard]] bool contains(PeerId peer) const noexcept {
    if (!peer.is_valid()) return false;
    const auto key = static_cast<std::uint16_t>(peer.value() >> kChunkBits);
    const Chunk* chunk = find_chunk(key);
    if (chunk == nullptr) return false;
    const auto low = static_cast<std::uint16_t>(peer.value());
    if (chunk->is_bitmap()) {
      return (chunk->bitmap.data()[low >> 6] >> (low & 63)) & 1;
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

  /// Largest id in the set; the set must be non-empty. O(1): every
  /// mutator keeps it exact as it goes (no lazily filled cache, so
  /// concurrent readers of one set never write).
  [[nodiscard]] std::uint32_t max_id() const {
    UPDP2P_ENSURE(size_ > 0, "max_id() on an empty ChunkedPeerSet");
    return max_id_;
  }

  /// Visits every id in ascending order (part of the contract: callers use
  /// this order for deterministic downstream draws).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Chunk& chunk : chunks_) for_each_in_chunk(chunk, fn);
  }

  /// Union: adds every id of `other` to this set. Chunks this set lacks
  /// are shared, not copied; bitmap/bitmap pairs test for novelty before
  /// they write and then run word-parallel (64-bit OR). Callers that need
  /// the count of new ids read the size delta.
  void insert_all(const ChunkedPeerSet& other);

  /// The forward step's union (§4.2), one sweep per chunk that `ids` or
  /// `also` touch: replaces this set with `base` ∪ `ids` ∪ {`also`} and
  /// compacts `ids` in place, keeping their order, to the ids that were
  /// new, i.e. in neither `base` nor an earlier slot of `ids`. `also`
  /// (skipped when invalid) is inserted after `ids` and never counted.
  /// Returns the compacted length. A touched array chunk costs O(its ids +
  /// the 64-id words they span): a scratch bitmap over that word range,
  /// never more than one chunk's 8 KiB, replaces a binary search and a
  /// sorted insert per id. A touched bitmap chunk is tested and set in
  /// place, unsharing only if an id is new. Untouched chunks of `base` are
  /// shared as insert_all shares them. `base` must not be this set.
  std::size_t assign_union_compact_new(const ChunkedPeerSet& base,
                                       std::span<PeerId> ids, PeerId also);

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
    bit_scratch_.assign((size_ + 63) / 64, 0);
    const auto test_and_set = [this](std::uint32_t r) {
      std::uint64_t& word = bit_scratch_[r >> 6];
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

  // --- wire-decode builders ---------------------------------------------------
  // Append one chunk; `key` must exceed every existing chunk's key. The
  // canonical-form rules are enforced (returns false on violation instead
  // of aborting — the caller is a decoder facing hostile input): an array
  // chunk needs 1..kArrayChunkMax strictly increasing lows; a bitmap chunk
  // needs more than kArrayChunkMax bits set. On success the chunk is
  // adopted verbatim.
  //
  // The streaming forms build the chunk straight in a parked buffer, so a
  // warm set decodes without allocating: `next_low()` yields each of the
  // `count` lows and `next_word()` each of the kBitmapWords words, as a
  // std::optional whose nullopt aborts. A rejected chunk's buffer is
  // parked again.

  template <std::invocable NextLow>
  [[nodiscard]] bool append_array_chunk(std::uint16_t key, std::size_t count,
                                        NextLow&& next_low);
  template <std::invocable NextWord>
  [[nodiscard]] bool append_bitmap_chunk(std::uint16_t key,
                                         NextWord&& next_word);

  [[nodiscard]] bool append_array_chunk(std::uint16_t key,
                                        std::span<const std::uint16_t> lows) {
    auto next = lows.begin();
    return append_array_chunk(key, lows.size(), [&next] {
      return std::optional<std::uint16_t>(*next++);
    });
  }
  [[nodiscard]] bool append_bitmap_chunk(std::uint16_t key,
                                         std::span<const std::uint64_t> words) {
    if (words.size() != kBitmapWords) return false;
    auto next = words.begin();
    return append_bitmap_chunk(
        key, [&next] { return std::optional<std::uint64_t>(*next++); });
  }

  /// Content equality (canonical form: equal contents imply equal chunk
  /// forms); a shared buffer compares equal without a scan.
  friend bool operator==(const ChunkedPeerSet& a, const ChunkedPeerSet& b) {
    if (a.size_ != b.size_ || a.chunks_.size() != b.chunks_.size()) {
      return false;
    }
    for (std::size_t i = 0; i < a.chunks_.size(); ++i) {
      const Chunk& ca = a.chunks_[i];
      const Chunk& cb = b.chunks_[i];
      if (ca.key != cb.key || ca.cardinality != cb.cardinality ||
          ca.is_bitmap() != cb.is_bitmap() || ca.lows != cb.lows) {
        return false;
      }
      if (ca.is_bitmap() && ca.bitmap.data() != cb.bitmap.data() &&
          !std::ranges::equal(ca.words(), cb.words())) {
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
      const std::uint64_t* bits = chunk.bitmap.data();
      for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t word = bits[w];
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

  /// The unshare step every bitmap write goes through: copies the buffer
  /// into a private one unless this chunk is its only holder.
  std::uint64_t* writable_words(Chunk& chunk);
  /// A parked bitmap buffer (or a fresh one), held only by the result.
  SharedBitmap take_bitmap();
  /// Drops the chunk's bitmap, parking the buffer if this set held it alone.
  void release_bitmap(Chunk& chunk) noexcept;
  /// Empties a chunk and moves it onto the free list.
  void park(Chunk& chunk) noexcept;
  /// Takes a parked chunk buffer (or a fresh one) with the given key.
  Chunk take_chunk(std::uint16_t key);
  /// A copy of another set's chunk that shares its bitmap buffer.
  Chunk shared_copy(const Chunk& theirs);
  /// assign_union_compact_new's step for one touched chunk: appends the
  /// chunk `key` of `theirs` ∪ ids ∪ {also} and marks each id of that key
  /// that was not new by overwriting it with PeerId::invalid().
  void sweep_chunk(std::uint16_t key, const Chunk* theirs,
                   std::span<PeerId> ids, PeerId also);
  /// Unions one incoming chunk into the local chunk with the same key.
  void union_chunk(Chunk& ours, const Chunk& theirs);
  /// Array -> bitmap (contents unchanged).
  void promote(Chunk& chunk);
  /// Bitmap -> array; requires cardinality <= kArrayChunkMax.
  void demote(Chunk& chunk);
  /// Re-establishes canonical form after a cardinality change.
  void canonicalize(Chunk& chunk) {
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
  /// Re-derives max_id_ after a removal: unchanged while the old maximum
  /// survives, otherwise read off the top chunk.
  void refresh_max_id() noexcept;

  std::vector<Chunk> chunks_;  ///< key-sorted, canonical form
  std::size_t size_ = 0;
  std::uint32_t max_id_ = 0;   ///< largest member; 0 while empty
  std::vector<Chunk> spare_;   ///< parked array buffers (no bitmap)
  std::vector<SharedBitmap> spare_bitmaps_;  ///< parked, held by no one else
  // Scratch, never read across calls. Every set carries it (a view's index
  // too), so the operations share these few vectors instead of adding one
  // each.
  /// union_chunk's new lows, keep_ranks' survivors, assign_union_compact_new's
  /// touched chunk keys.
  std::vector<std::uint16_t> merge_scratch_;
  std::vector<std::uint32_t> rank_scratch_;
  /// keep_random's taken-rank bitset; assign_union_compact_new's bitmap
  /// over the words one chunk's ids span (at most kBitmapWords).
  std::vector<std::uint64_t> bit_scratch_;
};

template <std::invocable NextLow>
bool ChunkedPeerSet::append_array_chunk(std::uint16_t key, std::size_t count,
                                        NextLow&& next_low) {
  if (count == 0 || count > kArrayChunkMax) return false;
  if (!chunks_.empty() && chunks_.back().key >= key) return false;
  Chunk chunk = take_chunk(key);
  for (std::size_t i = 0; i < count; ++i) {
    const std::optional<std::uint16_t> low = next_low();
    if (!low || (i > 0 && *low <= chunk.lows.back())) {
      park(chunk);
      return false;
    }
    chunk.lows.push_back(*low);
  }
  chunk.cardinality = static_cast<std::uint32_t>(count);
  size_ += count;
  max_id_ = (std::uint32_t{key} << kChunkBits) | chunk.lows.back();
  chunks_.push_back(std::move(chunk));
  return true;
}

template <std::invocable NextWord>
bool ChunkedPeerSet::append_bitmap_chunk(std::uint16_t key,
                                         NextWord&& next_word) {
  if (!chunks_.empty() && chunks_.back().key >= key) return false;
  Chunk chunk = take_chunk(key);
  chunk.bitmap = take_bitmap();
  std::uint64_t* words = writable_words(chunk);
  std::uint32_t cardinality = 0;
  std::size_t top = 0;  // last nonzero word
  for (std::size_t w = 0; w < kBitmapWords; ++w) {
    const std::optional<std::uint64_t> word = next_word();
    if (!word) {
      park(chunk);
      return false;
    }
    words[w] = *word;
    cardinality += static_cast<std::uint32_t>(std::popcount(*word));
    if (*word != 0) top = w;
  }
  // Canonical form: a bitmap chunk must be denser than any array chunk.
  if (cardinality <= kArrayChunkMax) {
    park(chunk);
    return false;
  }
  chunk.cardinality = cardinality;
  size_ += cardinality;
  max_id_ = (std::uint32_t{key} << kChunkBits) |
            static_cast<std::uint32_t>(top * 64 +
                                       (63 - std::countl_zero(words[top])));
  chunks_.push_back(std::move(chunk));
  return true;
}

}  // namespace updp2p::common
