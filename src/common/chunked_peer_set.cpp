#include "common/chunked_peer_set.hpp"

namespace updp2p::common {

ChunkedPeerSet::Chunk& ChunkedPeerSet::chunk_for(std::uint16_t key) {
  const auto it = std::lower_bound(
      chunks_.begin(), chunks_.end(), key,
      [](const Chunk& chunk, std::uint16_t k) { return chunk.key < k; });
  if (it != chunks_.end() && it->key == key) return *it;
  const auto index = static_cast<std::size_t>(it - chunks_.begin());
  chunks_.insert(it, take_chunk(key));
  return chunks_[index];
}

std::uint64_t* ChunkedPeerSet::writable_words(Chunk& chunk) {
  if (!chunk.bitmap.unique()) {
    SharedBitmap copy = take_bitmap();
    std::copy_n(chunk.bitmap.data(), kBitmapWords, copy.mutable_data());
    chunk.bitmap = std::move(copy);
  }
  return chunk.bitmap.mutable_data();
}

ChunkedPeerSet::SharedBitmap ChunkedPeerSet::take_bitmap() {
  if (spare_bitmaps_.empty()) return SharedBitmap::allocate();
  SharedBitmap bitmap = std::move(spare_bitmaps_.back());
  spare_bitmaps_.pop_back();
  return bitmap;
}

void ChunkedPeerSet::release_bitmap(Chunk& chunk) noexcept {
  if (!chunk.is_bitmap()) return;
  if (chunk.bitmap.unique()) {
    spare_bitmaps_.push_back(std::move(chunk.bitmap));
  } else {
    chunk.bitmap.reset();
  }
}

void ChunkedPeerSet::park(Chunk& chunk) noexcept {
  release_bitmap(chunk);
  chunk.cardinality = 0;
  chunk.lows.clear();
  spare_.push_back(std::move(chunk));
}

ChunkedPeerSet::Chunk ChunkedPeerSet::take_chunk(std::uint16_t key) {
  Chunk chunk;
  if (!spare_.empty()) {
    chunk = std::move(spare_.back());
    spare_.pop_back();
  }
  chunk.key = key;
  return chunk;
}

ChunkedPeerSet::Chunk ChunkedPeerSet::shared_copy(const Chunk& theirs) {
  Chunk chunk = take_chunk(theirs.key);
  chunk.cardinality = theirs.cardinality;
  chunk.lows.assign(theirs.lows.begin(), theirs.lows.end());
  chunk.bitmap = theirs.bitmap;
  return chunk;
}

std::size_t ChunkedPeerSet::assign_union_compact_new(
    const ChunkedPeerSet& base, std::span<PeerId> ids, PeerId also) {
  UPDP2P_ENSURE(&base != this,
                "assign_union_compact_new needs a distinct base set");
  clear();
  // The chunk keys the ids and `also` touch, ascending and distinct. Ids
  // from one 2^16-id universe share one key, so this is usually one entry.
  merge_scratch_.clear();
  std::uint32_t max_id = base.empty() ? 0 : base.max_id_;
  const auto note = [this, &max_id](PeerId peer) {
    UPDP2P_ENSURE(peer.is_valid(), "ChunkedPeerSet requires valid peer ids");
    const auto key = static_cast<std::uint16_t>(peer.value() >> kChunkBits);
    if (merge_scratch_.empty() || merge_scratch_.back() != key) {
      merge_scratch_.push_back(key);
    }
    max_id = std::max(max_id, peer.value());
  };
  for (const PeerId peer : ids) note(peer);
  if (also.is_valid()) note(also);
  std::sort(merge_scratch_.begin(), merge_scratch_.end());
  merge_scratch_.erase(
      std::unique(merge_scratch_.begin(), merge_scratch_.end()),
      merge_scratch_.end());

  // One merge walk over base's chunks and the touched keys: untouched
  // chunks are shared, touched ones swept.
  std::size_t next = 0;
  for (const std::uint16_t key : merge_scratch_) {
    while (next < base.chunks_.size() && base.chunks_[next].key < key) {
      chunks_.push_back(shared_copy(base.chunks_[next++]));
    }
    const Chunk* theirs = nullptr;
    if (next < base.chunks_.size() && base.chunks_[next].key == key) {
      theirs = &base.chunks_[next++];
    }
    sweep_chunk(key, theirs, ids, also);
  }
  while (next < base.chunks_.size()) {
    chunks_.push_back(shared_copy(base.chunks_[next++]));
  }
  for (const Chunk& chunk : chunks_) size_ += chunk.cardinality;
  max_id_ = size_ == 0 ? 0 : max_id;

  // Ids that were not new were marked invalid; drop them, keeping order.
  std::size_t kept = 0;
  for (const PeerId peer : ids) {
    if (peer.is_valid()) ids[kept++] = peer;
  }
  return kept;
}

void ChunkedPeerSet::sweep_chunk(std::uint16_t key, const Chunk* theirs,
                                 std::span<PeerId> ids, PeerId also) {
  const auto in_chunk = [key](PeerId peer) {
    return peer.is_valid() &&
           static_cast<std::uint16_t>(peer.value() >> kChunkBits) == key;
  };
  const bool also_here = in_chunk(also);
  Chunk chunk = take_chunk(key);

  if (theirs != nullptr && theirs->is_bitmap()) {
    // Already a bitmap, and a union only grows it: test and set in place,
    // sharing their buffer until the first new id.
    chunk.bitmap = theirs->bitmap;
    chunk.cardinality = theirs->cardinality;
    const auto test_and_set = [this, &chunk](std::uint16_t low) {
      const std::uint64_t mask = std::uint64_t{1} << (low & 63);
      if ((chunk.bitmap.data()[low >> 6] & mask) != 0) return false;
      writable_words(chunk)[low >> 6] |= mask;
      ++chunk.cardinality;
      return true;
    };
    for (PeerId& peer : ids) {
      if (in_chunk(peer) &&
          !test_and_set(static_cast<std::uint16_t>(peer.value()))) {
        peer = PeerId::invalid();
      }
    }
    if (also_here) {
      (void)test_and_set(static_cast<std::uint16_t>(also.value()));
    }
    chunks_.push_back(std::move(chunk));
    return;
  }

  // Array chunk (or none): a scratch bitmap over the word range the chunk's
  // ids span. Their lows are sorted, so the ends bound them.
  std::uint32_t lo = kChunkSpan - 1;
  std::uint32_t hi = 0;
  const auto widen = [&lo, &hi](std::uint32_t low) {
    lo = std::min(lo, low);
    hi = std::max(hi, low);
  };
  if (theirs != nullptr) {
    widen(theirs->lows.front());
    widen(theirs->lows.back());
  }
  for (const PeerId peer : ids) {
    if (in_chunk(peer)) widen(peer.value() & (kChunkSpan - 1));
  }
  if (also_here) widen(also.value() & (kChunkSpan - 1));
  const std::size_t first_word = lo >> 6;
  const std::size_t word_count = (hi >> 6) - first_word + 1;
  bit_scratch_.assign(word_count, 0);
  std::uint64_t* words = bit_scratch_.data();
  std::uint32_t cardinality = 0;
  const auto test_and_set = [words, first_word, &cardinality](
                                std::uint32_t low) {
    std::uint64_t& word = words[(low >> 6) - first_word];
    const std::uint64_t mask = std::uint64_t{1} << (low & 63);
    if ((word & mask) != 0) return false;
    word |= mask;
    ++cardinality;
    return true;
  };
  if (theirs != nullptr) {
    // Distinct by construction: set without testing.
    for (const std::uint16_t low : theirs->lows) {
      words[(low >> 6) - first_word] |= std::uint64_t{1} << (low & 63);
    }
    cardinality = theirs->cardinality;
  }
  for (PeerId& peer : ids) {
    if (in_chunk(peer) && !test_and_set(peer.value() & (kChunkSpan - 1))) {
      peer = PeerId::invalid();
    }
  }
  if (also_here) (void)test_and_set(also.value() & (kChunkSpan - 1));

  // Write back in canonical form.
  chunk.cardinality = cardinality;
  if (cardinality <= kArrayChunkMax) {
    chunk.lows.resize(cardinality);
    std::size_t at = 0;
    for (std::size_t w = 0; w < word_count; ++w) {
      std::uint64_t word = words[w];
      while (word != 0) {
        chunk.lows[at++] = static_cast<std::uint16_t>(
            (first_word + w) * 64 +
            static_cast<std::size_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  } else {
    chunk.bitmap = take_bitmap();
    std::uint64_t* bits = writable_words(chunk);
    std::fill_n(bits, kBitmapWords, 0);
    std::copy_n(words, word_count, bits + first_word);
  }
  chunks_.push_back(std::move(chunk));
}

void ChunkedPeerSet::insert_all(const ChunkedPeerSet& other) {
  if (other.empty() || &other == this) return;
  // Iterate by index: inserting chunks invalidates iterators. Both chunk
  // lists are key-sorted, so a single merge walk pairs them up.
  std::size_t mine = 0;
  for (const Chunk& theirs : other.chunks_) {
    while (mine < chunks_.size() && chunks_[mine].key < theirs.key) ++mine;
    if (mine == chunks_.size() || chunks_[mine].key > theirs.key) {
      // No local chunk for this range: take theirs whole, sharing a bitmap.
      chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(mine),
                     shared_copy(theirs));
      size_ += theirs.cardinality;
    } else {
      const std::uint32_t before = chunks_[mine].cardinality;
      union_chunk(chunks_[mine], theirs);
      size_ += chunks_[mine].cardinality - before;
    }
    ++mine;
  }
  max_id_ = std::max(max_id_, other.max_id_);
}

void ChunkedPeerSet::union_chunk(Chunk& ours, const Chunk& theirs) {
  if (theirs.is_bitmap()) {
    const std::uint64_t* bits = theirs.bitmap.data();
    if (!ours.is_bitmap()) {
      // Theirs alone exceeds kArrayChunkMax, so the result is a bitmap. An
      // array that is a subset — the bootstrap case: a view holding only
      // its owner absorbs everyone — adopts their buffer outright.
      if (std::all_of(ours.lows.begin(), ours.lows.end(),
                      [bits](std::uint16_t low) {
                        return ((bits[low >> 6] >> (low & 63)) & 1) != 0;
                      })) {
        ours.lows.clear();
        ours.bitmap = theirs.bitmap;
        ours.cardinality = theirs.cardinality;
        return;
      }
      promote(ours);
    }
    const std::uint64_t* mine = ours.bitmap.data();
    if (mine == bits) return;  // one shared buffer: nothing to add
    // Novelty first, so a bitmap that gains nothing stays shared — the
    // dominant duplicate-delivery case touches 8 KiB read-only.
    bool gains = false;
    bool covered = true;  // every id of ours is in theirs
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
      gains |= (bits[w] & ~mine[w]) != 0;
      covered &= (mine[w] & ~bits[w]) == 0;
    }
    if (!gains) return;
    if (covered) {
      release_bitmap(ours);
      ours.bitmap = theirs.bitmap;
      ours.cardinality = theirs.cardinality;
      return;
    }
    // Word-parallel union: 64 ids per OR.
    std::uint64_t* dst = writable_words(ours);
    std::uint32_t cardinality = 0;
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
      dst[w] |= bits[w];
      cardinality += static_cast<std::uint32_t>(std::popcount(dst[w]));
    }
    ours.cardinality = cardinality;
    return;
  }
  if (ours.is_bitmap()) {
    const std::uint64_t* mine = ours.bitmap.data();
    auto it = std::find_if(theirs.lows.begin(), theirs.lows.end(),
                           [mine](std::uint16_t low) {
                             return ((mine[low >> 6] >> (low & 63)) & 1) == 0;
                           });
    if (it == theirs.lows.end()) return;  // nothing new: stays shared
    std::uint64_t* dst = writable_words(ours);
    for (; it != theirs.lows.end(); ++it) {
      std::uint64_t& word = dst[*it >> 6];
      const std::uint64_t mask = std::uint64_t{1} << (*it & 63);
      if ((word & mask) == 0) {
        word |= mask;
        ++ours.cardinality;
      }
    }
    return;
  }
  // Sorted-array union, difference first: pass 1 collects theirs \ ours
  // into scratch (ascending) without writing a single element of ours, so
  // the dominant duplicate-delivery case — the incoming list is a subset of
  // what we already hold — costs one read-only scan. The probe walk
  // gallops (restartable lower_bound) when ours dwarfs theirs, and runs a
  // dual-pointer sweep otherwise.
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
  if (merge_scratch_.empty()) return;
  // Pass 2: in-place backward merge of the fresh lows; writes stop at the
  // first position where the remaining prefix is already placed.
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

void ChunkedPeerSet::promote(Chunk& chunk) {
  chunk.bitmap = take_bitmap();
  std::uint64_t* bits = writable_words(chunk);
  std::fill_n(bits, kBitmapWords, 0);
  for (const std::uint16_t low : chunk.lows) {
    bits[low >> 6] |= std::uint64_t{1} << (low & 63);
  }
  chunk.lows.clear();
}

void ChunkedPeerSet::demote(Chunk& chunk) {
  chunk.lows.clear();
  chunk.lows.reserve(chunk.cardinality);
  const std::uint64_t* bits = chunk.bitmap.data();
  for (std::size_t w = 0; w < kBitmapWords; ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      chunk.lows.push_back(static_cast<std::uint16_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
      word &= word - 1;
    }
  }
  release_bitmap(chunk);
}

void ChunkedPeerSet::drop_empty_chunks() {
  std::size_t keep = 0;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    if (chunks_[i].cardinality == 0) {
      park(chunks_[i]);
    } else {
      if (keep != i) chunks_[keep] = std::move(chunks_[i]);
      ++keep;
    }
  }
  chunks_.resize(keep);
}

void ChunkedPeerSet::refresh_max_id() noexcept {
  if (size_ == 0) {
    max_id_ = 0;
    return;
  }
  if (contains(PeerId(max_id_))) return;
  const Chunk& chunk = chunks_.back();
  const std::uint32_t base = std::uint32_t{chunk.key} << kChunkBits;
  if (!chunk.is_bitmap()) {
    max_id_ = base | chunk.lows.back();
    return;
  }
  const std::uint64_t* bits = chunk.bitmap.data();
  std::size_t w = kBitmapWords - 1;
  while (bits[w] == 0) --w;  // a bitmap chunk holds > kArrayChunkMax ids
  max_id_ = base | static_cast<std::uint32_t>(
                       w * 64 + (63 - std::countl_zero(bits[w])));
}

PeerId ChunkedPeerSet::select_rank(std::size_t rank) const {
  UPDP2P_ENSURE(rank < size_, "select_rank out of range");
  for (const Chunk& chunk : chunks_) {
    if (rank >= chunk.cardinality) {
      rank -= chunk.cardinality;
      continue;
    }
    const std::uint32_t base = std::uint32_t{chunk.key} << kChunkBits;
    if (!chunk.is_bitmap()) return PeerId(base | chunk.lows[rank]);
    const std::uint64_t* bits = chunk.bitmap.data();
    for (std::size_t w = 0; w < kBitmapWords; ++w) {
      const auto here = static_cast<std::size_t>(std::popcount(bits[w]));
      if (rank >= here) {
        rank -= here;
        continue;
      }
      std::uint64_t word = bits[w];
      while (rank-- > 0) word &= word - 1;  // clear the lowest `rank` bits
      return PeerId(base + static_cast<std::uint32_t>(w * 64) +
                    static_cast<std::uint32_t>(std::countr_zero(word)));
    }
  }
  UPDP2P_ENSURE(false, "chunk cardinalities disagree with size()");
  return PeerId::invalid();
}

std::size_t ChunkedPeerSet::rank_of(PeerId peer) const noexcept {
  if (!peer.is_valid()) return size_;
  const auto key = static_cast<std::uint16_t>(peer.value() >> kChunkBits);
  const auto low = static_cast<std::uint16_t>(peer.value());
  std::size_t rank = 0;
  for (const Chunk& chunk : chunks_) {
    if (chunk.key > key) break;
    if (chunk.key < key) {
      rank += chunk.cardinality;
      continue;
    }
    if (chunk.is_bitmap()) {
      const std::uint64_t* bits = chunk.bitmap.data();
      for (std::size_t w = 0; w < static_cast<std::size_t>(low >> 6); ++w) {
        rank += static_cast<std::size_t>(std::popcount(bits[w]));
      }
      const std::uint64_t below = (std::uint64_t{1} << (low & 63)) - 1;
      rank += static_cast<std::size_t>(std::popcount(bits[low >> 6] & below));
    } else {
      rank += static_cast<std::size_t>(
          std::lower_bound(chunk.lows.begin(), chunk.lows.end(), low) -
          chunk.lows.begin());
    }
    break;
  }
  return rank;
}

void ChunkedPeerSet::keep_lowest(std::size_t cap) {
  if (cap >= size_) return;
  if (cap == 0) {
    clear();
    return;
  }
  std::size_t kept = 0;
  std::size_t boundary = chunks_.size();
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    Chunk& chunk = chunks_[i];
    if (kept + chunk.cardinality <= cap) {
      kept += chunk.cardinality;
      if (kept == cap) {
        boundary = i + 1;
        break;
      }
      continue;
    }
    // Partial chunk: keep the first (cap - kept) ids.
    const auto take = static_cast<std::uint32_t>(cap - kept);
    if (chunk.is_bitmap()) {
      std::uint64_t* bits = writable_words(chunk);
      std::uint32_t seen = 0;
      for (std::size_t w = 0; w < kBitmapWords; ++w) {
        const auto bits_here =
            static_cast<std::uint32_t>(std::popcount(bits[w]));
        if (seen + bits_here <= take) {
          seen += bits_here;
          continue;
        }
        // Clear all but the lowest (take - seen) bits of this word...
        std::uint64_t word = bits[w];
        for (std::uint32_t b = take - seen; b > 0; --b) word &= word - 1;
        bits[w] ^= word;
        // ...and every later word entirely.
        std::fill(bits + w + 1, bits + kBitmapWords, 0);
        break;
      }
    } else {
      chunk.lows.resize(take);
    }
    chunk.cardinality = take;
    canonicalize(chunk);
    boundary = i + 1;
    break;
  }
  for (std::size_t i = boundary; i < chunks_.size(); ++i) park(chunks_[i]);
  chunks_.resize(boundary);
  size_ = cap;
  refresh_max_id();
}

void ChunkedPeerSet::keep_highest(std::size_t cap) {
  if (cap >= size_) return;
  if (cap == 0) {
    clear();
    return;
  }
  // Walk from the top, counting how many ids survive per chunk.
  std::size_t kept = 0;
  std::size_t first = 0;
  for (std::size_t i = chunks_.size(); i-- > 0;) {
    Chunk& chunk = chunks_[i];
    if (kept + chunk.cardinality <= cap) {
      kept += chunk.cardinality;
      if (kept == cap) {
        first = i;
        break;
      }
      continue;
    }
    // Partial chunk: drop the first (cardinality - (cap - kept)) ids.
    const auto take = static_cast<std::uint32_t>(cap - kept);
    const std::uint32_t drop = chunk.cardinality - take;
    if (chunk.is_bitmap()) {
      std::uint64_t* bits = writable_words(chunk);
      std::uint32_t dropped = 0;
      for (std::size_t w = 0; w < kBitmapWords; ++w) {
        const auto bits_here =
            static_cast<std::uint32_t>(std::popcount(bits[w]));
        if (dropped + bits_here <= drop) {
          dropped += bits_here;
          bits[w] = 0;
          continue;
        }
        std::uint64_t word = bits[w];
        for (std::uint32_t b = drop - dropped; b > 0; --b) word &= word - 1;
        bits[w] = word;
        break;
      }
    } else {
      chunk.lows.erase(chunk.lows.begin(),
                       chunk.lows.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    chunk.cardinality = take;
    canonicalize(chunk);
    first = i;
    break;
  }
  // The maximum survives, so max_id_ stands.
  for (std::size_t i = 0; i < first; ++i) park(chunks_[i]);
  chunks_.erase(chunks_.begin(),
                chunks_.begin() + static_cast<std::ptrdiff_t>(first));
  size_ = cap;
}

void ChunkedPeerSet::keep_ranks(const std::vector<std::uint32_t>& ranks) {
  // One ascending sweep: visit each chunk's ids in order, keep those whose
  // global rank is next in the (sorted) rank list, rebuilding each chunk in
  // place. The survivors stay within their original chunk, so no cross-
  // chunk moves happen and nothing materialises outside the chunk storage.
  std::size_t next = 0;  // index into ranks
  std::uint32_t rank = 0;
  for (Chunk& chunk : chunks_) {
    if (next == ranks.size() ||
        ranks[next] >= rank + chunk.cardinality) {
      // No survivor in this chunk; drop_empty_chunks parks it.
      rank += chunk.cardinality;
      chunk.cardinality = 0;
      continue;
    }
    const std::uint32_t chunk_base_rank = rank;
    merge_scratch_.clear();
    const auto visit = [&](std::uint16_t low) {
      if (next < ranks.size() && ranks[next] == rank) {
        merge_scratch_.push_back(low);
        ++next;
      }
      ++rank;
    };
    if (chunk.is_bitmap()) {
      const std::uint64_t* bits = chunk.bitmap.data();
      for (std::size_t w = 0; w < kBitmapWords; ++w) {
        std::uint64_t word = bits[w];
        while (word != 0) {
          visit(static_cast<std::uint16_t>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
          word &= word - 1;
        }
      }
    } else {
      for (const std::uint16_t low : chunk.lows) visit(low);
    }
    rank = chunk_base_rank + chunk.cardinality;
    chunk.cardinality = static_cast<std::uint32_t>(merge_scratch_.size());
    release_bitmap(chunk);
    chunk.lows.swap(merge_scratch_);
    canonicalize(chunk);
  }
  drop_empty_chunks();
  size_ = ranks.size();
  refresh_max_id();
}

}  // namespace updp2p::common
