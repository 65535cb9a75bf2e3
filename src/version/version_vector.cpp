#include "version/version_vector.hpp"

#include <algorithm>
#include <iterator>
#include <ostream>
#include <sstream>

namespace updp2p::version {

namespace {

bool peer_less(const VersionVector::Entry& a,
               const VersionVector::Entry& b) noexcept {
  return a.first < b.first;
}

/// First entry of the ascending range whose peer is not below `peer`.
template <typename It>
It find_slot(It first, It last, common::PeerId peer) {
  return std::lower_bound(first, last, VersionVector::Entry{peer, 0},
                          peer_less);
}

}  // namespace

const char* to_string(Causality c) noexcept {
  switch (c) {
    case Causality::kEqual: return "equal";
    case Causality::kDominates: return "dominates";
    case Causality::kDominatedBy: return "dominated-by";
    case Causality::kConcurrent: return "concurrent";
  }
  return "?";
}

VersionVector VersionVector::from_entries(std::vector<Entry> entries) {
  if (!std::is_sorted(entries.begin(), entries.end(), peer_less)) {
    std::sort(entries.begin(), entries.end(), peer_less);
  }
  // Compact in place: drop zeros, fold each run of one peer into its max.
  auto out = entries.begin();
  for (const Entry& entry : entries) {
    if (entry.second == 0) continue;
    if (out != entries.begin() && std::prev(out)->first == entry.first) {
      std::prev(out)->second = std::max(std::prev(out)->second, entry.second);
    } else {
      *out++ = entry;
    }
  }
  entries.erase(out, entries.end());
  VersionVector vv;
  vv.counters_ = std::move(entries);
  return vv;
}

std::uint64_t VersionVector::increment(common::PeerId peer) {
  const auto it = find_slot(counters_.begin(), counters_.end(), peer);
  if (it == counters_.end() || it->first != peer) {
    counters_.insert(it, Entry{peer, 1});
    return 1;
  }
  const std::uint64_t counter = ++it->second;
  if (counter == 0) counters_.erase(it);
  return counter;
}

void VersionVector::observe(common::PeerId peer, std::uint64_t counter) {
  if (counter == 0) return;  // zero entries stay implicit
  const auto it = find_slot(counters_.begin(), counters_.end(), peer);
  if (it == counters_.end() || it->first != peer) {
    counters_.insert(it, Entry{peer, counter});
  } else {
    it->second = std::max(it->second, counter);
  }
}

std::uint64_t VersionVector::get(common::PeerId peer) const noexcept {
  const auto it = find_slot(counters_.begin(), counters_.end(), peer);
  return it == counters_.end() || it->first != peer ? 0 : it->second;
}

void VersionVector::merge(const VersionVector& other) {
  // First walk: raise the counters of peers both name, in place, and count
  // the peers only `other` names.
  std::size_t fresh = 0;
  auto mine = counters_.begin();
  for (const Entry& theirs : other.counters_) {
    while (mine != counters_.end() && mine->first < theirs.first) ++mine;
    if (mine != counters_.end() && mine->first == theirs.first) {
      mine->second = std::max(mine->second, theirs.second);
      ++mine;
    } else {
      ++fresh;
    }
  }
  if (fresh == 0) return;
  // Second walk, from the back of the grown array: each slot is written
  // after the entry it held was moved up, so no entry is read after it was
  // overwritten. Once `other` runs out, the rest of ours is in place.
  std::size_t ours = counters_.size();
  std::size_t theirs = other.counters_.size();
  counters_.resize(ours + fresh);
  std::size_t out = counters_.size();
  while (theirs > 0) {
    const Entry& next = other.counters_[theirs - 1];
    if (ours > 0 && counters_[ours - 1].first >= next.first) {
      if (counters_[ours - 1].first == next.first) --theirs;
      counters_[--out] = counters_[--ours];
    } else {
      counters_[--out] = next;
      --theirs;
    }
  }
}

Causality VersionVector::compare(const VersionVector& other) const noexcept {
  bool some_greater = false;
  bool some_less = false;
  // Walk both ascending arrays in lockstep; a missing entry counts as zero
  // and no stored counter is zero.
  auto it_a = counters_.begin();
  auto it_b = other.counters_.begin();
  while (it_a != counters_.end() || it_b != other.counters_.end()) {
    if (it_b == other.counters_.end() ||
        (it_a != counters_.end() && it_a->first < it_b->first)) {
      some_greater = true;
      ++it_a;
    } else if (it_a == counters_.end() || it_b->first < it_a->first) {
      some_less = true;
      ++it_b;
    } else {
      if (it_a->second > it_b->second) some_greater = true;
      if (it_a->second < it_b->second) some_less = true;
      ++it_a;
      ++it_b;
    }
    if (some_greater && some_less) return Causality::kConcurrent;
  }
  if (some_greater) return Causality::kDominates;
  if (some_less) return Causality::kDominatedBy;
  return Causality::kEqual;
}

std::uint64_t VersionVector::total_events() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [peer, counter] : counters_) total += counter;
  return total;
}

std::string VersionVector::to_string() const {
  std::ostringstream out;
  out << *this;
  return out.str();
}

std::ostream& operator<<(std::ostream& os, const VersionVector& vv) {
  os << '{';
  bool first = true;
  for (const auto& [peer, counter] : vv.entries()) {
    if (!first) os << ", ";
    first = false;
    os << peer.value() << ':' << counter;
  }
  return os << '}';
}

}  // namespace updp2p::version
