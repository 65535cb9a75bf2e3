#include "net/inproc_transport.hpp"

#include <limits>

#include "common/ensure.hpp"
#include "net/frame.hpp"

namespace updp2p::net {

namespace {
/// Purpose keys for the per-link StreamRng streams. Distinct from every
/// purpose the simulators use (they key purposes off node behaviour, not
/// links), so live-transport draws never collide with simulator draws.
constexpr std::uint64_t kLossPurpose = 0x1055;
constexpr std::uint64_t kLatencyPurpose = 0x1A7E;
constexpr std::uint64_t kChaosPurpose = 0xC405;

/// Upper bound on policy fan-out; a duplication window doubling every
/// datagram is chaos, 2^32 copies is a bug.
constexpr unsigned kMaxPolicyCopies = 16;

[[nodiscard]] std::uint64_t link_key(common::PeerId from,
                                     common::PeerId to) noexcept {
  return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
}

/// The stream's position as stored in the link table.
[[nodiscard]] std::uint32_t stored_position(const common::StreamRng& rng) {
  const std::uint64_t position = rng.position();
  UPDP2P_ENSURE(position <= std::numeric_limits<std::uint32_t>::max(),
                "a link stream outgrew its 32-bit draw position");
  return static_cast<std::uint32_t>(position);
}
}  // namespace

InprocNetwork::InprocNetwork(InprocNetworkConfig config)
    : config_(config),
      latency_(config.latency ? config.latency
                              : std::make_shared<ConstantLatency>(0.05)) {
  UPDP2P_ENSURE(
      config_.loss_probability >= 0.0 && config_.loss_probability <= 1.0,
      "loss probability must be in [0,1]");
}

InprocNetwork::~InprocNetwork() {
  for (auto& [id, endpoint] : endpoints_) {
    if (endpoint.transport != nullptr) endpoint.transport->network_ = nullptr;
  }
}

std::unique_ptr<InprocTransport> InprocNetwork::attach(common::PeerId self) {
  UPDP2P_ENSURE(self.is_valid(), "cannot attach the invalid peer id");
  // A re-attached id keeps the index of its first attach, and with it the
  // positions of its links' streams.
  const auto [it, fresh] = endpoints_.try_emplace(
      self, Endpoint{nullptr, static_cast<std::uint32_t>(endpoints_.size())});
  UPDP2P_ENSURE(fresh || it->second.transport == nullptr,
                "peer id already attached to this network");
  if (fresh) draws_.emplace_back();
  // Not make_unique: the constructor is private to keep attach the only way
  // to mint endpoints.
  auto endpoint = std::unique_ptr<InprocTransport>(
      new InprocTransport(this, self, it->second.index));
  it->second.transport = endpoint.get();
  return endpoint;
}

void InprocNetwork::detach(common::PeerId self) noexcept {
  const auto it = endpoints_.find(self);
  if (it != endpoints_.end()) it->second.transport = nullptr;
}

common::StreamRng InprocNetwork::link_stream(std::uint64_t link,
                                             std::uint64_t purpose,
                                             std::uint32_t position) const {
  common::StreamRng rng(config_.seed, link, purpose);
  rng.seek(position);
  return rng;
}

bool InprocNetwork::submit(std::uint32_t from_index, common::PeerId from,
                           common::PeerId to,
                           std::span<const std::byte> payload) {
  const auto dest = endpoints_.find(to);
  if (dest == endpoints_.end() || dest->second.transport == nullptr) {
    return false;
  }
  ++stats_.datagrams_submitted;
  // A row grows straight to every id attached so far, so it never holds
  // more than one slot per id.
  std::vector<LinkDraws>& row = draws_[from_index];
  if (row.size() <= dest->second.index) row.resize(draws_.size());
  LinkDraws& draws = row[dest->second.index];
  const std::uint64_t link = link_key(from, to);
  LinkFaultPolicy::Decision decision;
  if (policy_ != nullptr) {
    common::StreamRng chaos = link_stream(link, kChaosPurpose, draws.chaos);
    decision = policy_->on_submit(from, to, payload, chaos);
    draws.chaos = stored_position(chaos);
    UPDP2P_ENSURE(decision.copies <= kMaxPolicyCopies,
                  "link policy fan-out exceeds the copy cap");
    UPDP2P_ENSURE(decision.extra_delay >= 0.0,
                  "link policy extra delay must be non-negative");
  }
  if (decision.drop || decision.copies == 0) {
    ++stats_.dropped_policy;
    return true;  // handed to the network; the policy ate it
  }
  if (config_.loss_probability > 0.0) {
    common::StreamRng loss = link_stream(link, kLossPurpose, draws.loss);
    const bool lost = loss.bernoulli(config_.loss_probability);
    draws.loss = stored_position(loss);
    if (lost) {
      ++stats_.dropped_loss;
      return true;  // handed to the network; the network ate it
    }
  }
  // Every copy samples its own latency: duplicates land at independent
  // times, which is what makes a duplication window also a reorder source.
  common::StreamRng latency = link_stream(link, kLatencyPurpose, draws.latency);
  for (unsigned copy = 0; copy < decision.copies; ++copy) {
    const common::SimTime delay =
        latency_->sample(latency) + decision.extra_delay;
    flights_.push(Flight{now_ + delay, next_seq_++, from, to,
                         DatagramBytes(payload.begin(), payload.end())});
  }
  draws.latency = stored_position(latency);
  stats_.datagrams_duplicated += decision.copies - 1;
  return true;
}

void InprocNetwork::advance_to(common::SimTime now) {
  UPDP2P_ENSURE(now >= now_, "virtual time must advance monotonically");
  now_ = now;
  while (!flights_.empty() && flights_.top().at <= now_) {
    // priority_queue::top is const; the pop-after-move idiom is safe here
    // because nothing reads the moved-from flight before pop.
    Flight flight = std::move(const_cast<Flight&>(flights_.top()));
    flights_.pop();
    const auto it = endpoints_.find(flight.to);
    if (it == endpoints_.end() || it->second.transport == nullptr) {
      ++stats_.dropped_detached;
      continue;
    }
    InprocTransport& dest = *it->second.transport;
    if (!dest.listening_) {
      ++stats_.dropped_offline;
      ++dest.stats_.dropped_offline;
      continue;
    }
    ++stats_.datagrams_delivered;
    ++dest.stats_.datagrams_received;
    dest.stats_.bytes_received += flight.bytes.size();
    dest.inbox_.push_back(
        InboundDatagram{flight.from, std::move(flight.bytes)});
  }
}

InprocTransport::~InprocTransport() {
  if (network_ != nullptr) network_->detach(self_);
}

bool InprocTransport::send(common::PeerId to,
                           std::span<const std::byte> payload) {
  if (kFrameHeaderBytes + payload.size() > kMaxDatagramBytes) {
    ++stats_.send_errors;
    return false;
  }
  if (network_ == nullptr || !network_->submit(index_, self_, to, payload)) {
    ++stats_.send_no_route;
    return false;
  }
  ++stats_.datagrams_sent;
  stats_.bytes_sent += payload.size();
  return true;
}

std::size_t InprocTransport::drain(std::vector<InboundDatagram>& out) {
  const std::size_t count = inbox_.size();
  for (InboundDatagram& datagram : inbox_) {
    out.push_back(std::move(datagram));
  }
  inbox_.clear();
  return count;
}

}  // namespace updp2p::net
