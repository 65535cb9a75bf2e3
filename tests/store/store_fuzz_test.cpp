// Durable-store decoder robustness (same adversaries as the wire codec's
// fuzz suite): the WAL scanner and snapshot decoder must survive pure
// random noise, truncations of valid images, and single-bit flips —
// returning a diagnosed prefix / nullopt, never UB, never an allocation
// commanded by a hostile length. Run under ASan/UBSan in the sanitizer
// verify leg.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <vector>

#include "common/rng.hpp"
#include "gossip/codec.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"

namespace updp2p::store {
namespace {

version::VersionedValue fuzz_value(common::StreamRng& rng) {
  version::VersionedValue value;
  value.key = "key-" + std::to_string(rng.uniform_int(0, 9));
  value.payload = std::string(
      static_cast<std::size_t>(rng.uniform_int(0, 40)), 'p');
  version::VersionIdFactory factory(
      common::PeerId(static_cast<std::uint32_t>(rng.uniform_int(0, 50))),
      common::StreamRng(
          static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20))));
  value.id = factory.mint(rng.uniform01() * 50.0);
  value.history.observe(
      common::PeerId(static_cast<std::uint32_t>(rng.uniform_int(0, 50))),
      static_cast<std::uint64_t>(rng.uniform_int(1, 9)));
  value.written_at = rng.uniform01() * 100.0;
  return value;
}

/// The WAL invariant: scanning arbitrary bytes yields a valid prefix of
/// coherent records (chained sequence, in-bounds spans) and a tail
/// diagnosis — scan_wal must hold this for ANY input.
void check_wal_invariant(std::span<const std::byte> bytes) {
  std::uint64_t delivered = 0;
  std::uint64_t last_seq = 0;
  const auto scan = scan_wal(bytes, std::nullopt, [&](const WalRecord& r) {
    ++delivered;
    if (delivered > 1) {
      EXPECT_EQ(r.seq, last_seq + 1);
    }
    last_seq = r.seq;
    // The span must lie fully inside the scanned buffer.
    ASSERT_GE(reinterpret_cast<const char*>(r.frame.data()),
              reinterpret_cast<const char*>(bytes.data()));
    ASSERT_LE(reinterpret_cast<const char*>(r.frame.data() + r.frame.size()),
              reinterpret_cast<const char*>(bytes.data() + bytes.size()));
  });
  EXPECT_EQ(scan.records, delivered);
  EXPECT_LE(scan.valid_bytes, bytes.size());
  EXPECT_EQ(scan.valid_bytes + scan.discarded_bytes, bytes.size());
}

/// The snapshot invariant: decode either rejects or yields data whose
/// re-encode decodes again (the decoder only produces encodable values).
void check_snapshot_invariant(std::span<const std::byte> bytes) {
  const auto decoded = decode_snapshot(bytes);
  if (!decoded) return;
  const auto reencoded = encode_snapshot(*decoded);
  EXPECT_TRUE(decode_snapshot(reencoded).has_value());
}

gossip::WireBytes valid_snapshot_image(common::StreamRng& rng) {
  SnapshotData data;
  data.last_seq = static_cast<std::uint64_t>(rng.uniform_int(0, 10000));
  for (int i = 0; i < 8; ++i) {
    data.membership.insert(common::PeerId(
        static_cast<std::uint32_t>(rng.uniform_int(0, 5000))));
  }
  const int values = rng.uniform_int(0, 5);
  for (int i = 0; i < values; ++i) data.values.push_back(fuzz_value(rng));
  return encode_snapshot(data);
}

std::vector<std::byte> valid_wal_image(common::StreamRng& rng) {
  const std::string path = ::testing::TempDir() + "/updp2p_fuzz_wal.log";
  std::remove(path.c_str());
  std::string error;
  auto wal = FrameWal::open_for_append(path, 0, 1, false, &error);
  EXPECT_TRUE(wal.has_value()) << error;
  const int records = rng.uniform_int(1, 6);
  gossip::WireBytes frame;
  for (int i = 0; i < records; ++i) {
    gossip::GossipPayload payload = gossip::PushMessage{
        fuzz_value(rng), {}, static_cast<common::Round>(i)};
    gossip::encode_into(payload, frame);
    EXPECT_TRUE(wal->append(common::PeerId(1), 0, frame).has_value());
  }
  wal.reset();
  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::vector<std::byte> bytes(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    bytes[i] = static_cast<std::byte>(raw[i]);
  }
  std::remove(path.c_str());
  return bytes;
}

class StoreFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreFuzz, RandomNoise) {
  common::StreamRng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::byte> noise(
        static_cast<std::size_t>(rng.uniform_int(0, 300)));
    for (auto& b : noise) {
      b = static_cast<std::byte>(rng.uniform_int(0, 255));
    }
    check_wal_invariant(noise);
    check_snapshot_invariant(noise);
  }
}

TEST_P(StoreFuzz, TruncationsOfValidImages) {
  common::StreamRng rng(GetParam());
  const auto wal_image = valid_wal_image(rng);
  for (std::size_t cut = 0; cut <= wal_image.size(); ++cut) {
    check_wal_invariant(std::span<const std::byte>(wal_image.data(), cut));
  }
  const auto snap_image = valid_snapshot_image(rng);
  for (std::size_t cut = 0; cut <= snap_image.size(); ++cut) {
    check_snapshot_invariant(
        std::span<const std::byte>(snap_image.data(), cut));
  }
}

TEST_P(StoreFuzz, BitFlipsOfValidImages) {
  common::StreamRng rng(GetParam());
  auto wal_image = valid_wal_image(rng);
  for (std::size_t i = 0; i < wal_image.size(); ++i) {
    for (int bit : {0, 3, 7}) {
      wal_image[i] ^= static_cast<std::byte>(1u << bit);
      check_wal_invariant(wal_image);
      wal_image[i] ^= static_cast<std::byte>(1u << bit);
    }
  }
  auto snap_image = valid_snapshot_image(rng);
  for (std::size_t i = 0; i < snap_image.size(); ++i) {
    for (int bit : {0, 3, 7}) {
      snap_image[i] ^= static_cast<std::byte>(1u << bit);
      check_snapshot_invariant(snap_image);
      snap_image[i] ^= static_cast<std::byte>(1u << bit);
    }
  }
}

TEST_P(StoreFuzz, HostileLengthsInWalHeaders) {
  // Adversarial header fields straddling the bounds: every combination
  // must stop the scan without reading past the buffer.
  common::StreamRng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::byte> bytes(kWalHeaderBytes +
                                 static_cast<std::size_t>(
                                     rng.uniform_int(0, 64)));
    const std::uint32_t hostile_lens[] = {
        0u, 1u, 7u, 8u, kMaxWalRecordBytes - 1, kMaxWalRecordBytes,
        0xFFFFFFFFu,
        static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30))};
    for (const std::uint32_t len : hostile_lens) {
      for (int i = 0; i < 4; ++i) {
        bytes[static_cast<std::size_t>(i)] =
            static_cast<std::byte>((len >> (8 * i)) & 0xFF);
      }
      check_wal_invariant(bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreFuzz,
                         ::testing::Values(0x5eedULL, 0xD15CULL, 0xF00DULL));

}  // namespace
}  // namespace updp2p::store
