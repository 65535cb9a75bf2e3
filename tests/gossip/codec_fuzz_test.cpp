// Codec robustness property tests (ISSUE 3 satellite): a peer must survive
// arbitrary bytes from the network. Three adversaries — pure random noise,
// truncations of valid frames, and single-bit flips of valid frames — and
// one invariant: decode() either returns nullopt or a payload that
// re-encodes without crashing. Never UB, never unbounded allocation.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <variant>

#include "common/rng.hpp"
#include "gossip/codec.hpp"
#include "support/value_bytes.hpp"

namespace updp2p::gossip {
namespace {

using testsupport::value_bytes;

version::VersionedValue make_value(common::StreamRng& rng) {
  version::VersionedValue value;
  value.key = "key-" + std::to_string(rng.uniform_int(0, 9));
  value.payload = std::string(
      static_cast<std::size_t>(rng.uniform_int(0, 40)), 'x');
  version::VersionIdFactory factory(
      common::PeerId(static_cast<std::uint32_t>(rng.uniform_int(0, 50))),
      common::StreamRng(
          static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20))));
  value.id = factory.mint(1.0);
  value.history.observe(
      common::PeerId(static_cast<std::uint32_t>(rng.uniform_int(0, 50))),
      static_cast<std::uint64_t>(rng.uniform_int(1, 9)));
  value.written_at = rng.uniform01() * 100.0;
  return value;
}

/// One of each payload alternative, with light randomisation.
std::vector<GossipPayload> sample_payloads(common::StreamRng& rng) {
  std::vector<GossipPayload> payloads;

  PushMessage push;
  push.value = make_value(rng);
  push.round = static_cast<common::Round>(rng.uniform_int(0, 100));
  for (int i = 0; i < 3; ++i) {
    push.flooding_list.insert(common::PeerId(
        static_cast<std::uint32_t>(rng.uniform_int(0, 99))));
  }
  payloads.emplace_back(std::move(push));

  PullRequest pull;
  pull.summary.observe(common::PeerId(2), 3);
  pull.summary.observe(common::PeerId(7), 1);
  pull.have.push_back(make_value(rng).id);
  pull.store_digest = common::Digest128{0xABCD, 0x1234};
  payloads.emplace_back(std::move(pull));

  PullResponse response;
  response.summary.observe(common::PeerId(1), 5);
  response.confident = rng.bernoulli(0.5);
  response.missing.push_back(make_value(rng));
  payloads.emplace_back(std::move(response));

  AckMessage ack;
  ack.acked = make_value(rng).id;
  payloads.emplace_back(ack);

  QueryRequest query;
  query.key = "key-q";
  query.nonce = 0x1122334455667788ULL;
  payloads.emplace_back(std::move(query));

  QueryReply reply;
  reply.key = "key-q";
  reply.nonce = 0x1122334455667788ULL;
  reply.versions.push_back(make_value(rng));
  reply.confident = true;
  payloads.emplace_back(std::move(reply));

  return payloads;
}

/// The fuzz invariants, applied to every adversarial byte string:
///  1. decode() must not crash, and anything accepted must survive a
///     re-encode (the decoder only produces well-formed values).
///  2. probe_frame() never *diverges* from decode(): whenever the full
///     decode succeeds, the probe must succeed too and report the same
///     kind, identifying fields and value count. (The converse is
///     deliberately free — a probe may accept a frame whose unexamined
///     tail is garbage; that is the documented trust contract.)
///  3. decode_push_into() accepts exactly the frames decode() turns into a
///     PushMessage, yielding an identical value, round and flooding list,
///     and leaves the target set empty on every rejection.
void check_bytes(std::span<const std::byte> bytes) {
  const auto decoded = decode(bytes);
  const auto probe = probe_frame(bytes);
  if (decoded.has_value()) {
    const WireBytes reencoded = encode(*decoded);
    EXPECT_FALSE(reencoded.empty());

    ASSERT_TRUE(probe.has_value());
    if (const auto* push = std::get_if<PushMessage>(&*decoded)) {
      EXPECT_EQ(probe->kind, WireKind::kPush);
      EXPECT_EQ(probe->version, push->value.id);
    } else if (const auto* ack = std::get_if<AckMessage>(&*decoded)) {
      EXPECT_EQ(probe->kind, WireKind::kAck);
      EXPECT_EQ(probe->version, ack->acked);
    } else if (const auto* query = std::get_if<QueryRequest>(&*decoded)) {
      EXPECT_EQ(probe->kind, WireKind::kQueryRequest);
      EXPECT_EQ(probe->nonce, query->nonce);
    } else if (const auto* reply = std::get_if<QueryReply>(&*decoded)) {
      EXPECT_EQ(probe->kind, WireKind::kQueryReply);
      EXPECT_EQ(probe->nonce, reply->nonce);
    } else if (const auto* response = std::get_if<PullResponse>(&*decoded)) {
      EXPECT_EQ(probe->kind, WireKind::kPullResponse);
      EXPECT_EQ(probe->values, response->missing.size());
    }
  }

  common::ChunkedPeerSet list;
  list.insert(common::PeerId(123));  // must be cleared on every path
  const auto streamed = decode_push_into(bytes, list);
  const auto* full_push =
      decoded ? std::get_if<PushMessage>(&*decoded) : nullptr;
  ASSERT_EQ(streamed.has_value(), full_push != nullptr);
  if (streamed) {
    EXPECT_EQ(streamed->value, full_push->value);
    EXPECT_EQ(streamed->round, full_push->round);
    EXPECT_EQ(list, full_push->flooding_list);
  } else {
    EXPECT_TRUE(list.empty());
  }
}

TEST(CodecFuzz, RandomBytesNeverCrash) {
  common::StreamRng rng(0xC0DEC);
  WireBytes buffer;
  for (int trial = 0; trial < 50'000; ++trial) {
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(0, 128));
    buffer.clear();
    for (std::size_t i = 0; i < len; ++i) {
      buffer.push_back(static_cast<std::byte>(rng.uniform_int(0, 255)));
    }
    check_bytes(buffer);
  }
}

TEST(CodecFuzz, RandomBytesWithValidHeaderNeverCrash) {
  // Force the magic/version prefix so the fuzz reaches the per-kind body
  // parsers instead of dying at the frame check.
  common::StreamRng rng(0xFEED);
  WireBytes buffer;
  for (int trial = 0; trial < 50'000; ++trial) {
    buffer.clear();
    buffer.push_back(std::byte{0xD5});
    buffer.push_back(std::byte{0x2B});
    buffer.push_back(static_cast<std::byte>(kCodecVersion));
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, 96));
    for (std::size_t i = 0; i < len; ++i) {
      buffer.push_back(static_cast<std::byte>(rng.uniform_int(0, 255)));
    }
    check_bytes(buffer);
  }
}

TEST(CodecFuzz, EveryTruncationIsRejectedCleanly) {
  common::StreamRng rng(0x7271);
  for (const GossipPayload& payload : sample_payloads(rng)) {
    const WireBytes wire = encode(payload);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const std::span<const std::byte> prefix(wire.data(), len);
      // A strict prefix is never a valid frame (no trailing-garbage
      // ambiguity in this codec), and must never crash.
      EXPECT_FALSE(decode(prefix).has_value()) << "len " << len;
    }
  }
}

TEST(CodecFuzz, ProbeOfTruncatedFramesNeverDiverges) {
  // The lazy-decode trust contract, exhaustively: for EVERY truncation of a
  // valid frame, probe_frame must either reject the prefix or report
  // exactly what it reports on the full frame — it may never invent a
  // different kind, version, nonce or value count. (check_bytes already
  // covers the probe-vs-decode side on these prefixes; this pins
  // probe-vs-probe.)
  common::StreamRng rng(0x9B0B);
  for (const GossipPayload& payload : sample_payloads(rng)) {
    const WireBytes wire = encode(payload);
    const auto full = probe_frame(wire);
    ASSERT_TRUE(full.has_value());
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const auto probe =
          probe_frame(std::span<const std::byte>(wire.data(), len));
      if (!probe.has_value()) continue;
      EXPECT_EQ(probe->kind, full->kind) << "len " << len;
      EXPECT_EQ(probe->version, full->version) << "len " << len;
      EXPECT_EQ(probe->nonce, full->nonce) << "len " << len;
      EXPECT_EQ(probe->values, full->values) << "len " << len;
    }
  }
}

TEST(CodecFuzz, SingleBitFlipsNeverCrash) {
  common::StreamRng rng(0xB175);
  for (const GossipPayload& payload : sample_payloads(rng)) {
    const WireBytes wire = encode(payload);
    for (std::size_t byte_idx = 0; byte_idx < wire.size(); ++byte_idx) {
      for (int bit = 0; bit < 8; ++bit) {
        WireBytes mutated = wire;
        mutated[byte_idx] ^= static_cast<std::byte>(1 << bit);
        check_bytes(mutated);
      }
    }
  }
}

TEST(CodecFuzz, RandomSlicesOfConcatenatedFramesNeverCrash) {
  // Datagram truncation/reassembly bugs often show up as mid-stream reads:
  // fuzz windows into a concatenation of several valid frames.
  common::StreamRng rng(0x51CE);
  WireBytes stream;
  for (const GossipPayload& payload : sample_payloads(rng)) {
    const WireBytes wire = encode(payload);
    stream.insert(stream.end(), wire.begin(), wire.end());
  }
  for (int trial = 0; trial < 20'000; ++trial) {
    const auto begin = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(stream.size())));
    const auto len = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(stream.size() - begin)));
    check_bytes(std::span<const std::byte>(stream.data() + begin, len));
  }
}

// --- chunked peer-set decoder hostility (codec v2) --------------------------
//
// The flooding list travels as chunked delta-varint/bitmap runs, so the
// decoder has chunk *headers* to lie in: declared cardinalities, chunk keys,
// and form bytes. Each test appends a hand-built hostile peerset to a valid
// push frame prefix so the peerset parser is the only thing under test.

/// A valid push frame with an EMPTY flooding list, minus its final byte.
/// The empty peerset encodes as a single 0x00 chunk-count byte and sits at
/// the very end of a push frame, so appending bytes to this prefix yields a
/// frame whose only questionable content is the peerset.
WireBytes push_prefix_without_peerset() {
  common::StreamRng rng(0xCAFE);
  PushMessage push;
  push.value = make_value(rng);
  push.round = 7;
  WireBytes wire = encode(GossipPayload{push});
  wire.pop_back();
  return wire;
}

/// Appends one array-form (form 0) chunk: key, form, declared cardinality,
/// then the given varints (first low verbatim, then gap-1 deltas).
void append_array_chunk_bytes(WireBytes& out, std::uint64_t key,
                              std::uint64_t cardinality,
                              std::initializer_list<std::uint64_t> varints) {
  put_varint(out, key);
  out.push_back(std::byte{0});
  put_varint(out, cardinality);
  for (const std::uint64_t v : varints) put_varint(out, v);
}

/// Appends one bitmap-form (form 1) chunk with every word = `fill`.
void append_bitmap_chunk_bytes(WireBytes& out, std::uint64_t key,
                               std::uint64_t cardinality, std::uint64_t fill) {
  put_varint(out, key);
  out.push_back(std::byte{1});
  put_varint(out, cardinality);
  for (std::size_t w = 0; w < common::ChunkedPeerSet::kBitmapWords; ++w) {
    for (int shift = 0; shift < 64; shift += 8) {
      out.push_back(static_cast<std::byte>((fill >> shift) & 0xFF));
    }
  }
}

TEST(CodecFuzz, ChunkedSetRoundTripsSparseAndDenseChunks) {
  PushMessage push;
  common::StreamRng rng(0x0DD5);
  push.value = make_value(rng);
  // Sparse low chunk, a dense chunk that must promote to bitmap form, and a
  // far-away high-key chunk: all three chunk shapes on one wire.
  push.flooding_list.insert(common::PeerId(3));
  push.flooding_list.insert(common::PeerId(40'000));
  for (std::uint32_t i = 0; i < 5'000; ++i) {
    push.flooding_list.insert(common::PeerId(65'536 + 13 * i));
  }
  push.flooding_list.insert(common::PeerId(200'000'000));
  const auto decoded = decode(encode(GossipPayload{push}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<PushMessage>(*decoded).flooding_list,
            push.flooding_list);
}

TEST(CodecFuzz, HostileChunkCountIsRejectedBeforeAnyWork) {
  WireBytes frame = push_prefix_without_peerset();
  put_varint(frame, std::uint64_t{1} << 40);  // a trillion chunks, allegedly
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(CodecFuzz, OverlappingAndNonAscendingChunkKeysAreRejected) {
  {
    WireBytes frame = push_prefix_without_peerset();
    put_varint(frame, 2);
    append_array_chunk_bytes(frame, 5, 1, {10});
    append_array_chunk_bytes(frame, 5, 1, {11});  // same range twice
    EXPECT_FALSE(decode(frame).has_value());
  }
  {
    WireBytes frame = push_prefix_without_peerset();
    put_varint(frame, 2);
    append_array_chunk_bytes(frame, 5, 1, {10});
    append_array_chunk_bytes(frame, 3, 1, {11});  // keys ran backwards
    EXPECT_FALSE(decode(frame).has_value());
  }
}

TEST(CodecFuzz, ChunkKeyAtTheWireIdBoundIsRejected) {
  // A chunk keyed at kMaxWireChunkKey could express ids >= kMaxWirePeerId.
  WireBytes frame = push_prefix_without_peerset();
  put_varint(frame, 1);
  append_array_chunk_bytes(frame, kMaxWireChunkKey, 1, {0});
  EXPECT_FALSE(decode(frame).has_value());

  // Near miss: the last legal key decodes fine and yields the expected id.
  WireBytes ok = push_prefix_without_peerset();
  put_varint(ok, 1);
  append_array_chunk_bytes(ok, kMaxWireChunkKey - 1, 1, {9});
  const auto decoded = decode(ok);
  ASSERT_TRUE(decoded.has_value());
  const auto& list = std::get<PushMessage>(*decoded).flooding_list;
  ASSERT_EQ(list.size(), 1u);
  EXPECT_TRUE(list.contains(
      common::PeerId(static_cast<std::uint32_t>(kMaxWirePeerId) - 65'536 + 9)));
}

TEST(CodecFuzz, OversizedArrayCardinalityIsRejected) {
  // Canonical form caps array chunks at kArrayChunkMax entries; a larger
  // declaration is a lie (the set would have used a bitmap) and must not
  // drive a larger allocation.
  WireBytes frame = push_prefix_without_peerset();
  put_varint(frame, 1);
  append_array_chunk_bytes(frame, 0,
                           common::ChunkedPeerSet::kArrayChunkMax + 1, {0});
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(CodecFuzz, ArrayCardinalityBeyondPayloadIsRejected) {
  // Declared 1000 entries, supplied 2 bytes: rejected by the bytes-remaining
  // check before the decoder ever loops or reserves.
  WireBytes frame = push_prefix_without_peerset();
  put_varint(frame, 1);
  append_array_chunk_bytes(frame, 0, 1'000, {1, 1});
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(CodecFuzz, ArrayDeltasOverflowingTheChunkSpanAreRejected) {
  // first low 65'535, then one more entry: any further gap walks past the
  // 2^16 ids a chunk can hold.
  WireBytes frame = push_prefix_without_peerset();
  put_varint(frame, 1);
  append_array_chunk_bytes(frame, 0, 2, {65'535, 0});
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(CodecFuzz, BitmapPopcountMismatchIsRejected) {
  // All-ones bitmap (popcount 65'536) under a header claiming 5'000.
  WireBytes frame = push_prefix_without_peerset();
  put_varint(frame, 1);
  append_bitmap_chunk_bytes(frame, 0, 5'000, ~std::uint64_t{0});
  EXPECT_FALSE(decode(frame).has_value());

  // Truthful header on the same bitmap decodes.
  WireBytes ok = push_prefix_without_peerset();
  put_varint(ok, 1);
  append_bitmap_chunk_bytes(ok, 0, 65'536, ~std::uint64_t{0});
  const auto decoded = decode(ok);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<PushMessage>(*decoded).flooding_list.size(), 65'536u);
}

TEST(CodecFuzz, SparseBitmapChunkIsRejectedAsNonCanonical) {
  // One bit per word = popcount 1'024 <= kArrayChunkMax: canonical form
  // demands an array chunk, so even a truthful bitmap header is rejected.
  // This keeps decode(encode(s)) bit-identical and denies a 8 KiB-per-id
  // amplification vector.
  WireBytes frame = push_prefix_without_peerset();
  put_varint(frame, 1);
  append_bitmap_chunk_bytes(frame, 0, 1'024, std::uint64_t{1});
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(CodecFuzz, UnknownChunkFormIsRejected) {
  WireBytes frame = push_prefix_without_peerset();
  put_varint(frame, 1);
  put_varint(frame, 0);               // key
  frame.push_back(std::byte{2});      // form 2 does not exist
  put_varint(frame, 1);               // cardinality
  put_varint(frame, 1);               // one low
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(CodecFuzz, EmptyChunkCardinalityIsRejected) {
  // Zero-cardinality chunks cannot exist in canonical form (empty chunks
  // are dropped before encoding) and would make set equality ambiguous.
  WireBytes frame = push_prefix_without_peerset();
  put_varint(frame, 1);
  append_array_chunk_bytes(frame, 0, 0, {});
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(CodecFuzz, HostileChunkHeaderBitFlipsNeverCrash) {
  // Flip every bit of a frame whose peerset has one array and one bitmap
  // chunk: the chunk headers themselves become the fuzz surface.
  PushMessage push;
  common::StreamRng rng(0xF1B5);
  push.value = make_value(rng);
  push.flooding_list.insert(common::PeerId(17));
  for (std::uint32_t i = 0; i < 4'200; ++i) {
    push.flooding_list.insert(common::PeerId(65'536 + i));
  }
  const WireBytes wire = encode(GossipPayload{push});
  // The bitmap body is 8 KiB of bulk data; flipping each of its bits
  // re-proves popcount checking ~65k times for little value. Fuzz the
  // header-dense prefix exhaustively and sample the rest.
  const std::size_t dense = std::min<std::size_t>(wire.size(), 160);
  for (std::size_t byte_idx = 0; byte_idx < dense; ++byte_idx) {
    for (int bit = 0; bit < 8; ++bit) {
      WireBytes mutated = wire;
      mutated[byte_idx] ^= static_cast<std::byte>(1 << bit);
      check_bytes(mutated);
    }
  }
  for (int trial = 0; trial < 2'000; ++trial) {
    WireBytes mutated = wire;
    const std::size_t byte_idx =
        dense + static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(wire.size() - dense - 1)));
    mutated[byte_idx] ^=
        static_cast<std::byte>(1 << rng.uniform_int(0, 7));
    check_bytes(mutated);
  }
}

TEST(CodecFuzz, HostileVarintLengthsDoNotAllocate) {
  // A frame claiming a multi-gigabyte string/list must be rejected before
  // any allocation of that size. Build: magic, version, kind=push, then a
  // huge key-length varint.
  WireBytes hostile;
  hostile.push_back(std::byte{0xD5});
  hostile.push_back(std::byte{0x2B});
  hostile.push_back(static_cast<std::byte>(kCodecVersion));
  hostile.push_back(std::byte{0});  // kind 0 (first alternative)
  put_varint(hostile, std::uint64_t{1} << 40);  // 1 TiB key, allegedly
  hostile.push_back(std::byte{'x'});
  EXPECT_FALSE(decode(hostile).has_value());
}

TEST(CodecFuzz, HistoryInAnyOrderDecodesToObserveInOrder) {
  // Descending, a repeated peer, zero counters (one for a peer named
  // nowhere else): what observe() builds entry by entry, in that order.
  const WireBytes wire = value_bytes(
      3, 7, {{9, 2}, {9, 5}, {4, 0}, {7, 3}, {4, 1}, {2, 0}, {9, 1}});
  version::VersionVector observed;
  for (const auto& [peer, counter] :
       {std::pair<std::uint32_t, std::uint64_t>{9, 2}, {9, 5}, {4, 0},
        {7, 3}, {4, 1}, {2, 0}, {9, 1}}) {
    observed.observe(common::PeerId(peer), counter);
  }
  std::size_t offset = 0;
  const auto value = decode_value(wire, offset);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(offset, wire.size());
  EXPECT_EQ(value->history, observed);
  EXPECT_EQ(value->history.to_string(), "{4:1, 7:3, 9:5}");
  // Re-encoded ascending, one entry per peer, no zero.
  WireBytes reencoded;
  encode_value(reencoded, *value);
  EXPECT_EQ(reencoded, value_bytes(3, 3, {{4, 1}, {7, 3}, {9, 5}}));
}

}  // namespace
}  // namespace updp2p::gossip
