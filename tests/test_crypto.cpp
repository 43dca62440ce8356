// Tests for SHA-256 (against FIPS 180-4 / RFC test vectors, on each
// compression kernel the host can run), HMAC-SHA256 (RFC 4231 vectors), and
// the signing-key registry.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "crypto/sha256_compress.h"

namespace atum::crypto {
namespace {

Bytes from_str(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---------------------------------------------------------------------------
// SHA-256 vectors
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes: exercises the path where padding spills to a second block.
  std::string s(64, 'x');
  EXPECT_EQ(to_hex(sha256(s)),
            "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog, repeatedly";
  Sha256 h;
  for (char c : msg) h.update(std::string_view(&c, 1));
  EXPECT_EQ(to_hex(h.finish()), to_hex(sha256(msg)));
}

TEST(Sha256, SplitAtArbitraryOffsets) {
  std::string msg(300, '\0');
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<char>(i & 0xFF);
  Digest expect = sha256(msg);
  for (std::size_t split : {1u, 63u, 64u, 65u, 127u, 128u, 250u}) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), expect) << "split at " << split;
  }
}

TEST(Sha256, FinishTwiceThrows) {
  Sha256 h;
  h.update("x");
  h.finish();
  EXPECT_THROW(h.finish(), std::logic_error);
}

TEST(Sha256, UpdateAfterFinishThrows) {
  Sha256 h;
  h.finish();
  EXPECT_THROW(h.update("x"), std::logic_error);
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(sha256("a"), sha256("b"));
  EXPECT_NE(sha256(""), sha256(std::string(1, '\0')));
}

TEST(Sha256, DigestPrefixStable) {
  Digest d = sha256("abc");
  // First 8 bytes of the "abc" digest: ba7816bf8f01cfea.
  EXPECT_EQ(digest_prefix64(d), 0xba7816bf8f01cfeaULL);
}

// ---------------------------------------------------------------------------
// Compression kernels. Sha256 runs whichever kernel the CPU supports, so the
// vectors above cover only that one; these check each kernel directly, and
// the SHA-extensions kernel against the portable one.
// ---------------------------------------------------------------------------

// SHA-256 of `msg` on one kernel, padded here rather than by Sha256.
Digest digest_with(detail::CompressFn kernel, const Bytes& msg) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = msg.size() * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  std::array<std::uint32_t, 8> state = detail::kInitialState;
  kernel(state, padded.data(), padded.size() / 64);
  Digest out;
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

void expect_fips_vectors(detail::CompressFn kernel) {
  EXPECT_EQ(to_hex(digest_with(kernel, from_str(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(digest_with(kernel, from_str("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(digest_with(
                kernel, from_str("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(to_hex(digest_with(kernel, Bytes(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  EXPECT_EQ(to_hex(digest_with(kernel, Bytes(64, 'x'))),
            "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (std::uint8_t& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(Sha256Kernels, PortableReproducesFipsVectors) { expect_fips_vectors(detail::compress_portable); }

TEST(Sha256Kernels, ShaNiReproducesFipsVectors) {
  const detail::CompressFn sha_ni = detail::sha_ni_kernel();
  if (sha_ni == nullptr) GTEST_SKIP() << "CPUID reports no SHA extensions on this host";
  expect_fips_vectors(sha_ni);
}

// Arbitrary chaining states, not just the initial one, and runs of 1-17
// blocks per call, so every path through the multi-block loop is compared.
TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomStatesAndBlockRuns) {
  const detail::CompressFn sha_ni = detail::sha_ni_kernel();
  if (sha_ni == nullptr) GTEST_SKIP() << "CPUID reports no SHA extensions on this host";
  Rng rng(0x5a256);
  for (int trial = 0; trial < 500; ++trial) {
    std::array<std::uint32_t, 8> portable{};
    for (std::uint32_t& word : portable) word = static_cast<std::uint32_t>(rng.next_u64());
    std::array<std::uint32_t, 8> accelerated = portable;
    const auto count = static_cast<std::size_t>(rng.next_in(1, 17));
    const Bytes blocks = random_bytes(rng, 64 * count);
    detail::compress_portable(portable, blocks.data(), count);
    sha_ni(accelerated, blocks.data(), count);
    ASSERT_EQ(accelerated, portable) << "trial " << trial << ", " << count << " blocks";
  }
}

// Sha256's buffering and padding in front of the dispatched kernel: every
// length from 0 to 1100 bytes, fed through random update() split points,
// gives the portable kernel's digest.
TEST(Sha256Kernels, DispatchedDigestsMatchPortableAtEveryLength) {
  Rng rng(0xd16e57);
  for (std::size_t len = 0; len <= 1100; ++len) {
    const Bytes msg = random_bytes(rng, len);
    Sha256 h;
    std::size_t fed = 0;
    while (fed < len) {
      const auto piece = std::min(len - fed, static_cast<std::size_t>(rng.next_in(1, 200)));
      h.update(msg.data() + fed, piece);
      fed += piece;
    }
    ASSERT_EQ(h.finish(), digest_with(detail::compress_portable, msg)) << "length " << len;
  }
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 (RFC 4231)
// ---------------------------------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, from_str("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(from_str("Jefe"), from_str("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes msg(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231LongKey) {
  // Case 6: 131-byte key forces the key-hashing path.
  Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(key, from_str("Test Using Larger Than Block-Size Key - "
                                             "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  Bytes m = from_str("message");
  EXPECT_NE(hmac_sha256(from_str("key1"), m), hmac_sha256(from_str("key2"), m));
}

TEST(Hmac, MessageSensitivity) {
  Bytes k = from_str("key");
  EXPECT_NE(hmac_sha256(k, from_str("m1")), hmac_sha256(k, from_str("m2")));
}

// ---------------------------------------------------------------------------
// Keys / signatures
// ---------------------------------------------------------------------------

TEST(Keys, SignVerifyRoundTrip) {
  KeyStore ks(1);
  Bytes msg = from_str("attack at dawn");
  Signature sig = ks.key_of(7).sign(msg);
  EXPECT_TRUE(ks.verify(7, msg, sig));
}

TEST(Keys, VerifyRejectsWrongSigner) {
  KeyStore ks(1);
  Bytes msg = from_str("attack at dawn");
  Signature sig = ks.key_of(7).sign(msg);
  EXPECT_FALSE(ks.verify(8, msg, sig));
}

TEST(Keys, VerifyRejectsTamperedMessage) {
  KeyStore ks(1);
  Bytes msg = from_str("attack at dawn");
  Signature sig = ks.key_of(7).sign(msg);
  Bytes tampered = from_str("attack at dusk");
  EXPECT_FALSE(ks.verify(7, tampered, sig));
}

TEST(Keys, VerifyRejectsTamperedSignature) {
  KeyStore ks(1);
  Bytes msg = from_str("payload");
  Signature sig = ks.key_of(3).sign(msg);
  sig[0] ^= 0x01;
  EXPECT_FALSE(ks.verify(3, msg, sig));
}

TEST(Keys, DifferentSeedsGiveDifferentKeys) {
  KeyStore a(1), b(2);
  Bytes msg = from_str("m");
  EXPECT_NE(a.key_of(1).sign(msg), b.key_of(1).sign(msg));
}

TEST(Keys, DeterministicAcrossStores) {
  KeyStore a(99), b(99);
  Bytes msg = from_str("m");
  EXPECT_EQ(a.key_of(5).sign(msg), b.key_of(5).sign(msg));
}

TEST(Keys, SigningIsStable) {
  KeyStore ks(4);
  Bytes msg = from_str("idempotent");
  EXPECT_EQ(ks.key_of(1).sign(msg), ks.key_of(1).sign(msg));
}

// ---------------------------------------------------------------------------
// Digest-count instrumentation (the hook the Payload-cache tests build on)
// ---------------------------------------------------------------------------

TEST(Sha256, DigestCountTracksEveryFinish) {
  const std::uint64_t base = sha256_digest_count();
  (void)sha256("one");
  EXPECT_EQ(sha256_digest_count(), base + 1);
  Sha256 h;
  h.update(from_str("two"));
  (void)h.finish();
  EXPECT_EQ(sha256_digest_count(), base + 2);
  // HMAC-SHA256 is two nested hashes per tag.
  (void)hmac_sha256(from_str("key"), from_str("msg"));
  EXPECT_EQ(sha256_digest_count(), base + 4);
}

}  // namespace
}  // namespace atum::crypto
