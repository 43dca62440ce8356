// SHA-256 (FIPS 180-4). Used for message digests (§5.1 digest
// optimization), AShare chunk integrity checks (§4.2.2), and as the
// compression core of HMAC signatures.
//
// Two compression kernels sit behind one API (crypto/sha256_compress.h): one
// on the x86 SHA extensions and a portable C++ one. The first call picks the
// SHA-extensions kernel when CPUID reports SHA, SSSE3 and SSE4.1, and the
// portable kernel everywhere else; the choice holds for the process. Both
// produce identical digests, which test_crypto checks on every host that
// has both, so the host decides the speed but never a byte.
//
// Callers holding a net::Payload should prefer Payload::digest() over the
// free sha256() functions: it memoizes the digest on the frame's shared
// control block, making the at-most-one-hash-per-frame invariant hold across
// every receiver, relay, and voucher that shares the buffer.
// sha256_digest_count() below exists to let tests pin that invariant.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/serde.h"

namespace atum::crypto {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();
  void update(const std::uint8_t* data, std::size_t len);
  void update(const Bytes& data) { update(data.data(), data.size()); }
  void update(std::string_view s) {
    // Audited: char -> unsigned char pointer for a read-only pass; both are
    // byte types, explicitly exempt from strict aliasing ([basic.lval]/11).
    // lint: reinterpret-cast-ok(char->uint8_t read, aliasing-exempt byte types)
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }
  // Finalizes and returns the digest. The object must not be reused after.
  Digest finish();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

Digest sha256(const Bytes& data);
Digest sha256(const std::uint8_t* data, std::size_t len);
Digest sha256(std::string_view data);

// Instrumentation: how many SHA-256 digests this process has computed
// (every Sha256::finish() counts one; HMAC therefore counts two per tag).
// Tests snapshot it around an operation to prove a cache hit — e.g. that
// vouching for the same frame at N receivers hashed exactly once. Not a
// performance counter to branch on in protocol code.
std::uint64_t sha256_digest_count();

std::string to_hex(const Digest& d);

// Stable 64-bit fingerprint of a digest, for use as a map key / message id.
std::uint64_t digest_prefix64(const Digest& d);

}  // namespace atum::crypto
