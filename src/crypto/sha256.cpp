#include "crypto/sha256.h"

#include <atomic>
#include <cstring>
#include <stdexcept>

#include "crypto/sha256_compress.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace atum::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// Relaxed is enough: the counter is a monotonic instrumentation gauge read
// between phases, never used to order memory — and it keeps finish() exact
// (and TSan-clean) when digests are computed from worker threads.
std::atomic<std::uint64_t> g_digest_count{0};

#if defined(__x86_64__) || defined(__i386__)

// The SHA extensions keep the eight working variables in two registers,
// ABEF and CDGH (A in the top lane). Each sha256rnds2 runs two rounds and
// leaves the new ABEF; the old ABEF is then the new CDGH, so the two
// registers swap roles every two rounds and are back in place after four.
// The message schedule runs four words at a time: sha256msg1 adds the
// sigma0 terms, alignr supplies W[t-7], sha256msg2 adds the sigma1 terms.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(
    std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks, std::size_t count) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba, hgfe;
  std::memcpy(&dcba, &state[0], sizeof dcba);
  std::memcpy(&hgfe, &state[4], sizeof hgfe);
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i w[4];  // W[4g..4g+3] for the last four groups g, indexed g % 4
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        std::memcpy(&w[g], blocks + 16 * g, sizeof w[g]);
        w[g] = _mm_shuffle_epi8(w[g], byte_swap);
      } else {
        __m128i m = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
        m = _mm_add_epi32(m, _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
        w[g % 4] = _mm_sha256msg2_epu32(m, w[(g + 3) % 4]);
      }
      __m128i k;
      std::memcpy(&k, &kRoundConstants[static_cast<std::size_t>(4 * g)], sizeof k);
      const __m128i wk = _mm_add_epi32(w[g % 4], k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  std::memcpy(&state[0], &dcba, sizeof dcba);
  std::memcpy(&state[4], &hgfe, sizeof hgfe);
}

#endif

// Chosen once per process. Both kernels write the same state, so the
// choice never shows in a digest.
detail::CompressFn selected_kernel() {
  static const detail::CompressFn sha_ni = detail::sha_ni_kernel();
  return sha_ni != nullptr ? sha_ni : detail::compress_portable;
}

}  // namespace

namespace detail {

void compress_portable(std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
                       std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#if defined(__x86_64__) || defined(__i386__)
CompressFn sha_ni_kernel() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return nullptr;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return nullptr;
  return (ebx & bit_SHA) != 0 ? compress_sha_ni : nullptr;
}
#else
CompressFn sha_ni_kernel() { return nullptr; }
#endif

}  // namespace detail

std::uint64_t sha256_digest_count() { return g_digest_count.load(std::memory_order_relaxed); }

Sha256::Sha256() : state_(detail::kInitialState) {}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  if (finished_) throw std::logic_error("Sha256: update after finish");
  total_bytes_ += len;
  if (buffered_ > 0) {
    std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ < buffer_.size()) return;
    selected_kernel()(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t whole = len / 64;
  if (whole > 0) {
    selected_kernel()(state_, data, whole);
    data += whole * 64;
    len -= whole * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffered_ = len;
  }
}

Digest Sha256::finish() {
  if (finished_) throw std::logic_error("Sha256: finish called twice");
  finished_ = true;
  g_digest_count.fetch_add(1, std::memory_order_relaxed);

  // The padded tail: buffered bytes, 0x80, zeros, then the message length
  // in bits as a big-endian u64 — one block, or two when the length does
  // not fit after the 0x80.
  std::array<std::uint8_t, 128> tail{};
  std::memcpy(tail.data(), buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t tail_len = buffered_ < 56 ? 64 : 128;
  const std::uint64_t bit_len = total_bytes_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  }
  selected_kernel()(state_, tail.data(), tail_len / 64);

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(const Bytes& data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(const std::uint8_t* data, std::size_t len) {
  Sha256 h;
  h.update(data, len);
  return h.finish();
}

Digest sha256(std::string_view data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

std::string to_hex(const Digest& d) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : d) {
    out.push_back(hex[b >> 4]);
    out.push_back(hex[b & 0xf]);
  }
  return out;
}

std::uint64_t digest_prefix64(const Digest& d) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | d[static_cast<std::size_t>(i)];
  return v;
}

}  // namespace atum::crypto
