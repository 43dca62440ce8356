// The two SHA-256 compression kernels behind crypto::Sha256, exposed so the
// tests can check each one on a host that has both. Not part of the public
// crypto API: protocol code hashes through sha256.h.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace atum::crypto::detail {

// H(0), the state every digest starts from (FIPS 180-4 §5.3.3).
inline constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// Compresses `count` consecutive 64-byte blocks at `blocks` into `state`
// (FIPS 180-4 §6.2.2, steps 1-4, once per block).
using CompressFn = void (*)(std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
                            std::size_t count);

// Plain C++, runs anywhere: the fallback and the reference.
void compress_portable(std::array<std::uint32_t, 8>& state, const std::uint8_t* blocks,
                       std::size_t count);

// The kernel on the x86 SHA extensions when CPUID reports SHA, SSSE3 and
// SSE4.1; nullptr on other CPUs and non-x86 builds.
CompressFn sha_ni_kernel();

}  // namespace atum::crypto::detail
