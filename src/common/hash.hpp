// 64-bit FNV-1a, the one non-cryptographic hash behind the SDK's
// fingerprints, object ids, placement keys and seed folding. It is
// byte-order and platform independent, so every value derived from it
// is reproducible across runs and machines.
#pragma once

#include <cstdint>
#include <string_view>

namespace everest {

inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

/// Folds `bytes` into the running hash `h` (a fresh hash by default).
constexpr std::uint64_t fnv1a(std::string_view bytes,
                              std::uint64_t h = kFnv1aBasis) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1aPrime;
  }
  return h;
}

/// Folds the eight bytes of `v`, least significant first, into `h`.
constexpr std::uint64_t fnv1a_u64(std::uint64_t v,
                                  std::uint64_t h = kFnv1aBasis) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnv1aPrime;
  }
  return h;
}

}  // namespace everest
