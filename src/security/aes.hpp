// Software AES-128 (reference implementation): block cipher, CTR mode, and
// GCM authenticated encryption. This is the functional counterpart of the
// EVEREST crypto accelerator library (paper §III-A/B); the HLS side models
// its area/throughput, this side provides the actual data path (the
// air-quality example seals its emission records with it). Correctness is
// pinned to FIPS-197 / NIST SP 800-38D test vectors in the test suite.
//
// Not constant-time; intended for functional simulation, not production.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/status.hpp"

namespace everest::security {

using Block16 = std::array<std::uint8_t, 16>;

/// AES-128 block cipher with a precomputed key schedule.
class Aes128 {
 public:
  explicit Aes128(const Block16& key);

  /// Encrypts one 16-byte block in place semantics (returns ciphertext).
  [[nodiscard]] Block16 encrypt_block(const Block16& plaintext) const;

 private:
  std::array<std::uint8_t, 176> round_keys_{};  // 11 round keys
};

/// CTR-mode stream encryption/decryption (symmetric). The 16-byte IV is
/// the initial counter block; the counter increments big-endian in the
/// final 4 bytes.
std::vector<std::uint8_t> aes128_ctr(const Block16& key, const Block16& iv,
                                     const std::vector<std::uint8_t>& data);

/// AES-128-GCM authenticated encryption (96-bit IV).
struct GcmResult {
  std::vector<std::uint8_t> ciphertext;
  Block16 tag;
};
GcmResult aes128_gcm_encrypt(const Block16& key,
                             const std::array<std::uint8_t, 12>& iv,
                             const std::vector<std::uint8_t>& plaintext,
                             const std::vector<std::uint8_t>& aad = {});

/// GCM decryption; fails with DATA_LOSS when the tag does not verify.
Result<std::vector<std::uint8_t>> aes128_gcm_decrypt(
    const Block16& key, const std::array<std::uint8_t, 12>& iv,
    const std::vector<std::uint8_t>& ciphertext, const Block16& tag,
    const std::vector<std::uint8_t>& aad = {});

}  // namespace everest::security
