// SHA-256 (FIPS 180-4): the software counterpart of the sha256 cores in
// the crypto accelerator library. Verified against NIST test vectors.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace everest::security {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256();
  void update(const std::uint8_t* data, std::size_t len);
  void update(const std::vector<std::uint8_t>& data) {
    update(data.data(), data.size());
  }
  /// Finalizes and returns the digest (object must not be reused after).
  Sha256Digest finalize();

 private:
  void process_block(const std::uint8_t* block);
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot digest.
Sha256Digest sha256(const std::vector<std::uint8_t>& data);
Sha256Digest sha256(const std::string& text);

/// Hex rendering of a digest.
std::string to_hex(const Sha256Digest& digest);

}  // namespace everest::security
