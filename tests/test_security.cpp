// Tests for the security library: AES-128 (FIPS-197 + NIST CTR/GCM
// vectors), SHA-256 (NIST vectors), taint tracking, and anomaly detection.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.hpp"
#include "security/aes.hpp"
#include "security/anomaly.hpp"
#include "security/sha256.hpp"
#include "security/taint.hpp"

namespace everest::security {
namespace {

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

Block16 block_from_hex(const std::string& hex) {
  Block16 out{};
  auto bytes = from_hex(hex);
  std::copy(bytes.begin(), bytes.end(), out.begin());
  return out;
}

std::string vec_to_hex(const std::vector<std::uint8_t>& data) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : data) {
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
  return out;
}

// ------------------------------------------------------------------- AES --

TEST(Aes, Fips197BlockVector) {
  // FIPS-197 appendix C.1.
  Aes128 aes(block_from_hex("000102030405060708090a0b0c0d0e0f"));
  const Block16 ct = aes.encrypt_block(
      block_from_hex("00112233445566778899aabbccddeeff"));
  std::vector<std::uint8_t> ct_vec(ct.begin(), ct.end());
  EXPECT_EQ(vec_to_hex(ct_vec), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes, Sp80038aCtrVector) {
  // NIST SP 800-38A F.5.1 (AES-128 CTR), first two blocks.
  const Block16 key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block16 iv = block_from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const auto pt = from_hex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  const auto ct = aes128_ctr(key, iv, pt);
  EXPECT_EQ(vec_to_hex(ct),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff");
}

TEST(Aes, CtrIsAnInvolution) {
  Rng rng(42);
  const Block16 key = block_from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block16 iv = block_from_hex("000102030405060708090a0b0c0d0e0f");
  std::vector<std::uint8_t> data(1000);  // deliberately not a block multiple
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const auto ct = aes128_ctr(key, iv, data);
  EXPECT_NE(ct, data);
  EXPECT_EQ(aes128_ctr(key, iv, ct), data);
}

TEST(Aes, GcmNistVectorCase3) {
  // NIST GCM test case 3 (AES-128, 96-bit IV, no AAD).
  const Block16 key = block_from_hex("feffe9928665731c6d6a8f9467308308");
  std::array<std::uint8_t, 12> iv{};
  const auto iv_bytes = from_hex("cafebabefacedbaddecaf888");
  std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());
  const auto pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a"
      "86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525"
      "b16aedf5aa0de657ba637b391aafd255");
  const GcmResult result = aes128_gcm_encrypt(key, iv, pt);
  EXPECT_EQ(vec_to_hex(result.ciphertext),
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091473f5985");
  std::vector<std::uint8_t> tag_vec(result.tag.begin(), result.tag.end());
  EXPECT_EQ(vec_to_hex(tag_vec), "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(Aes, GcmRoundTripWithAad) {
  const Block16 key = block_from_hex("feffe9928665731c6d6a8f9467308308");
  std::array<std::uint8_t, 12> iv{};
  iv[0] = 7;
  const std::vector<std::uint8_t> pt = {1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> aad = {9, 9, 9};
  const GcmResult enc = aes128_gcm_encrypt(key, iv, pt, aad);
  auto dec = aes128_gcm_decrypt(key, iv, enc.ciphertext, enc.tag, aad);
  ASSERT_TRUE(dec.ok()) << dec.status().to_string();
  EXPECT_EQ(*dec, pt);
}

TEST(Aes, GcmDetectsTamperedCiphertextTagAndAad) {
  const Block16 key = block_from_hex("00000000000000000000000000000001");
  std::array<std::uint8_t, 12> iv{};
  const std::vector<std::uint8_t> pt = {10, 20, 30, 40};
  const std::vector<std::uint8_t> aad = {1};
  GcmResult enc = aes128_gcm_encrypt(key, iv, pt, aad);
  // Tampered ciphertext.
  auto bad_ct = enc.ciphertext;
  bad_ct[0] ^= 1;
  EXPECT_EQ(aes128_gcm_decrypt(key, iv, bad_ct, enc.tag, aad).status().code(),
            StatusCode::kDataLoss);
  // Tampered tag.
  Block16 bad_tag = enc.tag;
  bad_tag[15] ^= 0x80;
  EXPECT_FALSE(aes128_gcm_decrypt(key, iv, enc.ciphertext, bad_tag, aad).ok());
  // Tampered AAD.
  EXPECT_FALSE(
      aes128_gcm_decrypt(key, iv, enc.ciphertext, enc.tag, {2}).ok());
}

TEST(Aes, GcmEmptyPlaintextVector) {
  // NIST GCM test case 1: zero key, zero IV, empty plaintext.
  const Block16 key{};
  std::array<std::uint8_t, 12> iv{};
  const GcmResult result = aes128_gcm_encrypt(key, iv, {});
  std::vector<std::uint8_t> tag_vec(result.tag.begin(), result.tag.end());
  EXPECT_EQ(vec_to_hex(tag_vec), "58e2fccefa7e3061367f1d57a4e7455a");
  EXPECT_TRUE(result.ciphertext.empty());
}

// ---------------------------------------------------------------- SHA256 --

TEST(Sha256, NistShortVectors) {
  EXPECT_EQ(to_hex(sha256(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(sha256(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(sha256(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::vector<std::uint8_t> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string text = "EVEREST data-driven design environment";
  Sha256 h;
  for (char c : text) {
    const auto byte = static_cast<std::uint8_t>(c);
    h.update(&byte, 1);
  }
  EXPECT_EQ(to_hex(h.finalize()), to_hex(sha256(text)));
}

// ----------------------------------------------------------------- Taint --

TEST(Taint, LabelsJoinThroughTasks) {
  TaintTracker tracker;
  tracker.set_label("sensor", TaintLabel({"confidential"}));
  tracker.set_label("weather", TaintLabel{});
  tracker.propagate("merge", {"sensor", "weather"}, {"merged"});
  EXPECT_TRUE(tracker.label_of("merged").has("confidential"));
  tracker.propagate("train", {"merged"}, {"model", "report"});
  EXPECT_TRUE(tracker.label_of("model").has("confidential"));
  EXPECT_TRUE(tracker.label_of("report").has("confidential"));
}

TEST(Taint, SinkPolicyEnforced) {
  TaintTracker tracker;
  tracker.set_label("fcd", TaintLabel({"pii", "confidential"}));
  tracker.propagate("aggregate", {"fcd"}, {"heatmap"});
  // Public dashboard has no clearance.
  EXPECT_EQ(tracker.check_sink("heatmap", TaintLabel{}).code(),
            StatusCode::kPermissionDenied);
  // Secured sink clears both tags.
  EXPECT_TRUE(
      tracker.check_sink("heatmap", TaintLabel({"pii", "confidential"})).ok());
  // Untracked objects flow anywhere.
  EXPECT_TRUE(tracker.check_sink("untracked", TaintLabel{}).ok());
}

TEST(Taint, DeclassificationRemovesTags) {
  TaintTracker tracker;
  tracker.set_label("fcd", TaintLabel({"pii"}));
  tracker.propagate("anonymize", {"fcd"}, {"anon"}, /*declassifies=*/{"pii"});
  EXPECT_FALSE(tracker.label_of("anon").has("pii"));
  EXPECT_TRUE(tracker.check_sink("anon", TaintLabel{}).ok());
}

TEST(Taint, ObjectsWithTagEnumerates) {
  TaintTracker tracker;
  tracker.set_label("a", TaintLabel({"x"}));
  tracker.set_label("b", TaintLabel({"y"}));
  tracker.set_label("c", TaintLabel({"x", "y"}));
  const auto with_x = tracker.objects_with("x");
  EXPECT_EQ(with_x.size(), 2u);
}

// --------------------------------------------------------------- Anomaly --

BehaviorSample normal_sample(Rng& rng) {
  BehaviorSample s;
  s.latency_us = rng.normal(100.0, 5.0);
  s.bytes = rng.normal(1e6, 2e4);
  s.value_range = rng.normal(50.0, 2.0);
  s.access_stride = 1.0;
  return s;
}

TEST(Anomaly, NoFlagsDuringWarmup) {
  AnomalyDetector detector;
  Rng rng(1);
  for (int i = 0; i < 19; ++i) {
    EXPECT_FALSE(detector.observe(normal_sample(rng)).anomalous);
  }
}

TEST(Anomaly, DetectsTimingAttack) {
  AnomalyDetector detector;
  Rng rng(2);
  for (int i = 0; i < 200; ++i) detector.observe(normal_sample(rng));
  BehaviorSample attack = normal_sample(rng);
  attack.latency_us = 400.0;  // timing side channel / stalling
  const auto verdict = detector.observe(attack);
  EXPECT_TRUE(verdict.anomalous);
  EXPECT_EQ(verdict.feature, "latency");
}

TEST(Anomaly, DetectsSizeAndStrideShift) {
  AnomalyDetector detector;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) detector.observe(normal_sample(rng));
  BehaviorSample exfil = normal_sample(rng);
  exfil.bytes = 2e7;  // bulk exfiltration
  EXPECT_TRUE(detector.observe(exfil).anomalous);
  BehaviorSample scan = normal_sample(rng);
  scan.access_stride = 4096.0;  // page-granular scanning
  EXPECT_TRUE(detector.observe(scan).anomalous);
}

TEST(Anomaly, CleanTrafficStaysClean) {
  AnomalyDetector detector;
  Rng rng(4);
  int false_positives = 0;
  for (int i = 0; i < 2000; ++i) {
    false_positives += detector.observe(normal_sample(rng)).anomalous;
  }
  EXPECT_LT(false_positives, 10);  // < 0.5% FPR
}

TEST(Anomaly, BaselineNotPoisonedByAnomalies) {
  AnomalyDetector detector;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) detector.observe(normal_sample(rng));
  const int seen = detector.samples_seen();
  BehaviorSample attack = normal_sample(rng);
  attack.latency_us = 1e5;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(detector.observe(attack).anomalous);
  }
  EXPECT_EQ(detector.samples_seen(), seen);  // anomalies not absorbed
}

/// Property: GCM round-trips for random sizes (including non-multiples of
/// the block size) and always rejects single-bit tampering.
class GcmProperty : public ::testing::TestWithParam<int> {};

TEST_P(GcmProperty, RoundTripAndTamperDetection) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  Block16 key;
  for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  std::array<std::uint8_t, 12> iv{};
  for (auto& b : iv) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  std::vector<std::uint8_t> pt(rng.uniform_int(1, 300));
  for (auto& b : pt) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  const GcmResult enc = aes128_gcm_encrypt(key, iv, pt);
  auto dec = aes128_gcm_decrypt(key, iv, enc.ciphertext, enc.tag);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(*dec, pt);
  auto tampered = enc.ciphertext;
  const std::size_t byte = rng.uniform_int(tampered.size());
  tampered[byte] ^= static_cast<std::uint8_t>(1 << rng.uniform_int(8));
  EXPECT_FALSE(aes128_gcm_decrypt(key, iv, tampered, enc.tag).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcmProperty, ::testing::Range(0, 12));

}  // namespace
}  // namespace everest::security
