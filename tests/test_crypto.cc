// Crypto substrate tests: RFC 8439 (ChaCha20, Poly1305, AEAD), FIPS 180-4
// (SHA-256), RFC 4231 (HMAC), RFC 5869 (HKDF) vectors, secp256k1 group laws
// and Schnorr OR-proof completeness/soundness, plus differential tests of
// every ChaCha20 dispatch path against the scalar block function and of the
// allocation-free share open against a whole-plaintext parse.

#include <gtest/gtest.h>

#include <random>

#include "core/submission.h"
#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/hkdf.h"
#include "crypto/pedersen.h"
#include "crypto/poly1305.h"
#include "crypto/rng.h"
#include "field/field.h"
#include "crypto/schnorr_or.h"
#include "crypto/sha256.h"
#include "util/hex.h"

namespace prio {
namespace {

std::span<const u8> as_bytes(const std::string& s) {
  return {reinterpret_cast<const u8*>(s.data()), s.size()};
}

// ---------- ChaCha20 ----------

TEST(ChaCha20Test, Rfc8439BlockVector) {
  auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = from_hex("000000090000004a00000000");
  u8 out[64];
  ChaCha20::block(key, 1, nonce, out);
  EXPECT_EQ(to_hex(out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20Test, Rfc8439EncryptionVector) {
  auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = from_hex("000000000000004a00000000");
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  std::vector<u8> data(pt.begin(), pt.end());
  ChaCha20::xor_stream(key, 1, nonce, data);
  EXPECT_EQ(to_hex(data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
  // Round-trip back to plaintext.
  ChaCha20::xor_stream(key, 1, nonce, data);
  EXPECT_EQ(std::string(data.begin(), data.end()), pt);
}

TEST(ChaCha20Test, PrgIsDeterministicAndSplits) {
  std::vector<u8> seed(32, 0x42);
  ChaChaPrg a(seed), b(seed);
  u8 buf_a[100], buf_b1[37], buf_b2[63];
  a.fill(buf_a);
  b.fill(buf_b1);
  b.fill(buf_b2);
  // Same stream regardless of read partitioning.
  EXPECT_EQ(to_hex(std::span<const u8>(buf_a, 37)), to_hex(buf_b1));
  EXPECT_EQ(to_hex(std::span<const u8>(buf_a + 37, 63)), to_hex(buf_b2));
}

TEST(ChaCha20Test, DifferentSeedsDiverge) {
  std::vector<u8> s1(32, 1), s2(32, 2);
  ChaChaPrg a(s1), b(s2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(ChaCha20Test, FillBlocksMatchesFill) {
  // The bulk path (multi-block SIMD core, direct writes) must produce the
  // same byte stream as fill() for every request size, including ones
  // around the 64-byte block and 256-byte bulk-group boundaries.
  std::vector<u8> seed(32, 0x42);
  for (size_t n : {1, 63, 64, 65, 255, 256, 257, 1024, 4096}) {
    ChaChaPrg a(seed), b(seed);
    std::vector<u8> ref(n), bulk(n);
    a.fill(ref);
    b.fill_blocks(bulk);
    EXPECT_EQ(to_hex(ref), to_hex(bulk)) << "n=" << n;
  }
}

TEST(ChaCha20Test, FillAndFillBlocksInterleave) {
  // Both entry points share the stream position: any interleaving walks
  // the same keystream.
  std::vector<u8> seed(32, 0x17);
  ChaChaPrg a(seed), b(seed);
  std::vector<u8> ref(800);
  a.fill(ref);
  std::vector<u8> got;
  std::vector<u8> chunk;
  size_t sizes[] = {5, 300, 64, 7, 256, 100, 68};
  bool use_bulk = false;
  for (size_t n : sizes) {
    chunk.assign(n, 0);
    if (use_bulk) {
      b.fill_blocks(chunk);
    } else {
      b.fill(chunk);
    }
    use_bulk = !use_bulk;
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(to_hex(std::span<const u8>(ref.data(), got.size())), to_hex(got));
}

// ---------- ChaCha20 dispatch paths ----------

// Each multi-block path, reached through chacha_core::stream, must equal
// the scalar ChaCha20::block keystream byte for byte: every length up to
// 320, then up to 5000 in odd steps plus every 8- and 16-block group edge
// (so every group, block and byte tail shape occurs), and start counters
// on both sides of the 2^32 wrap.
class ChaChaPathTest : public ::testing::TestWithParam<chacha_core::Path> {
 protected:
  void SetUp() override {
    if (!chacha_core::supported(GetParam())) {
      GTEST_SKIP() << "this CPU lacks " << chacha_core::name(GetParam());
    }
  }

  static std::vector<u8> reference(std::span<const u8> key, u32 counter,
                                   std::span<const u8> nonce, size_t len) {
    std::vector<u8> ks((len + 63) / 64 * 64);
    for (size_t b = 0; b * 64 < len; ++b) {
      ChaCha20::block(key, counter + static_cast<u32>(b), nonce,
                      std::span<u8>(ks.data() + 64 * b, 64));
    }
    ks.resize(len);
    return ks;
  }
};

TEST_P(ChaChaPathTest, KeystreamAndXorMatchScalarBlocks) {
  std::mt19937_64 rng(0xc4ac4a20 + static_cast<int>(GetParam()));
  auto random_bytes = [&](size_t n) {
    std::vector<u8> v(n);
    for (auto& b : v) b = static_cast<u8>(rng());
    return v;
  };
  const u32 counters[] = {0, 1, 0xFFFFFFFFu - 15, 0xFFFFFFFFu - 7,
                          0xFFFFFFFFu};
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 320; ++len) lengths.push_back(len);
  for (size_t len = 321; len <= 5000; len += 37) lengths.push_back(len);
  for (size_t edge = 512; edge <= 4096; edge += 512) {
    for (size_t len : {edge - 65, edge - 1, edge, edge + 1, edge + 64}) {
      lengths.push_back(len);
    }
  }
  for (size_t len : lengths) {
    for (u32 counter : counters) {
      const auto key = random_bytes(32);
      const auto nonce = random_bytes(12);
      const auto want = reference(key, counter, nonce, len);
      std::vector<u8> ks(len, 0xAA);
      chacha_core::stream(GetParam(), key, counter, nonce, nullptr,
                          ks.data(), len);
      ASSERT_EQ(ks, want) << "keystream len=" << len << " ctr=" << counter;
      // Out of place, then in place.
      const auto msg = random_bytes(len);
      std::vector<u8> ct(len);
      chacha_core::stream(GetParam(), key, counter, nonce, msg.data(),
                          ct.data(), len);
      for (size_t i = 0; i < len; ++i) {
        ASSERT_EQ(ct[i], msg[i] ^ want[i]) << "len=" << len << " byte " << i;
      }
      std::vector<u8> inplace = msg;
      chacha_core::stream(GetParam(), key, counter, nonce, inplace.data(),
                          inplace.data(), len);
      ASSERT_EQ(inplace, ct) << "in-place len=" << len;
    }
  }
}

TEST_P(ChaChaPathTest, Rfc8439EncryptionVector) {
  auto key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto nonce = from_hex("000000000000004a00000000");
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  std::vector<u8> data(pt.begin(), pt.end());
  chacha_core::stream(GetParam(), key, 1, nonce, data.data(), data.data(),
                      data.size());
  EXPECT_EQ(to_hex(data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

INSTANTIATE_TEST_SUITE_P(
    Dispatch, ChaChaPathTest,
    ::testing::Values(chacha_core::Path::kGeneric4, chacha_core::Path::kAvx2x8,
                      chacha_core::Path::kAvx512x16),
    [](const ::testing::TestParamInfo<chacha_core::Path>& info) {
      return std::string(chacha_core::name(info.param));
    });

TEST(ChaCha20Test, SelectedPathIsSupported) {
  EXPECT_TRUE(chacha_core::supported(chacha_core::selected()));
  EXPECT_TRUE(chacha_core::supported(chacha_core::Path::kGeneric4));
}

// ---------- Poly1305 ----------

TEST(Poly1305Test, Rfc8439Vector) {
  auto key = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::string msg = "Cryptographic Forum Research Group";
  auto tag = Poly1305::mac(key, as_bytes(msg));
  EXPECT_EQ(to_hex(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305Test, IncrementalMatchesOneShot) {
  auto key = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::string msg = "Cryptographic Forum Research Group";
  Poly1305 inc(key);
  inc.update(as_bytes(msg).first(7));
  inc.update(as_bytes(msg).subspan(7, 20));
  inc.update(as_bytes(msg).subspan(27));
  EXPECT_EQ(to_hex(inc.finalize()), to_hex(Poly1305::mac(key, as_bytes(msg))));
}

// RFC 8439 Appendix A.3, vectors #1 and #4-#11. #5, #8 and #9 end with
// the polynomial part at or just below p = 2^130 - 5, #6 overflows 2^128
// when s is added, #7, #10 and #11 stress the limb carries.
TEST(Poly1305Test, Rfc8439AppendixA3Vectors) {
  struct Vec {
    const char* key;
    std::string msg_hex;
    const char* tag;
  };
  const std::string zeros16(32, '0');
  const Vec vecs[] = {
      {"0000000000000000000000000000000000000000000000000000000000000000",
       zeros16 + zeros16 + zeros16 + zeros16,
       "00000000000000000000000000000000"},
      {"1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0",
       to_hex(as_bytes("'Twas brillig, and the slithy toves\nDid gyre and "
                       "gimble in the wabe:\nAll mimsy were the borogoves,\n"
                       "And the mome raths outgrabe.")),
       "4541669a7eaaee61e708dc7cbcc5eb62"},
      {"0200000000000000000000000000000000000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffff", "03000000000000000000000000000000"},
      {"02000000000000000000000000000000ffffffffffffffffffffffffffffffff",
       "02000000000000000000000000000000", "03000000000000000000000000000000"},
      {"0100000000000000000000000000000000000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffff"
       "f0ffffffffffffffffffffffffffffff"
       "11000000000000000000000000000000",
       "05000000000000000000000000000000"},
      {"0100000000000000000000000000000000000000000000000000000000000000",
       "ffffffffffffffffffffffffffffffff"
       "fbfefefefefefefefefefefefefefefe"
       "01010101010101010101010101010101",
       "00000000000000000000000000000000"},
      {"0200000000000000000000000000000000000000000000000000000000000000",
       "fdffffffffffffffffffffffffffffff", "faffffffffffffffffffffffffffffff"},
      {"0100000000000000040000000000000000000000000000000000000000000000",
       "e33594d7505e43b90000000000000000"
       "3394d7505e4379cd0100000000000000"
       "00000000000000000000000000000000"
       "01000000000000000000000000000000",
       "14000000000000005500000000000000"},
      {"0100000000000000040000000000000000000000000000000000000000000000",
       "e33594d7505e43b90000000000000000"
       "3394d7505e4379cd0100000000000000"
       "00000000000000000000000000000000",
       "13000000000000000000000000000000"},
  };
  for (const Vec& v : vecs) {
    const auto key = from_hex(v.key);
    const auto msg = from_hex(v.msg_hex);
    EXPECT_EQ(to_hex(Poly1305::mac(key, msg)), v.tag) << "key " << v.key;
    // The same tag when fed one byte at a time (the partial-block buffer).
    Poly1305 inc(key);
    for (u8 b : msg) inc.update(std::span<const u8>(&b, 1));
    EXPECT_EQ(to_hex(inc.finalize()), v.tag) << "bytewise, key " << v.key;
  }
}

TEST(Poly1305Test, TagsEqualIsConstantTimeCompare) {
  std::vector<u8> a{1, 2, 3}, b{1, 2, 3}, c{1, 2, 4};
  EXPECT_TRUE(tags_equal(a, b));
  EXPECT_FALSE(tags_equal(a, c));
  EXPECT_FALSE(tags_equal(a, std::span<const u8>(b.data(), 2)));
}

// ---------- AEAD ----------

TEST(AeadTest, Rfc8439Vector) {
  auto key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = from_hex("070000004041424344454647");
  auto aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  std::string pt =
      "Ladies and Gentlemen of the class of '99: If I could offer you only "
      "one tip for the future, sunscreen would be it.";
  auto sealed = Aead::seal(key, nonce, aad, as_bytes(pt));
  EXPECT_EQ(to_hex(sealed),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116"
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = Aead::open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(std::string(opened->begin(), opened->end()), pt);
}

TEST(AeadTest, TamperedCiphertextRejected) {
  auto key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  auto nonce = from_hex("070000004041424344454647");
  std::string pt = "attack at dawn";
  auto sealed = Aead::seal(key, nonce, {}, as_bytes(pt));
  for (size_t i = 0; i < sealed.size(); ++i) {
    auto bad = sealed;
    bad[i] ^= 1;
    EXPECT_FALSE(Aead::open(key, nonce, {}, bad).has_value()) << "byte " << i;
  }
  // Wrong AAD also rejected.
  u8 aad[1] = {0};
  EXPECT_FALSE(Aead::open(key, nonce, aad, sealed).has_value());
  // Truncated below tag size rejected.
  EXPECT_FALSE(
      Aead::open(key, nonce, {}, std::span<const u8>(sealed.data(), 10))
          .has_value());
}

// ---------- allocation-free share open ----------

// The pre-chunking decoder: decrypt the whole plaintext, then parse it
// field by field with net::Reader. open_sealed_share_into must accept and
// reject exactly the same blobs, decoding accepted ones identically.
template <PrimeField F>
std::optional<std::vector<F>> whole_plaintext_open(
    const SubmissionSealer& sealer, u64 cid, size_t server,
    std::span<const u8> blob, size_t len) {
  auto pt = sealer.open(cid, server, blob);
  if (!pt) return std::nullopt;
  net::Reader r(*pt);
  const u8 kind = r.u8_();
  if (!r.ok()) return std::nullopt;
  if (kind == kShareSeed) {
    if (r.remaining() != 32) return std::nullopt;
    return expand_share_seed<F>(std::span<const u8>(pt->data() + 1, 32), len);
  }
  if (kind != kShareExplicit) return std::nullopt;
  const u32 count = r.u32_();
  if (!r.ok() || count != len) return std::nullopt;
  std::vector<F> out(len);
  for (auto& x : out) x = r.field<F>();
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return out;
}

template <PrimeField F>
void check_open_matches_whole_plaintext() {
  SubmissionSealer sealer(master_seed_bytes(77));
  std::mt19937_64 rng(5);
  // 1285 elements is one lan_backlog explicit share; 600 and 1 stay inside
  // one 4 KB decryption chunk.
  for (size_t len : {size_t{0}, size_t{1}, size_t{600}, size_t{1285}}) {
    std::vector<F> share(len);
    for (auto& x : share) x = random_field_element<F>(rng);
    auto explicit_payload = [&](u32 count, std::span<const F> elems) {
      net::Writer w;
      w.u8_(kShareExplicit);
      w.u32_(count);
      for (const F& x : elems) {
        u8 b[F::kByteLen];
        x.to_bytes(b);
        w.raw(std::span<const u8>(b, F::kByteLen));
      }
      return w.take();
    };
    const auto good = explicit_payload(static_cast<u32>(len), share);
    std::vector<std::pair<std::string, std::vector<u8>>> blobs;
    blobs.emplace_back("honest", sealer.seal(3, 2, 9, good));
    auto flipped = blobs[0].second;
    flipped.back() ^= 0x01;  // last tag byte
    blobs.emplace_back("flipped tag", flipped);
    blobs.emplace_back("count+1", sealer.seal(3, 2, 9, explicit_payload(
                                                  static_cast<u32>(len + 1),
                                                  share)));
    if (len > 0) {
      blobs.emplace_back("truncated body",
                         sealer.seal(3, 2, 9, std::span<const u8>(good).first(
                                                  good.size() - 1)));
      blobs.emplace_back(
          "one element short",
          sealer.seal(3, 2, 9, explicit_payload(
                                   static_cast<u32>(len - 1),
                                   std::span<const F>(share).first(len - 1))));
      // One non-canonical element (the encoding of p itself), late in the
      // body so it falls in the last chunk for the long shares.
      auto noncanon = good;
      const size_t at = 5 + (len - 1) * F::kByteLen;
      for (size_t i = 0; i < F::kByteLen; ++i) noncanon[at + i] = 0xFF;
      blobs.emplace_back("non-canonical", sealer.seal(3, 2, 9, noncanon));
    }
    blobs.emplace_back("trailing byte", [&] {
      auto p = good;
      p.push_back(0);
      return sealer.seal(3, 2, 9, p);
    }());
    blobs.emplace_back("empty plaintext", sealer.seal(3, 2, 9, {}));
    blobs.emplace_back("unknown kind", [&] {
      auto p = good;
      p[0] = 7;
      return sealer.seal(3, 2, 9, p);
    }());
    std::vector<u8> seed_payload(33, 0x5A);
    seed_payload[0] = kShareSeed;
    blobs.emplace_back("seed", sealer.seal(3, 2, 9, seed_payload));
    seed_payload.push_back(0);
    blobs.emplace_back("seed+1", sealer.seal(3, 2, 9, seed_payload));
    blobs.emplace_back("wrong server", sealer.seal(3, 1, 9, good));
    blobs.emplace_back("no seq", std::vector<u8>(5, 0));

    for (const auto& [what, blob] : blobs) {
      const auto want = whole_plaintext_open<F>(sealer, 3, 2, blob, len);
      std::vector<F> got(len, F::one());
      u64 seq = 0;
      const bool ok = open_sealed_share_into<F>(sealer, 3, 2, blob,
                                                std::span<F>(got), &seq);
      ASSERT_EQ(ok, want.has_value()) << what << " len=" << len;
      if (ok) {
        EXPECT_EQ(got, *want) << what << " len=" << len;
        EXPECT_EQ(seq, 9u);
      }
    }
    // The honest blob decodes to the share itself.
    std::vector<F> got(len);
    ASSERT_TRUE(open_sealed_share_into<F>(sealer, 3, 2, blobs[0].second,
                                          std::span<F>(got)));
    EXPECT_EQ(got, share);
  }
}

TEST(ShareOpenTest, ChunkedOpenMatchesWholePlaintextParseFp64) {
  check_open_matches_whole_plaintext<Fp64>();
}

TEST(ShareOpenTest, ChunkedOpenMatchesWholePlaintextParseFp128) {
  check_open_matches_whole_plaintext<Fp128>();
}

// ---------- SHA-256 / HMAC / HKDF ----------

TEST(Sha256Test, FipsVectors) {
  EXPECT_EQ(to_hex(Sha256::digest(as_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(Sha256::digest(as_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(Sha256::digest(as_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg(1000, 'x');
  Sha256 inc;
  for (size_t i = 0; i < msg.size(); i += 77) {
    inc.update(as_bytes(msg.substr(i, 77)));
  }
  EXPECT_EQ(to_hex(inc.finalize()), to_hex(Sha256::digest(as_bytes(msg))));
}

TEST(HmacTest, Rfc4231Case1) {
  std::vector<u8> key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, as_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(as_bytes("Jefe"),
                               as_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HkdfTest, Rfc5869Case1) {
  std::vector<u8> ikm(22, 0x0b);
  auto salt = from_hex("000102030405060708090a0b0c");
  auto info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  auto okm = hkdf_sha256(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

// ---------- SecureRng ----------

TEST(SecureRngTest, DeterministicAndUnbiasedBound) {
  SecureRng a(1), b(1), c(2);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
  SecureRng r(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
  EXPECT_THROW(r.next_below(0), std::invalid_argument);
}

TEST(SecureRngTest, FieldElementsAreCanonical) {
  SecureRng r(4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(r.field_element<Fp64>().to_u64(), Fp64::kP);
  }
}

// ---------- secp256k1 ----------

TEST(Secp256k1Test, GeneratorOnCurveAndKnownDouble) {
  auto g = ec::Point::generator();
  // 2G, known value.
  auto g2 = g.dbl();
  u8 xb[32];
  g2.affine_x().to_u256().to_bytes_be(xb);
  EXPECT_EQ(to_hex(xb),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  g2.affine_y().to_u256().to_bytes_be(xb);
  EXPECT_EQ(to_hex(xb),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Secp256k1Test, OrderAnnihilatesGenerator) {
  auto g = ec::Point::generator();
  // (n-1)*G + G == infinity
  auto n_minus_1 = ec::Scalar::zero() - ec::Scalar::one();
  auto p = g.mul(n_minus_1) + g;
  EXPECT_TRUE(p.is_infinity());
}

TEST(Secp256k1Test, GroupLaws) {
  SecureRng rng(7);
  auto g = ec::Point::generator();
  auto random_scalar = [&rng] {
    u8 b[32];
    rng.fill(b);
    return ec::Scalar::from_u256(ec::U256::from_bytes_be(b));
  };
  for (int i = 0; i < 8; ++i) {
    auto a = random_scalar();
    auto b = random_scalar();
    // (a+b)G == aG + bG
    EXPECT_TRUE(g.mul(a + b) == g.mul(a) + g.mul(b));
    // a(bG) == (ab)G
    EXPECT_TRUE(g.mul(b).mul(a) == g.mul(a * b));
    // double_mul correctness
    auto q = g.mul(b);
    EXPECT_TRUE(ec::Point::double_mul(a, g, b, q) == g.mul(a) + q.mul(b));
  }
}

TEST(Secp256k1Test, AddEdgeCases) {
  auto g = ec::Point::generator();
  EXPECT_TRUE((g + ec::Point::infinity()) == g);
  EXPECT_TRUE((ec::Point::infinity() + g) == g);
  EXPECT_TRUE((g + (-g)).is_infinity());
  EXPECT_TRUE((g + g) == g.dbl());
  EXPECT_TRUE(g.mul(ec::Scalar::zero()).is_infinity());
  EXPECT_TRUE(g.mul(ec::Scalar::one()) == g);
}

TEST(Secp256k1Test, SerializationRoundTrip) {
  SecureRng rng(9);
  auto g = ec::Point::generator();
  for (int i = 0; i < 8; ++i) {
    u8 b[32];
    rng.fill(b);
    auto p = g.mul(ec::Scalar::from_u256(ec::U256::from_bytes_be(b)));
    auto enc = p.to_bytes();
    auto dec = ec::Point::from_bytes(enc);
    ASSERT_TRUE(dec.has_value());
    EXPECT_TRUE(*dec == p);
  }
  // Infinity round-trips.
  auto inf_enc = ec::Point::infinity().to_bytes();
  auto inf_dec = ec::Point::from_bytes(inf_enc);
  ASSERT_TRUE(inf_dec.has_value());
  EXPECT_TRUE(inf_dec->is_infinity());
  // Garbage rejected.
  std::vector<u8> bad(33, 0xFF);
  EXPECT_FALSE(ec::Point::from_bytes(bad).has_value());
}

TEST(Secp256k1Test, FixedBaseTableMatchesMul) {
  SecureRng rng(11);
  auto g = ec::Point::generator();
  ec::FixedBaseTable table(g);
  for (int i = 0; i < 8; ++i) {
    u8 b[32];
    rng.fill(b);
    auto k = ec::Scalar::from_u256(ec::U256::from_bytes_be(b));
    EXPECT_TRUE(table.mul(k) == g.mul(k));
  }
}

TEST(Secp256k1Test, ScalarFromBytesWideMatchesModularReduction) {
  // 2^256 mod n equals from_bytes_wide(2^256).
  u8 wide[64] = {0};
  wide[31] = 1;  // big-endian: value = 2^256
  auto s = ec::Scalar::from_bytes_wide(wide);
  // 2^256 mod n = 2^256 - n (since n < 2^256 < 2n).
  auto expect = ec::Scalar::zero() -
                ec::Scalar::from_u256(ec::U256::from_u64(0)) +
                (ec::Scalar::zero() - ec::Scalar::one()) + ec::Scalar::one();
  // Direct computation: 2^256 - n as U256 arithmetic (2^256 - n = ~n + 1).
  ec::U256 n = ec::Scalar::order();
  ec::U256 neg{};
  for (int i = 0; i < 4; ++i) neg.w[i] = ~n.w[i];
  u64 carry = 1;
  for (int i = 0; i < 4 && carry; ++i) {
    neg.w[i] += carry;
    carry = (neg.w[i] == 0) ? 1 : 0;
  }
  (void)expect;
  EXPECT_TRUE(s == ec::Scalar::from_u256(neg));
}

// ---------- Pedersen + OR proofs ----------

TEST(PedersenTest, HashToCurveIsOnCurveAndDeterministic) {
  auto h1 = ec::hash_to_curve("test/label");
  auto h2 = ec::hash_to_curve("test/label");
  EXPECT_TRUE(h1 == h2);
  auto h3 = ec::hash_to_curve("test/other");
  EXPECT_FALSE(h1 == h3);
}

TEST(PedersenTest, CommitmentsAreHomomorphic) {
  const auto& params = ec::PedersenParams::instance();
  auto x1 = ec::Scalar::from_u64(10), r1 = ec::Scalar::from_u64(111);
  auto x2 = ec::Scalar::from_u64(32), r2 = ec::Scalar::from_u64(222);
  auto c1 = params.commit(x1, r1);
  auto c2 = params.commit(x2, r2);
  EXPECT_TRUE((c1 + c2) == params.commit(x1 + x2, r1 + r2));
}

TEST(SchnorrOrTest, CompletenessForBothBits) {
  const auto& params = ec::PedersenParams::instance();
  SecureRng rng(13);
  for (int bit : {0, 1}) {
    auto cb = ec::prove_bit(params, bit, rng);
    EXPECT_TRUE(ec::verify_bit(params, cb.commitment, cb.proof)) << bit;
  }
}

TEST(SchnorrOrTest, CommitmentToTwoFailsVerification) {
  const auto& params = ec::PedersenParams::instance();
  SecureRng rng(17);
  // Forge: take a valid proof for bit 1 but shift the commitment to open
  // to 2. The proof must no longer verify.
  auto cb = ec::prove_bit(params, 1, rng);
  auto bad_commitment = cb.commitment + params.g();
  EXPECT_FALSE(ec::verify_bit(params, bad_commitment, cb.proof));
}

TEST(SchnorrOrTest, TamperedProofRejected) {
  const auto& params = ec::PedersenParams::instance();
  SecureRng rng(19);
  auto cb = ec::prove_bit(params, 0, rng);
  auto tampered = cb.proof;
  tampered.s0 = tampered.s0 + ec::Scalar::one();
  EXPECT_FALSE(ec::verify_bit(params, cb.commitment, tampered));
  tampered = cb.proof;
  tampered.c1 = tampered.c1 + ec::Scalar::one();
  EXPECT_FALSE(ec::verify_bit(params, cb.commitment, tampered));
}

TEST(SchnorrOrTest, ProofSerializationRoundTrip) {
  const auto& params = ec::PedersenParams::instance();
  SecureRng rng(23);
  auto cb = ec::prove_bit(params, 1, rng);
  auto bytes = cb.proof.to_bytes();
  EXPECT_EQ(bytes.size(), ec::BitProof::kSerializedLen);
  auto parsed = ec::BitProof::from_bytes(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(ec::verify_bit(params, cb.commitment, *parsed));
}

}  // namespace
}  // namespace prio
