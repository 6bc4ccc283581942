#include "mimir/kv.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

namespace {

using mimir::KVCodec;
using mimir::KVHint;
using mimir::KVView;

struct HintCase {
  KVHint hint;
  const char* name;
};

// gtest's default print of a case is its raw bytes, which go into the
// ctest name; they include the name pointer, which moves with the load
// address, so print the case by name instead.
void PrintTo(const HintCase& c, std::ostream* os) { *os << c.name; }

class CodecRoundTrip : public ::testing::TestWithParam<HintCase> {};

TEST_P(CodecRoundTrip, EncodeDecode) {
  const KVCodec codec(GetParam().hint);
  const std::string key = GetParam().hint.key_len >= 0
                              ? std::string(GetParam().hint.key_len, 'k')
                              : "somekey";
  const std::string value = GetParam().hint.value_len >= 0
                                ? std::string(GetParam().hint.value_len, 'v')
                                : "a value";
  std::vector<std::byte> buf(codec.encoded_size(key, value));
  EXPECT_EQ(codec.encode(buf.data(), key, value), buf.size());
  std::size_t consumed = 0;
  const KVView kv = codec.decode(buf.data(), &consumed);
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(kv.key, key);
  EXPECT_EQ(kv.value, value);
}

INSTANTIATE_TEST_SUITE_P(
    Hints, CodecRoundTrip,
    ::testing::Values(
        HintCase{KVHint::variable(), "variable"},
        HintCase{KVHint::string_key_u64_value(), "wc_hint"},
        HintCase{KVHint::fixed(8, 16), "fixed"},
        HintCase{{KVHint::kString, KVHint::kString}, "both_strings"},
        HintCase{{KVHint::kVariable, 8}, "var_key_fixed_value"},
        HintCase{{4, KVHint::kVariable}, "fixed_key_var_value"}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(Codec, VariableHeaderIsEightBytes) {
  // The paper: two 32-bit lengths precede each variable KV.
  const KVCodec codec{KVHint::variable()};
  EXPECT_EQ(codec.encoded_size("abc", "xy"), 8u + 3 + 2);
}

TEST(Codec, HintRemovesHeader) {
  // WordCount hint: NUL-terminated key (+1 byte), fixed 8-byte value.
  const KVCodec codec{KVHint::string_key_u64_value()};
  EXPECT_EQ(codec.encoded_size("abc", std::string(8, 'v')), 3u + 1 + 8);
}

TEST(Codec, HintSavesSpaceOnShortKeys) {
  const KVCodec plain{KVHint::variable()};
  const KVCodec hinted{KVHint::string_key_u64_value()};
  const std::string value(8, 'v');
  // For a 5-char word: plain = 8+5+8 = 21, hinted = 5+1+8 = 14 (~33 %).
  EXPECT_LT(hinted.encoded_size("hello", value),
            plain.encoded_size("hello", value));
}

TEST(Codec, FixedHintRejectsWrongLengths) {
  const KVCodec codec{KVHint::fixed(4, 8)};
  EXPECT_THROW(codec.encoded_size("toolongkey", std::string(8, 'v')),
               mutil::UsageError);
  EXPECT_THROW(codec.encoded_size("four", "short"), mutil::UsageError);
}

TEST(Codec, RejectsNonsenseHints) {
  EXPECT_THROW(KVCodec(KVHint{-3, 0}), mutil::ConfigError);
  EXPECT_THROW(KVCodec(KVHint{0, -7}), mutil::ConfigError);
}

TEST(Codec, StringHintRejectsEmbeddedNul) {
  // The kString encoding is NUL-terminated and decodes with strlen, so
  // an embedded NUL would silently truncate the field and desynchronize
  // every record behind it. encoded_size() (hence every encode path)
  // must reject it up front.
  const KVCodec key_hinted{KVHint::string_key_u64_value()};
  const std::string poisoned = std::string("ab\0cd", 5);
  EXPECT_THROW(key_hinted.encoded_size(poisoned, std::string(8, 'v')),
               mutil::UsageError);

  const KVCodec value_hinted{{KVHint::kVariable, KVHint::kString}};
  EXPECT_THROW(value_hinted.encoded_size("key", poisoned),
               mutil::UsageError);

  // Binary data is fine under hints that can represent it.
  const KVCodec variable{KVHint::variable()};
  std::vector<std::byte> buf(variable.encoded_size(poisoned, poisoned));
  variable.encode(buf.data(), poisoned, poisoned);
  std::size_t consumed = 0;
  const KVView kv = variable.decode(buf.data(), &consumed);
  EXPECT_EQ(kv.key, poisoned);
  EXPECT_EQ(kv.value, poisoned);

  // And NUL-free strings still round-trip under the string hint.
  std::vector<std::byte> ok(key_hinted.encoded_size("abcd",
                                                    std::string(8, 'v')));
  EXPECT_EQ(ok.size(), 4u + 1 + 8);
}

TEST(Codec, ForEachWalksAStream) {
  const KVCodec codec{KVHint::variable()};
  std::vector<std::byte> buf;
  for (int i = 0; i < 10; ++i) {
    const std::string key = std::string("k").append(std::to_string(i));
    const std::string value(static_cast<std::size_t>(i), 'x');
    const std::size_t old = buf.size();
    buf.resize(old + codec.encoded_size(key, value));
    codec.encode(buf.data() + old, key, value);
  }
  int count = 0;
  codec.for_each(buf, [&](const KVView& kv) {
    EXPECT_EQ(kv.key, std::string("k").append(std::to_string(count)));
    EXPECT_EQ(kv.value.size(), static_cast<std::size_t>(count));
    ++count;
  });
  EXPECT_EQ(count, 10);
}

TEST(Codec, BinaryValuesSurvive) {
  const KVCodec codec{KVHint::variable()};
  const std::uint64_t raw = 0x0011223344556677ULL;
  std::vector<std::byte> buf(codec.encoded_size("k", mimir::as_view(raw)));
  codec.encode(buf.data(), "k", mimir::as_view(raw));
  std::size_t consumed = 0;
  const KVView kv = codec.decode(buf.data(), &consumed);
  EXPECT_EQ(mimir::as_u64(kv.value), raw);
}

TEST(Codec, EmptyKeyAndValueAllowedWhenVariable) {
  const KVCodec codec{KVHint::variable()};
  std::vector<std::byte> buf(codec.encoded_size("", ""));
  EXPECT_EQ(buf.size(), 8u);
  codec.encode(buf.data(), "", "");
  std::size_t consumed = 0;
  const KVView kv = codec.decode(buf.data(), &consumed);
  EXPECT_TRUE(kv.key.empty());
  EXPECT_TRUE(kv.value.empty());
}

}  // namespace
