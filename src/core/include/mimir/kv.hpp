// Key/value encoding with the paper's KV-hint optimization (§III-C3).
//
// By default every KV carries an 8-byte header — two 32-bit lengths —
// before the key and value bytes, because keys and values are arbitrary
// byte sequences. The KV-hint lets the application declare that the key
// and/or value length is constant for the whole job (no length stored),
// or that it is a NUL-terminated string (no length stored; computed with
// strlen on read). The hint applies uniformly to every stage that holds
// KV bytes — send buffer, KV containers, KMV containers — which is where
// the paper's ~26 % size reduction for WordCount comes from.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "mutil/error.hpp"

namespace mimir {

/// Declares how key and value lengths are encoded.
struct KVHint {
  /// Length is per-KV and stored as a 32-bit header field.
  static constexpr std::int32_t kVariable = -2;
  /// NUL-terminated string: stored with its terminator, length computed.
  static constexpr std::int32_t kString = -1;

  std::int32_t key_len = kVariable;
  std::int32_t value_len = kVariable;

  static KVHint variable() { return {}; }
  /// WordCount-style hint: string key, fixed 8-byte value.
  static KVHint string_key_u64_value() { return {kString, 8}; }
  static KVHint fixed(std::int32_t key, std::int32_t value) {
    return {key, value};
  }

  bool key_is_variable() const noexcept { return key_len == kVariable; }
  bool value_is_variable() const noexcept { return value_len == kVariable; }

  friend bool operator==(const KVHint&, const KVHint&) = default;
};

/// A decoded view of one KV inside a buffer. Views borrow the buffer.
struct KVView {
  std::string_view key;
  std::string_view value;
};

/// Encoder/decoder for one KVHint. All methods are branch-light and
/// inline; codecs are freely copyable value types.
class KVCodec {
 public:
  explicit KVCodec(KVHint hint = {}) : hint_(hint) {
    if (hint.key_len < KVHint::kVariable) {
      throw mutil::ConfigError("KVCodec: bad key hint");
    }
    if (hint.value_len < KVHint::kVariable) {
      throw mutil::ConfigError("KVCodec: bad value hint");
    }
  }

  const KVHint& hint() const noexcept { return hint_; }

  /// Bytes this KV occupies when encoded.
  std::size_t encoded_size(std::string_view key,
                           std::string_view value) const {
    return header_size() + field_size(key, hint_.key_len, "key") +
           field_size(value, hint_.value_len, "value");
  }

  /// Encode into `dst`, which must hold at least encoded_size() bytes.
  /// Returns the number of bytes written.
  std::size_t encode(std::byte* dst, std::string_view key,
                     std::string_view value) const {
    std::byte* p = dst;
    if (hint_.key_is_variable()) {
      const auto len = static_cast<std::uint32_t>(key.size());
      std::memcpy(p, &len, 4);
      p += 4;
    }
    if (hint_.value_is_variable()) {
      const auto len = static_cast<std::uint32_t>(value.size());
      std::memcpy(p, &len, 4);
      p += 4;
    }
    p = put_field(p, key, hint_.key_len);
    p = put_field(p, value, hint_.value_len);
    return static_cast<std::size_t>(p - dst);
  }

  /// Decode the KV starting at `p`; `*consumed` receives its byte size.
  KVView decode(const std::byte* p, std::size_t* consumed) const {
    const char* cursor = reinterpret_cast<const char*>(p);
    std::uint32_t klen = 0, vlen = 0;
    if (hint_.key_is_variable()) {
      std::memcpy(&klen, cursor, 4);
      cursor += 4;
    }
    if (hint_.value_is_variable()) {
      std::memcpy(&vlen, cursor, 4);
      cursor += 4;
    }
    const std::string_view key(cursor, field_len(cursor, klen, hint_.key_len));
    cursor += key.size() + (hint_.key_len == KVHint::kString ? 1 : 0);
    const std::string_view value(cursor,
                                 field_len(cursor, vlen, hint_.value_len));
    cursor += value.size() + (hint_.value_len == KVHint::kString ? 1 : 0);
    *consumed = static_cast<std::size_t>(
        cursor - reinterpret_cast<const char*>(p));
    return {key, value};
  }

  /// Visit every KV in an encoded byte range, in order.
  template <typename Fn>
  void for_each(std::span<const std::byte> bytes, Fn&& fn) const {
    std::size_t offset = 0;
    while (offset < bytes.size()) {
      std::size_t consumed = 0;
      const KVView kv = decode(bytes.data() + offset, &consumed);
      fn(kv);
      offset += consumed;
    }
  }

 private:
  std::size_t header_size() const noexcept {
    return (hint_.key_is_variable() ? 4u : 0u) +
           (hint_.value_is_variable() ? 4u : 0u);
  }

  static std::size_t field_size(std::string_view data, std::int32_t hint,
                                const char* what) {
    if (hint == KVHint::kVariable) return data.size();
    if (hint == KVHint::kString) {
      // The string encoding stores the bytes followed by a NUL and
      // decodes with strlen, so an embedded NUL would silently truncate
      // the field on every read after this point (and desynchronize the
      // byte cursor for everything behind it). Reject it here: every
      // encode path calls encoded_size() before writing a single byte.
      if (data.find('\0') != std::string_view::npos) {
        throw mutil::UsageError(
            std::string("KVCodec: ") + what +
            " contains an embedded NUL, which the kString hint cannot "
            "represent (use kVariable or a fixed-length hint)");
      }
      return data.size() + 1;  // NUL
    }
    if (data.size() != static_cast<std::size_t>(hint)) {
      throw mutil::UsageError(std::string("KVCodec: ") + what + " length " +
                              std::to_string(data.size()) +
                              " violates fixed-length hint " +
                              std::to_string(hint));
    }
    return data.size();
  }

  static std::byte* put_field(std::byte* p, std::string_view data,
                              std::int32_t hint) {
    std::memcpy(p, data.data(), data.size());
    p += data.size();
    if (hint == KVHint::kString) {
      *p = std::byte{0};
      ++p;
    }
    return p;
  }

  /// Length of the field stored at `chars` (its NUL excluded).
  static std::size_t field_len(const char* chars, std::uint32_t stored_len,
                               std::int32_t hint) {
    if (hint == KVHint::kVariable) return stored_len;
    if (hint == KVHint::kString) return std::strlen(chars);
    return static_cast<std::size_t>(hint);
  }

  KVHint hint_;
};

/// Helpers for packing integer values into KV byte fields.
inline std::string_view as_view(const std::uint64_t& v) {
  return {reinterpret_cast<const char*>(&v), sizeof(v)};
}
inline std::string_view as_view(const std::int64_t& v) {
  return {reinterpret_cast<const char*>(&v), sizeof(v)};
}
inline std::uint64_t as_u64(std::string_view v) {
  std::uint64_t out = 0;
  std::memcpy(&out, v.data(), sizeof(out));
  return out;
}
inline std::int64_t as_i64(std::string_view v) {
  std::int64_t out = 0;
  std::memcpy(&out, v.data(), sizeof(out));
  return out;
}
inline std::string_view as_view(const double& v) {
  return {reinterpret_cast<const char*>(&v), sizeof(v)};
}
inline double as_f64(std::string_view v) {
  double out = 0;
  std::memcpy(&out, v.data(), sizeof(out));
  return out;
}

}  // namespace mimir
