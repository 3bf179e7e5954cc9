#pragma once
// Byte surgery on one section of a snapshot container, for tests that need
// a well-formed container carrying a schema defect: an extra field, or a
// field re-tagged as another type. The container layout is documented in
// snapshot/snapshot.hpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "snapshot/snapshot.hpp"

namespace simty::support {

namespace detail {

inline std::uint64_t read_le(const std::string& bytes, std::size_t at, std::size_t n) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + i])) << (8 * i);
  }
  return v;
}

}  // namespace detail

/// `bytes` with `edit(payload)` applied to section `name`'s payload and its
/// length field updated to match.
template <typename Edit>
std::string edit_section(std::string bytes, std::string_view name, Edit&& edit) {
  std::size_t pos = 16;  // magic, format version, section count
  while (pos < bytes.size()) {
    const auto name_len = static_cast<std::size_t>(detail::read_le(bytes, pos, 4));
    const std::string_view section(bytes.data() + pos + 4, name_len);
    const std::size_t len_at = pos + 4 + name_len + 4;
    const auto len = static_cast<std::size_t>(detail::read_le(bytes, len_at, 8));
    if (section == name) {
      std::string payload = bytes.substr(len_at + 8, len);
      edit(payload);
      for (std::size_t i = 0; i < 8; ++i) {
        bytes[len_at + i] = static_cast<char>((payload.size() >> (8 * i)) & 0xffu);
      }
      return bytes.replace(len_at + 8, len, payload);
    }
    pos = len_at + 8 + len;
  }
  ADD_FAILURE() << "no section '" << name << "'";
  return bytes;
}

/// The tagged encoding of one u64 field.
inline std::string u64_field(std::uint64_t v) {
  snapshot::Writer w;
  w.begin_section("field", 0);
  w.u64(v);
  return std::string(w.payload());
}

}  // namespace simty::support
