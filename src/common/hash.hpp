#pragma once
// FNV-1a, the codebase's one byte hash: deterministic by construction,
// unlike std::hash, whose values are implementation-defined.

#include <cstdint>
#include <string_view>

namespace simty::common {

/// FNV-1a over `bytes`, continuing from `h`: the default (the FNV offset
/// basis) starts a fresh hash, and an earlier result streams one hash over
/// several pieces.
constexpr std::uint64_t fnv1a64(std::string_view bytes,
                                std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace simty::common
