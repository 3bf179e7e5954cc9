#pragma once
// One random mangling of an encoded buffer, for the hostile-input sweeps
// over the snapshot container and the serve request frames: a byte flip, a
// stomped run of bytes, a truncation, or random tail bytes grafted on.

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/rng.hpp"

namespace simty::support {

inline std::string corrupt(std::string bytes, Rng& rng) {
  const std::uint32_t kind = rng.next_below(4);
  if (kind == 0) {  // single byte flip
    bytes[rng.next_below(static_cast<std::uint32_t>(bytes.size()))] ^=
        static_cast<char>(1 + rng.next_below(255));
  } else if (kind == 1) {  // stomp a run of bytes
    const std::size_t at = rng.next_below(static_cast<std::uint32_t>(bytes.size()));
    const std::size_t len =
        std::min<std::size_t>(1 + rng.next_below(8), bytes.size() - at);
    for (std::size_t i = 0; i < len; ++i) {
      bytes[at + i] = static_cast<char>(rng.next_u32());
    }
  } else if (kind == 2) {  // truncate
    bytes.resize(rng.next_below(static_cast<std::uint32_t>(bytes.size())));
  } else {  // inflate: graft random tail bytes
    const std::size_t extra = 1 + rng.next_below(32);
    for (std::size_t i = 0; i < extra; ++i) {
      bytes.push_back(static_cast<char>(rng.next_u32()));
    }
  }
  return bytes;
}

}  // namespace simty::support
