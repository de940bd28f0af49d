// Hand-built unversioned v0 ("1RTA") wire records for rejection tests.
// The encoder writes only v1, so a v0 record is derived from a v1 one:
// the v0 header is the v1 header without its version, AP id and
// sequence fields, and the element ids and payload are laid out the
// same way.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace arraytrack::test {

/// v1: magic | version | elements snapshots bits | ap_id | u64 seq | rest
/// v0: magic | elements snapshots bits | rest
inline std::vector<std::uint8_t> v0_from_v1(
    const std::vector<std::uint8_t>& v1) {
  constexpr std::uint8_t kMagicV0[4] = {0x31, 0x52, 0x54, 0x41};  // "1RTA"
  std::vector<std::uint8_t> out(v1.size() - 16);
  std::copy(kMagicV0, kMagicV0 + 4, out.begin());
  std::copy(v1.begin() + 8, v1.begin() + 20, out.begin() + 4);
  std::copy(v1.begin() + 32, v1.end(), out.begin() + 16);
  return out;
}

}  // namespace arraytrack::test
