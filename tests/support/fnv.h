/**
 * @file
 * 64-bit FNV-1a, the fingerprint the golden tests compare encoder and
 * report bytes against.
 */
#pragma once

#include <cstdint>
#include <string_view>

namespace wsrs::test {

inline std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace wsrs::test
