/** @file The one content-hash family, FNV-1a 64: program, arch,
 *  config, store-record, option and outcome hashes and the checkpoint
 *  guard. Stable across platforms and standard libraries. */

#ifndef PLAST_BASE_HASH_HPP
#define PLAST_BASE_HASH_HPP

#include <cstdint>
#include <string_view>

namespace plast
{

/** Incremental FNV-1a 64 over mixed fields: raw bytes, little-endian
 *  words and terminated strings fold into one running hash, so text
 *  hashes and binary hashes share one hash family. */
struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    byte(uint8_t b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    void
    bytes(std::string_view s)
    {
        for (unsigned char c : s)
            byte(c);
    }
    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }
    void
    str(std::string_view s)
    {
        bytes(s);
        byte(0); // terminator: "ab"+"c" != "a"+"bc"
    }
};

inline uint64_t
fnv1a64(std::string_view text)
{
    Fnv1a f;
    f.bytes(text);
    return f.h;
}

} // namespace plast

#endif // PLAST_BASE_HASH_HPP
