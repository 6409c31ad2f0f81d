#include "ecc/edc.h"

#include <array>

namespace safemem {
namespace {

constexpr std::uint64_t
rotl64(std::uint64_t value, unsigned amount)
{
    amount &= 63;
    return amount == 0 ? value
                       : (value << amount) | (value >> (64 - amount));
}

/** Rotation step between word slots; coprime to 64 so the first eight
 *  slots get eight distinct rotations. */
constexpr unsigned kParityRotStep = 19;

std::uint64_t
parityFold(const std::uint64_t *words, std::size_t nwords)
{
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < nwords; ++i)
        acc ^= rotl64(words[i],
                      static_cast<unsigned>(i) * kParityRotStep);
    // Fold the 64-bit accumulator down to the stored 8 parity bits.
    acc ^= acc >> 32;
    acc ^= acc >> 16;
    acc ^= acc >> 8;
    return acc & 0xff;
}

/** Reflected CRC-32 (IEEE 802.3 polynomial), sliced by eight: row 0 is
 *  the classic byte table; row k advances a byte's CRC through k more
 *  zero bytes, so one 64-bit word folds in eight independent lookups. */
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ (crc & 1 ? 0xEDB88320u : 0u);
            t[0][i] = crc;
        }
        for (std::size_t k = 1; k < t.size(); ++k)
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
        return t;
    }();
    return tables;
}

std::uint64_t
crc32Fold(const std::uint64_t *words, std::size_t nwords)
{
    const CrcTables &t = crcTables();
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < nwords; ++i) {
        // The word's bytes enter low byte first; the 32-bit register
        // overlaps its low four bytes.
        std::uint64_t x = words[i] ^ crc;
        crc = t[7][x & 0xff] ^ t[6][(x >> 8) & 0xff] ^
              t[5][(x >> 16) & 0xff] ^ t[4][(x >> 24) & 0xff] ^
              t[3][(x >> 32) & 0xff] ^ t[2][(x >> 40) & 0xff] ^
              t[1][(x >> 48) & 0xff] ^ t[0][x >> 56];
    }
    return crc ^ 0xFFFFFFFFu;
}

} // namespace

std::uint64_t
edcLineFold(EdcKind kind, const std::uint64_t *words, std::size_t nwords)
{
    return kind == EdcKind::Crc32 ? crc32Fold(words, nwords)
                                  : parityFold(words, nwords);
}

std::uint64_t
edcZeroLineFold(EdcKind kind)
{
    const std::uint64_t zeros[kEccGroupsPerLine] = {};
    return edcLineFold(kind, zeros, kEccGroupsPerLine);
}

std::uint64_t
edcScrambleFoldDelta(EdcKind kind, std::uint64_t mask)
{
    // Both folds are affine in the data, so fold(x ^ e) ^ fold(x) is the
    // same for every x: compute it against the all-zero line.
    std::uint64_t masked[kEccGroupsPerLine];
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        masked[i] = mask;
    return edcLineFold(kind, masked, kEccGroupsPerLine) ^
           edcZeroLineFold(kind);
}

} // namespace safemem
