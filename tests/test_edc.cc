/**
 * @file
 * Tests for the block geometry's per-line EDC folds (ecc/edc.h): the
 * CRC-32 fold against an independent bit-at-a-time CRC-32, its
 * detection strength over a 512-bit line, and the affine property
 * (a mask changes the fold by a data-independent constant) that the
 * kernel's boot-time scramble check relies on.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/types.h"
#include "ecc/edc.h"
#include "ecc/scramble.h"

namespace safemem {
namespace {

using Line = std::array<std::uint64_t, kEccGroupsPerLine>;

constexpr std::size_t kLineBits = kEccGroupsPerLine * 64;

static_assert(edcBitsPerLine(EdcKind::Crc32) == 32);
static_assert(edcBitsPerLine(EdcKind::Parity) == 8);

/** Bit-at-a-time reflected CRC-32 (IEEE 802.3): the textbook shift
 *  register, sharing no table or code with the library's fold. */
std::uint32_t
referenceCrc32(const std::vector<std::uint8_t> &bytes)
{
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::uint8_t byte : bytes) {
        crc ^= byte;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

/** The reference over a line's first @p nwords words, each word's bytes
 *  taken low byte first. */
std::uint64_t
referenceLineCrc(const Line &line, std::size_t nwords)
{
    std::vector<std::uint8_t> bytes;
    for (std::size_t i = 0; i < nwords; ++i)
        for (int byte = 0; byte < 8; ++byte)
            bytes.push_back(
                static_cast<std::uint8_t>(line[i] >> (8 * byte)));
    return referenceCrc32(bytes);
}

std::uint64_t
fold(EdcKind kind, const Line &line)
{
    return edcLineFold(kind, line.data(), line.size());
}

Line
randomLine(Rng &rng)
{
    Line line;
    for (std::uint64_t &word : line)
        word = rng.next();
    return line;
}

void
flipBit(Line &line, std::size_t bit)
{
    line[bit / 64] ^= 1ULL << (bit % 64);
}

TEST(EdcTest, ReferenceCrcMatchesTheIeeeCheckValue)
{
    const char *check = "123456789";
    std::vector<std::uint8_t> bytes(check, check + 9);
    EXPECT_EQ(referenceCrc32(bytes), 0xCBF43926u);
}

TEST(EdcTest, Crc32FoldMatchesBitwiseReference)
{
    auto expectMatches = [](const Line &line) {
        for (std::size_t nwords : {std::size_t{1}, std::size_t{7},
                                   kEccGroupsPerLine})
            ASSERT_EQ(edcLineFold(EdcKind::Crc32, line.data(), nwords),
                      referenceLineCrc(line, nwords))
                << "nwords=" << nwords << " word0=" << line[0];
    };
    Line zeros{};
    ASSERT_NO_FATAL_FAILURE(expectMatches(zeros));
    Line ones;
    ones.fill(~0ULL);
    ASSERT_NO_FATAL_FAILURE(expectMatches(ones));
    for (std::size_t bit = 0; bit < kLineBits; ++bit) {
        Line single{};
        flipBit(single, bit);
        ASSERT_NO_FATAL_FAILURE(expectMatches(single));
    }
    Rng rng(0xedc0);
    for (int i = 0; i < 100'000; ++i)
        ASSERT_NO_FATAL_FAILURE(expectMatches(randomLine(rng)));
    EXPECT_EQ(edcZeroLineFold(EdcKind::Crc32),
              referenceLineCrc(zeros, kEccGroupsPerLine));
}

TEST(EdcTest, FoldsFitTheirAccountedWidth)
{
    Rng rng(0xedc1);
    for (EdcKind kind : {EdcKind::Parity, EdcKind::Crc32}) {
        std::uint64_t limit = 1ULL << edcBitsPerLine(kind);
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(fold(kind, randomLine(rng)), limit);
    }
}

TEST(EdcTest, Crc32DetectsEveryOneAndTwoBitError)
{
    // The fold is affine (checked below), so fold(x ^ e) != fold(x) for
    // every x exactly when fold(e) != fold(0).
    const std::uint64_t zero = edcZeroLineFold(EdcKind::Crc32);
    std::size_t patterns = 0;
    for (std::size_t i = 0; i < kLineBits; ++i) {
        Line single{};
        flipBit(single, i);
        ASSERT_NE(fold(EdcKind::Crc32, single), zero) << "bit " << i;
        ++patterns;
        for (std::size_t j = i + 1; j < kLineBits; ++j) {
            Line pair = single;
            flipBit(pair, j);
            ASSERT_NE(fold(EdcKind::Crc32, pair), zero)
                << "bits " << i << "," << j;
            ++patterns;
        }
    }
    EXPECT_EQ(patterns, kLineBits + kLineBits * (kLineBits - 1) / 2);
}

TEST(EdcTest, Crc32DetectsSampledThreeAndFourBitErrors)
{
    // CRC-32 keeps Hamming distance >= 5 at 512 bits; sample the 3- and
    // 4-bit patterns rather than enumerate them.
    const std::uint64_t zero = edcZeroLineFold(EdcKind::Crc32);
    Rng rng(0xedc3);
    for (std::size_t weight : {3u, 4u}) {
        for (int sample = 0; sample < 100'000; ++sample) {
            Line error{};
            std::size_t set = 0;
            while (set < weight) {
                std::size_t bit = rng.range(0, kLineBits - 1);
                if (error[bit / 64] >> (bit % 64) & 1)
                    continue;
                flipBit(error, bit);
                ++set;
            }
            ASSERT_NE(fold(EdcKind::Crc32, error), zero)
                << "weight " << weight << " sample " << sample;
        }
    }
}

TEST(EdcTest, ParityDetectsEverySingleBitError)
{
    const std::uint64_t zero = edcZeroLineFold(EdcKind::Parity);
    for (std::size_t bit = 0; bit < kLineBits; ++bit) {
        Line single{};
        flipBit(single, bit);
        ASSERT_NE(fold(EdcKind::Parity, single), zero) << "bit " << bit;
    }
}

TEST(EdcTest, MaskChangesTheFoldByTheScrambleDelta)
{
    // The kernel checks the scramble's fold delta once at boot and trusts
    // it for every line: it must not depend on the data.
    Rng rng(0xedc4);
    std::vector<std::uint64_t> masks{defaultScramblePattern().mask()};
    for (int i = 0; i < 16; ++i)
        masks.push_back(rng.next());
    for (EdcKind kind : {EdcKind::Parity, EdcKind::Crc32}) {
        for (std::uint64_t mask : masks) {
            std::uint64_t delta = edcScrambleFoldDelta(kind, mask);
            for (int i = 0; i < 256; ++i) {
                Line data = randomLine(rng);
                Line masked = data;
                for (std::uint64_t &word : masked)
                    word ^= mask;
                ASSERT_EQ(fold(kind, masked) ^ fold(kind, data), delta)
                    << "kind " << static_cast<int>(kind) << " mask "
                    << mask;
            }
        }
    }
}

} // namespace
} // namespace safemem
