/**
 * @file
 * Tests of the codec-zoo plumbing: the Hsiao construction against an
 * oracle that lists the paper's code independently, auto-sizing of
 * check bits, spec parsing/naming round-trips, and geometry validation
 * panics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "ecc/hamming_sec.h"
#include "ecc/hsiao.h"

namespace safemem {
namespace {

TEST(CodecZoo, HsiaoReproducesThePaperCode)
{
    // The paper's (72,64) code, listed here rather than taken from the
    // codec: the 56 weight-3 byte values in ascending order, then the
    // first 8 weight-5 ones.
    std::vector<std::uint64_t> paper;
    for (int weight : {3, 5}) {
        for (unsigned v = 0; v < 256 && paper.size() < 64; ++v) {
            if (std::popcount(v) == weight)
                paper.push_back(v);
        }
    }
    ASSERT_EQ(paper.size(), 64u);

    const HsiaoCode code;
    EXPECT_STREQ(code.name(), "hsiao-72-64");
    EXPECT_EQ(code.dataBits(), 64);
    EXPECT_EQ(code.checkBits(), 8);
    for (int bit = 0; bit < 64; ++bit)
        EXPECT_EQ(code.column(bit), paper[static_cast<std::size_t>(bit)])
            << bit;
}

TEST(CodecZoo, HsiaoEncodesAndCorrectsByItsColumns)
{
    // For any d/k the check bits are the XOR of the columns of the set
    // data bits below d (bits at or past d are ignored), and every
    // single flip of the codeword decodes back with the right bit named.
    Rng rng(21);
    for (int data_bits : {1, 7, 8, 13, 32, 57, 64}) {
        for (int check_bits : {0, 64}) {
            const HsiaoCode code(data_bits, check_bits);
            const int total = data_bits + code.checkBits();
            for (int trial = 0; trial < 64; ++trial) {
                std::uint64_t data = rng.next();
                std::uint64_t expected = 0;
                for (int bit = 0; bit < data_bits; ++bit) {
                    if ((data >> bit) & 1)
                        expected ^= code.column(bit);
                }
                ASSERT_EQ(code.encode(data), expected)
                    << data_bits << "/" << check_bits << " data " << data;
            }

            const std::uint64_t data = rng.next();
            const std::uint64_t check = code.encode(data);
            for (int bit = 0; bit < total; ++bit) {
                std::uint64_t bad_data = data;
                std::uint64_t bad_check = check;
                if (bit < data_bits)
                    bad_data ^= 1ULL << bit;
                else
                    bad_check ^= 1ULL << (bit - data_bits);
                EccDecodeResult result = code.decode(bad_data, bad_check);
                EXPECT_EQ(result.status, EccDecodeStatus::CorrectedSingle)
                    << data_bits << "/" << check_bits << " bit " << bit;
                EXPECT_EQ(result.correctedBit, bit)
                    << data_bits << "/" << check_bits;
                EXPECT_EQ(result.data, data)
                    << data_bits << "/" << check_bits << " bit " << bit;
            }
        }
    }
}

TEST(CodecZoo, AutoCheckBitsMatchesTheCombinatorics)
{
    // Smallest k with enough odd-weight >= 3 columns: C(6, 3+5) = 26
    // covers 16, C(7, odd >= 3) = 63 covers 32, C(8, odd >= 3) = 92
    // covers 64.
    EXPECT_EQ(HsiaoCode::autoCheckBits(64), 8);
    EXPECT_EQ(HsiaoCode::autoCheckBits(32), 7);
    EXPECT_EQ(HsiaoCode::autoCheckBits(16), 6);
    EXPECT_EQ(HsiaoCode::autoCheckBits(1), 3);
}

TEST(CodecZoo, BadGeometryPanics)
{
    // 64 data columns cannot fit in 4 check bits (only C(4,3) = 4
    // odd-weight >= 3 values exist below 2^4).
    EXPECT_THROW(HsiaoCode(64, 4), PanicError);
    EXPECT_THROW(HsiaoCode(0, 8), PanicError);
    EXPECT_THROW(HsiaoCode(65, 0), PanicError);
    EXPECT_THROW(makeCodec({EccCodecKind::Hsiao, 64, 4}), PanicError);
}

TEST(CodecZoo, MakeCodecBuildsEveryKind)
{
    auto hsiao = makeCodec({EccCodecKind::Hsiao, 64, 0});
    auto hamming = makeCodec({EccCodecKind::Hamming64_8, 64, 0});
    auto param = makeCodec({EccCodecKind::Hsiao, 16, 0});
    EXPECT_STREQ(hsiao->name(), "hsiao-72-64");
    EXPECT_STREQ(hamming->name(), "hamming-64-8");
    EXPECT_STREQ(param->name(), "hsiao-22-16");
    EXPECT_EQ(param->checkBits(), 6);
}

TEST(CodecZoo, SpecParsingRoundTrips)
{
    for (const char *name :
         {"hsiao", "hamming64/8", "hsiao:32", "hsiao:64/8", "hsiao:16/6"}) {
        auto spec = parseCodecSpec(name);
        ASSERT_TRUE(spec.has_value()) << name;
        EXPECT_EQ(codecSpecName(*spec), name);
    }

    // Aliases normalize to the canonical name.
    EXPECT_EQ(codecSpecName(*parseCodecSpec("hamming")), "hamming64/8");
    EXPECT_EQ(codecSpecName(*parseCodecSpec("hsiao-72-64")), "hsiao");
    EXPECT_EQ(codecSpecName(*parseCodecSpec("hsiao:64")), "hsiao");

    for (const char *bad : {"", "crc32", "hsiao:", "hsiao:x", "hsiao:65",
                            "hsiao:64/65", "hsiao:-1", "hamming64"})
        EXPECT_FALSE(parseCodecSpec(bad).has_value()) << bad;
}

TEST(CodecZoo, DefaultSpecNamesTheDefaultCodec)
{
    EccCodecSpec spec;
    auto built = makeCodec(spec);
    EXPECT_STREQ(built->name(), defaultCodec().name());
    Rng rng(5);
    for (int trial = 0; trial < 64; ++trial) {
        std::uint64_t data = rng.next();
        EXPECT_EQ(built->encode(data), defaultCodec().encode(data));
    }
}

TEST(CodecZoo, HammingDecoderNeverReportsUncorrectable)
{
    // The property the scramble result rests on: no syndrome at all
    // decodes Uncorrectable, so no bit pattern can host a signature.
    const HammingSecCode code;
    const std::uint64_t data = 0x123456789abcdef0ULL;
    const std::uint64_t check = code.encode(data);
    for (unsigned syndrome = 0; syndrome < 256; ++syndrome) {
        EccDecodeResult result = code.decode(data, check ^ syndrome);
        EXPECT_NE(result.status, EccDecodeStatus::Uncorrectable)
            << "syndrome " << syndrome;
    }
}

TEST(CodecZoo, HammingPhantomCorrectionKeepsDataAndFlagsNoBit)
{
    // A syndrome naming a shortened-away position must come back as a
    // "correction" that touches nothing: data unchanged, correctedBit
    // -1 (see the EccDecodeResult contract).
    const HammingSecCode code;
    const std::uint64_t data = 0x5a5a5a5a5a5a5a5aULL;
    const std::uint64_t check = code.encode(data);

    // Find a syndrome that is neither a unit vector nor a data column.
    for (unsigned syndrome = 3; syndrome < 256; ++syndrome) {
        if (__builtin_popcount(syndrome) < 2)
            continue;
        bool is_column = false;
        for (int bit = 0; bit < 64 && !is_column; ++bit)
            is_column = code.column(bit) == syndrome;
        if (is_column)
            continue;
        EccDecodeResult result = code.decode(data, check ^ syndrome);
        EXPECT_EQ(result.status, EccDecodeStatus::CorrectedSingle);
        EXPECT_EQ(result.data, data);
        EXPECT_EQ(result.correctedBit, -1);
        return;
    }
    FAIL() << "no phantom syndrome found in an 8-bit space";
}

/** @return the index of the first of @p n groups whose per-word
 *  decode() is not Ok, or @p n — the reference for firstUnclean(). */
std::size_t
firstUncleanPerWord(const EccCodec &code, const std::uint64_t *words,
                    const std::uint8_t *checks, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (code.decode(words[i], checks[i]).status != EccDecodeStatus::Ok)
            return i;
    return n;
}

TEST(CodecZoo, BatchedCallsMatchThePerWordCalls)
{
    // encodeWords() is eight encode()s and firstUnclean() stops where
    // the per-word decode() first stops being Ok: on clean lines and on
    // lines with a single or double flip at every word index, for the
    // devirtualised Hsiao loop and the generic default (Hamming).
    constexpr std::size_t kWords = 8;
    Rng rng(33);
    for (const char *name : {"hsiao", "hsiao:64/8", "hsiao:32",
                             "hamming64/8"}) {
        const std::unique_ptr<EccCodec> code =
            makeCodec(*parseCodecSpec(name));
        const int data_bits = code->dataBits();
        const int check_bits = code->checkBits();
        for (int trial = 0; trial < 16; ++trial) {
            std::uint64_t words[kWords];
            std::uint8_t checks[kWords];
            for (std::uint64_t &word : words)
                word = rng.next();
            code->encodeWords(words, checks, kWords);
            for (std::size_t i = 0; i < kWords; ++i)
                ASSERT_EQ(checks[i],
                          static_cast<std::uint8_t>(code->encode(words[i])))
                    << name << " word " << i;
            ASSERT_EQ(code->firstUnclean(words, checks, kWords), kWords)
                << name;
            EXPECT_EQ(code->firstUnclean(words, checks, 0), 0u) << name;

            for (std::size_t at = 0; at < kWords; ++at) {
                // Single flips of a data or a check bit, a double data
                // flip, and a data/check double; each at word `at`.
                const int a = static_cast<int>(rng.next() % data_bits);
                const int b = (a + 1 + static_cast<int>(
                                           rng.next() % (data_bits - 1))) %
                              data_bits;
                const int c = static_cast<int>(rng.next() % check_bits);
                const std::uint64_t data_flips[] = {
                    1ULL << a, 0, (1ULL << a) | (1ULL << b), 1ULL << a};
                const std::uint8_t check_flips[] = {
                    0, static_cast<std::uint8_t>(1u << c), 0,
                    static_cast<std::uint8_t>(1u << c)};
                for (std::size_t f = 0; f < 4; ++f) {
                    std::uint64_t bad_words[kWords];
                    std::uint8_t bad_checks[kWords];
                    std::copy(words, words + kWords, bad_words);
                    std::copy(checks, checks + kWords, bad_checks);
                    bad_words[at] ^= data_flips[f];
                    bad_checks[at] ^= check_flips[f];
                    // A second, later fault must not mask the first.
                    if (at + 2 < kWords)
                        bad_words[at + 2] ^= 1ULL << a;
                    const std::size_t expected = firstUncleanPerWord(
                        *code, bad_words, bad_checks, kWords);
                    ASSERT_EQ(expected, at) << name << " flip " << f;
                    EXPECT_EQ(code->firstUnclean(bad_words, bad_checks,
                                                 kWords),
                              expected)
                        << name << " word " << at << " flip " << f;
                    // A burst that ends before the fault is clean.
                    EXPECT_EQ(code->firstUnclean(bad_words, bad_checks, at),
                              at)
                        << name << " word " << at << " flip " << f;
                }
            }
        }
    }
}

TEST(CodecZoo, BatchedCallsNeedByteWideChecks)
{
    // The batched calls carry the DIMM's one check byte per group; a
    // wider code must refuse them rather than truncate its checks.
    const HsiaoCode wide(64, 64);
    std::uint64_t words[8] = {};
    std::uint8_t checks[8] = {};
    EXPECT_THROW(wide.encodeWords(words, checks, 8), PanicError);
    EXPECT_THROW(wide.firstUnclean(words, checks, 8), PanicError);
}

} // namespace
} // namespace safemem
