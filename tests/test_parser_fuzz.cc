/**
 * @file
 * Seeded mutation fuzzing of the parsers that take outside input: the
 * CLI argument vector, codec and geometry specs, and binary trace files.
 *
 * Each target starts from a corpus of valid inputs and applies a
 * fixed-seed stream of byte and field mutations: bit flips, byte
 * overwrites, truncations, insertions, splices from other corpus
 * entries, and boundary numbers (0, -1, 2^32, 2^63, 2^64). Every
 * mutant must be either accepted or rejected through the parser's
 * documented path: nullopt for the spec parsers, CliParse::message for
 * the CLI, FatalError for the trace reader. Any other exception
 * escaping is a failure, and the failing input is printed. Accepted
 * inputs must also satisfy the parser's own postconditions (specs
 * round-trip through their names, CLI values sit inside their ranges).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <exception>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "ecc/codec.h"
#include "ecc/geometry.h"
#include "trace/trace.h"
#include "workloads/cli.h"

namespace safemem {
namespace {

constexpr int kCasesPerTarget = 3000;

/** Numbers at the edges of the parsers' integer types, as text. */
const std::vector<std::string> kBoundaryTexts = {
    "0",
    "1",
    "-1",
    "+1",
    "64",
    "65",
    "4294967295",
    "4294967296",
    "4294967808",
    "9223372036854775807",
    "9223372036854775808",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "0.5",
    "1e308",
    "nan",
    "",
};

/** Numbers at the edges of the binary trace fields. */
const std::uint64_t kBoundaryWords[] = {
    0,
    1,
    ~std::uint64_t{0},
    std::uint64_t{1} << 32,
    std::uint64_t{1} << 58,
    std::uint64_t{1} << 60,
    std::uint64_t{1} << 63,
    4096,
    4097,
};

/** Applies one random byte-level mutation to a string. */
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    Rng &rng() { return rng_; }

    /** @return @p text after 1-4 mutations, drawing splices from
     *  @p corpus. */
    std::string
    mutate(std::string text, const std::vector<std::string> &corpus)
    {
        const std::uint64_t rounds = rng_.range(1, 4);
        for (std::uint64_t r = 0; r < rounds; ++r)
            mutateOnce(text, corpus);
        return text;
    }

  private:
    std::size_t
    pick(std::size_t size)
    {
        if (size == 0)
            return 0;
        return static_cast<std::size_t>(rng_.range(0, size - 1));
    }

    void
    mutateOnce(std::string &text, const std::vector<std::string> &corpus)
    {
        switch (rng_.range(0, 7)) {
          case 0: // flip one bit
            if (!text.empty())
                text[pick(text.size())] ^=
                    static_cast<char>(1u << rng_.range(0, 7));
            break;
          case 1: // overwrite one byte
            if (!text.empty())
                text[pick(text.size())] = static_cast<char>(rng_.range(0, 255));
            break;
          case 2: // truncate
            text.resize(pick(text.size() + 1));
            break;
          case 3: // insert a byte
            text.insert(text.begin() +
                            static_cast<std::ptrdiff_t>(pick(text.size() + 1)),
                        static_cast<char>(rng_.range(0, 255)));
            break;
          case 4: { // splice a slice of another corpus entry
            const std::string &other = corpus[pick(corpus.size())];
            std::size_t from = pick(other.size() + 1);
            std::size_t len = pick(other.size() - from + 1);
            text.insert(pick(text.size() + 1), other.substr(from, len));
            break;
          }
          case 5: { // replace the first digit run with a boundary number
            std::size_t at = text.find_first_of("0123456789");
            const std::string &num =
                kBoundaryTexts[pick(kBoundaryTexts.size())];
            if (at == std::string::npos) {
                text += num;
            } else {
                std::size_t end = text.find_first_not_of("0123456789", at);
                text.replace(at, end == std::string::npos ? end : end - at,
                             num);
            }
            break;
          }
          case 6: // drop a slice
            if (!text.empty()) {
                std::size_t from = pick(text.size());
                text.erase(from, pick(text.size() - from) + 1);
            }
            break;
          default: // duplicate a slice
            if (!text.empty()) {
                std::size_t from = pick(text.size());
                std::size_t len = pick(text.size() - from) + 1;
                text.insert(from, text.substr(from, len));
            }
            break;
        }
    }

    Rng rng_;
};

/** @return a printable rendering of @p bytes for failure messages. */
std::string
printable(const std::string &bytes)
{
    std::ostringstream out;
    out << '"';
    for (unsigned char ch : bytes) {
        if (ch >= 0x20 && ch < 0x7f && ch != '"' && ch != '\\')
            out << ch;
        else
            out << "\\x" << "0123456789abcdef"[ch >> 4]
                << "0123456789abcdef"[ch & 15];
    }
    out << '"';
    return out.str();
}

const std::vector<std::string> kSpecCorpus = {
    "word",        "block:512",   "block:1024/parity", "block:512/crc32",
    "block:4096",  "hsiao",       "hsiao-72-64",       "hsiao:64/8",
    "hsiao:32",    "hsiao:16/6",  "hamming64/8",       "hamming",
};

TEST(ParserFuzz, GeometrySpecsAcceptOrReturnNullopt)
{
    Mutator mutator(0x6e0);
    int accepted = 0;
    for (int n = 0; n < kCasesPerTarget; ++n) {
        const std::string text = mutator.mutate(
            kSpecCorpus[mutator.rng().range(0, kSpecCorpus.size() - 1)],
            kSpecCorpus);
        std::optional<ProtectionGeometry> geometry;
        try {
            geometry = parseGeometry(text);
        } catch (const std::exception &err) {
            FAIL() << "parseGeometry(" << printable(text)
                   << ") threw: " << err.what();
        }
        if (!geometry)
            continue;
        ++accepted;
        EXPECT_TRUE(geometry->isWord() ||
                    validCodewordBytes(geometry->codewordBytes))
            << printable(text);
        EXPECT_EQ(parseGeometry(geometryName(*geometry)), geometry)
            << printable(text) << " does not round-trip";
    }
    // The corpus seeds survive some mutations (e.g. a no-op truncation).
    EXPECT_GT(accepted, 0);
}

TEST(ParserFuzz, GeometryRejectsCodewordSizesPastUint32)
{
    // 2^32 + 512 once wrapped to a valid 512-byte codeword.
    EXPECT_FALSE(parseGeometry("block:4294967808"));
    EXPECT_FALSE(parseGeometry("block:4294967808/crc32"));
    EXPECT_FALSE(parseGeometry("block:18446744073709551616"));
    EXPECT_FALSE(parseGeometry("block:-512"));
    EXPECT_FALSE(parseGeometry("block:+512"));
    EXPECT_TRUE(parseGeometry("block:512"));
}

TEST(ParserFuzz, CodecSpecsAcceptOrReturnNullopt)
{
    Mutator mutator(0xc0dec);
    int accepted = 0;
    for (int n = 0; n < kCasesPerTarget; ++n) {
        const std::string text = mutator.mutate(
            kSpecCorpus[mutator.rng().range(0, kSpecCorpus.size() - 1)],
            kSpecCorpus);
        std::optional<EccCodecSpec> spec;
        try {
            spec = parseCodecSpec(text);
        } catch (const std::exception &err) {
            FAIL() << "parseCodecSpec(" << printable(text)
                   << ") threw: " << err.what();
        }
        if (!spec)
            continue;
        ++accepted;
        EXPECT_GE(spec->dataBits, 1) << printable(text);
        EXPECT_LE(spec->dataBits, 64) << printable(text);
        EXPECT_GE(spec->checkBits, 0) << printable(text);
        EXPECT_LE(spec->checkBits, 64) << printable(text);
        EXPECT_EQ(parseCodecSpec(codecSpecName(*spec)), spec)
            << printable(text) << " does not round-trip";
    }
    EXPECT_GT(accepted, 0);
}

/** CLI argument vectors from the README, plus campaign invocations. */
const std::vector<std::vector<std::string>> kCliCorpus = {
    {"squid1", "--buggy"},
    {"gzip", "--tool", "purify", "--overhead"},
    {"ypserv1", "--buggy", "--stats=leak"},
    {"all", "--overhead", "--workers", "0"},
    {"ypserv1", "--buggy", "--procs", "2", "--stats"},
    {"ypserv1", "--buggy", "--banks", "4", "--procs", "4", "--stats"},
    {"squid2", "--buggy", "--tool", "safemem-sampled", "--sample-rate",
     "0.0625", "--procs", "4", "--banks", "4"},
    {"stream", "--buggy", "--geometry", "block:1024", "--stats"},
    {"gzip", "--codec", "hamming64/8"},
    {"campaign", "--codec", "hamming64/8", "--codec", "hsiao",
     "--samples", "2000", "--seed", "7", "--workers", "2"},
    {"gzip", "--requests", "20", "--trace", "gzip.trace"},
    {"squid1", "--tool", "safemem", "--seed", "42", "--simcheck"},
};

/** @return every flag and value token in the corpus, for splices. */
std::vector<std::string>
cliTokens()
{
    std::vector<std::string> tokens;
    for (const auto &args : kCliCorpus)
        tokens.insert(tokens.end(), args.begin(), args.end());
    return tokens;
}

TEST(ParserFuzz, CliArgumentsParseOrExplain)
{
    const std::vector<std::string> tokens = cliTokens();
    Mutator mutator(0xc11);
    Rng &rng = mutator.rng();
    int accepted = 0;
    for (int n = 0; n < kCasesPerTarget; ++n) {
        std::vector<std::string> args =
            kCliCorpus[rng.range(0, kCliCorpus.size() - 1)];
        const std::uint64_t rounds = rng.range(1, 3);
        for (std::uint64_t r = 0; r < rounds; ++r) {
            std::size_t at = args.empty() ? 0 : rng.range(0, args.size() - 1);
            switch (rng.range(0, 4)) {
              case 0: // mutate one argument's bytes
                if (!args.empty())
                    args[at] = mutator.mutate(args[at], tokens);
                break;
              case 1: // drop one argument
                if (!args.empty())
                    args.erase(args.begin() + static_cast<std::ptrdiff_t>(at));
                break;
              case 2: // insert a corpus token
                args.insert(args.begin() + static_cast<std::ptrdiff_t>(
                                               args.empty() ? 0 : at),
                            tokens[rng.range(0, tokens.size() - 1)]);
                break;
              case 3: // replace an argument with a boundary number
                if (!args.empty())
                    args[at] =
                        kBoundaryTexts[rng.range(0, kBoundaryTexts.size() - 1)];
                break;
              default: // truncate the vector
                args.resize(rng.range(0, args.size()));
                break;
            }
        }

        std::ostringstream shown;
        for (const std::string &arg : args)
            shown << ' ' << printable(arg);
        CliParse parsed;
        try {
            parsed = parseCliArguments(args);
        } catch (const std::exception &err) {
            FAIL() << "parseCliArguments(" << shown.str()
                   << " ) threw: " << err.what();
        }
        if (!parsed.options) {
            EXPECT_FALSE(parsed.message.empty()) << shown.str();
            continue;
        }
        ++accepted;
        const CliOptions &options = *parsed.options;
        EXPECT_TRUE(parsed.message.empty()) << shown.str();
        EXPECT_GE(options.procs, 1u) << shown.str();
        EXPECT_GE(options.params.banks, 1u) << shown.str();
        EXPECT_LE(options.params.banks, kMaxMemoryBanks) << shown.str();
        EXPECT_GT(options.params.sampleRate, 0.0) << shown.str();
        EXPECT_LE(options.params.sampleRate, 1.0) << shown.str();
    }
    EXPECT_GT(accepted, 0);
}

/** @return a real two-section trace file image. */
std::string
twoSectionTrace()
{
    Trace first(16);
    for (std::uint64_t i = 0; i < 20; ++i)
        first.emit(TraceEvent::ControllerFill, i, 0x1000 + 64 * i, 1, i % 4);
    Trace second(8);
    second.emit(TraceEvent::LeakReported, 99, 0xabc, 128, 7);
    second.emit(TraceEvent::WatchDrop, 100, 0x2000);
    std::stringstream stream(std::ios::in | std::ios::out |
                             std::ios::binary);
    writeTraceSection(stream, first, "squid1/safemem+buggy");
    writeTraceSection(stream, second, "gzip/none");
    return stream.str();
}

TEST(ParserFuzz, TraceSectionsReadOrThrowFatalError)
{
    const std::string seed = twoSectionTrace();
    ASSERT_EQ(
        [&] {
            std::stringstream in(seed, std::ios::in | std::ios::binary);
            return readTraceSections(in).size();
        }(),
        2u);
    const std::vector<std::string> corpus = {seed};
    Mutator mutator(0x7ace);
    Rng &rng = mutator.rng();
    int accepted = 0;
    for (int n = 0; n < kCasesPerTarget; ++n) {
        std::string bytes = seed;
        if (rng.chance(0.5)) {
            // Field mutation: a boundary number over an aligned 4- or
            // 8-byte slot, which lands on header counts and lengths.
            const std::uint64_t word =
                kBoundaryWords[rng.range(0, std::size(kBoundaryWords) - 1)];
            const std::size_t width = rng.chance(0.5) ? 8 : 4;
            const std::size_t at = rng.range(0, bytes.size() - width);
            std::memcpy(&bytes[at], &word, width);
            if (rng.chance(0.5))
                bytes = mutator.mutate(bytes, corpus);
        } else {
            bytes = mutator.mutate(bytes, corpus);
        }

        std::stringstream in(bytes, std::ios::in | std::ios::binary);
        try {
            std::vector<TraceSection> sections = readTraceSections(in);
            ++accepted;
            for (const TraceSection &section : sections) {
                EXPECT_LE(section.records.size(), section.capacity);
                EXPECT_LE(section.label.size(), 4096u);
            }
        } catch (const FatalError &err) {
            EXPECT_EQ(std::string(err.what()).rfind("trace: ", 0), 0u)
                << err.what();
        } catch (const std::exception &err) {
            FAIL() << "readTraceSections(" << printable(bytes)
                   << ") threw a non-FatalError: " << err.what();
        }
    }
    EXPECT_GT(accepted, 0);
}

} // namespace
} // namespace safemem
