/**
 * @file
 * Tests for the CLI parsing/reporting layer behind safemem_run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "common/parse.h"
#include "ecc/codec.h"
#include "trace/trace.h"
#include "workloads/cli.h"
#include "workloads/report_writer.h"

namespace safemem {
namespace {

TEST(Cli, NoArgumentsShowsUsage)
{
    CliParse parse = parseCliArguments({});
    EXPECT_FALSE(parse.options.has_value());
    EXPECT_NE(parse.message.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownAppRejected)
{
    CliParse parse = parseCliArguments({"notepad"});
    EXPECT_FALSE(parse.options.has_value());
    EXPECT_NE(parse.message.find("unknown application"),
              std::string::npos);
}

TEST(Cli, DefaultsApplied)
{
    CliParse parse = parseCliArguments({"gzip"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(parse.options->app, "gzip");
    EXPECT_EQ(parse.options->tool, ToolKind::SafeMemBoth);
    EXPECT_FALSE(parse.options->params.buggy);
    EXPECT_EQ(parse.options->params.requests, defaultRequests("gzip"));
    EXPECT_EQ(parse.options->params.seed, 42u);
}

TEST(Cli, AllFlagsParsed)
{
    CliParse parse = parseCliArguments(
        {"squid1", "--tool", "purify", "--buggy", "--requests", "123",
         "--seed", "9", "--overhead", "--stats=leak"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(parse.options->tool, ToolKind::Purify);
    EXPECT_TRUE(parse.options->params.buggy);
    EXPECT_EQ(parse.options->params.requests, 123u);
    EXPECT_EQ(parse.options->params.seed, 9u);
    EXPECT_TRUE(parse.options->compareBaseline);
    EXPECT_TRUE(parse.options->dumpStats);
    EXPECT_EQ(parse.options->statsPrefix, "leak");
}

TEST(Cli, AllSweepParsed)
{
    CliParse parse = parseCliArguments({"all", "--workers", "3"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_TRUE(parse.options->allApps);
    EXPECT_EQ(parse.options->workers, 3u);
    // Each swept app resolves its own default request count later.
    EXPECT_EQ(parse.options->params.requests, 0u);
}

TEST(Cli, WorkersDefaultsToSequential)
{
    CliParse parse = parseCliArguments({"gzip"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_FALSE(parse.options->allApps);
    EXPECT_EQ(parse.options->workers, 1u);
}

TEST(Cli, ProcsFlagParsed)
{
    CliParse parse = parseCliArguments({"ypserv1", "--procs", "3"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(parse.options->procs, 3u);

    CliParse zero = parseCliArguments({"ypserv1", "--procs", "0"});
    EXPECT_FALSE(zero.options.has_value());
    EXPECT_NE(zero.message.find("at least 1"), std::string::npos);

    CliParse missing = parseCliArguments({"ypserv1", "--procs"});
    EXPECT_FALSE(missing.options.has_value());

    // Default stays on the classic single-process path.
    CliParse plain = parseCliArguments({"ypserv1"});
    ASSERT_TRUE(plain.options.has_value());
    EXPECT_EQ(plain.options->procs, 1u);
}

TEST(Cli, BadToolRejected)
{
    CliParse parse = parseCliArguments({"gzip", "--tool", "valgrind"});
    EXPECT_FALSE(parse.options.has_value());
    EXPECT_NE(parse.message.find("unknown tool"), std::string::npos);
}

TEST(Cli, MissingValueRejected)
{
    CliParse parse = parseCliArguments({"gzip", "--requests"});
    EXPECT_FALSE(parse.options.has_value());
}

TEST(Cli, TraceFlagParsed)
{
    CliParse parse =
        parseCliArguments({"gzip", "--trace", "out.trace"});
    ASSERT_TRUE(parse.options.has_value());
    EXPECT_EQ(parse.options->traceFile, "out.trace");

    CliParse missing = parseCliArguments({"gzip", "--trace"});
    EXPECT_FALSE(missing.options.has_value());
}

TEST(Cli, EndToEndTraceFileHoldsOneSectionPerRun)
{
    const std::string path = "cli_trace_test.bin";
    CliParse parse = parseCliArguments({"gzip", "--requests", "20",
                                        "--overhead", "--trace", path});
    ASSERT_TRUE(parse.options.has_value());
    std::string report = runCli(*parse.options).text;
    EXPECT_NE(report.find("trace: 2 run sections -> " + path),
              std::string::npos);

    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is.good());
    std::vector<TraceSection> sections = readTraceSections(is);
    ASSERT_EQ(sections.size(), 2u);
    EXPECT_EQ(sections[0].label, "gzip/safemem");
    EXPECT_EQ(sections[1].label, "gzip/none");
    if (kTraceCompiledIn) {
        // The instrumented run records plenty of watch traffic; the
        // baseline still records controller fills.
        EXPECT_GT(sections[0].emitted, 0u);
        EXPECT_GT(sections[1].emitted, 0u);
        EXPECT_FALSE(sections[0].records.empty());
    }
    std::remove(path.c_str());
}

TEST(Cli, ParseCountTakesOnlyWholeUnsignedNumbers)
{
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(parseCount("0", kMax), 0u);
    EXPECT_EQ(parseCount("20000", kMax), 20000u);
    EXPECT_EQ(parseCount("18446744073709551615", kMax), kMax);
    EXPECT_EQ(parseCount("64", 64), 64u);
    for (const char *bad : {"", "-1", "+3", " 7", "7 ", "5x", "0x10", "1e3",
                            "18446744073709551616",
                            "99999999999999999999"})
        EXPECT_FALSE(parseCount(bad, kMax).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(parseCount("65", 64).has_value());
}

TEST(Cli, NumericFlagsRejectSignsJunkAndOverflow)
{
    // Each of these once wrapped (-1 -> 2^64-1 requests), threw an
    // uncaught std::out_of_range, or silently dropped trailing junk.
    for (const char *flag :
         {"--requests", "--seed", "--workers", "--procs", "--banks"}) {
        for (const char *bad :
             {"-1", "5x", "+2", "", "99999999999999999999"}) {
            CliParse parse = parseCliArguments({"gzip", flag, bad});
            EXPECT_FALSE(parse.options.has_value()) << flag << " " << bad;
            EXPECT_NE(parse.message.find(std::string(flag) +
                                         " needs a whole number"),
                      std::string::npos)
                << flag << " " << bad;
            EXPECT_NE(parse.message.find("usage:"), std::string::npos);
        }
    }
    // 32-bit flags refuse what their field cannot hold instead of
    // truncating it (2^32 + 1 banks once became 1 bank).
    for (const char *flag : {"--workers", "--procs", "--banks"})
        EXPECT_FALSE(
            parseCliArguments({"gzip", flag, "4294967297"}).options)
            << flag;
    for (const char *flag : {"--samples", "--seed", "--workers"}) {
        for (const char *bad : {"-1", "5x", "99999999999999999999"})
            EXPECT_FALSE(
                parseCliArguments({"campaign", flag, bad}).options)
                << flag << " " << bad;
    }

    CliParse big = parseCliArguments(
        {"gzip", "--seed", "18446744073709551615", "--requests", "0"});
    ASSERT_TRUE(big.options.has_value());
    EXPECT_EQ(big.options->params.seed,
              std::numeric_limits<std::uint64_t>::max());
    // 0 still means the app's default request count.
    EXPECT_EQ(big.options->params.requests, defaultRequests("gzip"));

    CliParse campaign = parseCliArguments(
        {"campaign", "--samples", "400", "--seed", "11", "--workers", "4"});
    ASSERT_TRUE(campaign.options.has_value());
    EXPECT_EQ(campaign.options->campaignConfig.samples, 400u);
    EXPECT_EQ(campaign.options->campaignConfig.seed, 11u);
    EXPECT_EQ(campaign.options->campaignConfig.workers, 4u);
}

TEST(Cli, ParseRealTakesOnlyWholeFiniteNumbers)
{
    EXPECT_EQ(parseReal("0.5"), 0.5);
    EXPECT_EQ(parseReal("1"), 1.0);
    EXPECT_EQ(parseReal("0.0625"), 0.0625);
    EXPECT_EQ(parseReal("-2.5"), -2.5);
    EXPECT_EQ(parseReal("1e-3"), 1e-3);
    for (const char *bad : {"", " 0.5", "0.5 ", "0.5x", "12x", "+0.5",
                            "0x1p-1", ".", "-", "nan", "NaN", "inf",
                            "-inf", "infinity", "1e999", "1e-999"})
        EXPECT_FALSE(parseReal(bad).has_value()) << "'" << bad << "'";
}

TEST(Cli, SampleRateRejectsJunkAndOutOfRange)
{
    // std::stod once took "0.5x" as 0.5 and " 0.5" as 0.5.
    for (const char *bad : {"0.5x", " 0.5", "0.5 ", "", "nan", "inf",
                            "0", "-0.5", "1.5", "1e999"}) {
        CliParse parse = parseCliArguments(
            {"squid1", "--tool", "safemem-sampled", "--sample-rate", bad});
        EXPECT_FALSE(parse.options.has_value()) << "'" << bad << "'";
        EXPECT_NE(parse.message.find("--sample-rate needs a value in (0, 1]"),
                  std::string::npos)
            << "'" << bad << "'";
        EXPECT_NE(parse.message.find("usage:"), std::string::npos);
    }
    for (const char *good : {"1", "1.0", "0.5", "0.0625", "1e-3"}) {
        CliParse parse = parseCliArguments(
            {"squid1", "--tool", "safemem-sampled", "--sample-rate", good});
        ASSERT_TRUE(parse.options.has_value()) << good;
        EXPECT_EQ(parse.options->params.sampleRate, *parseReal(good));
    }
}

TEST(Cli, CodecDimensionsMustBeWholeNumbers)
{
    for (const char *bad : {"hsiao:64/8x", "hsiao:64x", "hsiao:+64",
                            "hsiao: 64", "hsiao:64/", "hsiao:/8",
                            "hsiao:-8", "hsiao:99999999999999999999"}) {
        EXPECT_FALSE(parseCliArguments({"gzip", "--codec", bad}).options)
            << bad;
        EXPECT_FALSE(parseCodecSpec(bad).has_value()) << bad;
    }
    auto spec = parseCodecSpec("hsiao:64/8");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->dataBits, 64);
    EXPECT_EQ(spec->checkBits, 8);
    auto auto_sized = parseCodecSpec("hsiao:32");
    ASSERT_TRUE(auto_sized.has_value());
    EXPECT_EQ(auto_sized->dataBits, 32);
    EXPECT_EQ(auto_sized->checkBits, 0);
}

TEST(Cli, FailedRunsMakeTheReportFail)
{
    // A codec that cannot host a scramble signature panics the kernel
    // at boot, so both the instrumented run and its baseline fail.
    CliParse parse = parseCliArguments({"gzip", "--codec", "hamming64/8",
                                        "--requests", "5", "--overhead"});
    ASSERT_TRUE(parse.options.has_value());
    CliReport report = runCli(*parse.options);
    EXPECT_FALSE(report.ok);
    EXPECT_NE(report.text.find("gzip: run failed:"), std::string::npos);

    CliParse clean = parseCliArguments({"gzip", "--requests", "5"});
    ASSERT_TRUE(clean.options.has_value());
    EXPECT_TRUE(runCli(*clean.options).ok);

    // An unwritable trace file fails the report too.
    CliParse trace = parseCliArguments(
        {"gzip", "--requests", "5", "--trace", "no_such_dir/cli.bin"});
    ASSERT_TRUE(trace.options.has_value());
    CliReport traced = runCli(*trace.options);
    EXPECT_FALSE(traced.ok);
    EXPECT_NE(traced.text.find("cannot write trace file"),
              std::string::npos);
}

TEST(Cli, UnknownFlagRejected)
{
    CliParse parse = parseCliArguments({"gzip", "--fast"});
    EXPECT_FALSE(parse.options.has_value());
}

TEST(Cli, ToolKindNamesRoundTrip)
{
    for (ToolKind kind : {ToolKind::None, ToolKind::SafeMemML,
                          ToolKind::SafeMemMC, ToolKind::SafeMemBoth,
                          ToolKind::PageProtBoth, ToolKind::Purify})
        EXPECT_EQ(toolKindFromName(toolKindName(kind)), kind);
    EXPECT_FALSE(toolKindFromName("gdb").has_value());
}

TEST(Cli, EndToEndBuggyRunReportsTheBug)
{
    CliParse parse = parseCliArguments(
        {"tar", "--buggy", "--requests", "120"});
    ASSERT_TRUE(parse.options.has_value());
    std::string report = runCli(*parse.options).text;
    EXPECT_NE(report.find("BUG DETECTED"), std::string::npos);
    EXPECT_NE(report.find("memory corruption"), std::string::npos);
}

TEST(Cli, EndToEndCleanRun)
{
    CliParse parse =
        parseCliArguments({"gzip", "--requests", "20", "--overhead"});
    ASSERT_TRUE(parse.options.has_value());
    CliReport report = runCli(*parse.options);
    EXPECT_TRUE(report.ok);
    EXPECT_NE(report.text.find("clean run"), std::string::npos);
    EXPECT_NE(report.text.find("overhead"), std::string::npos);
}

TEST(Cli, EndToEndAllSweepCoversEveryApp)
{
    CliParse parse = parseCliArguments(
        {"all", "--requests", "40", "--workers", "2"});
    ASSERT_TRUE(parse.options.has_value());
    std::string report = runCli(*parse.options).text;
    for (const std::string &app : appNames())
        EXPECT_NE(report.find("=== " + app + " under"),
                  std::string::npos)
            << app;
}

TEST(ReportWriter, VerdictVariants)
{
    RunResult clean;
    clean.app = "x";
    EXPECT_NE(formatVerdict(clean).find("clean run"), std::string::npos);

    RunResult leak;
    leak.app = "x";
    leak.leakReportsTrue = 1;
    leak.bugDetected = true;
    EXPECT_NE(formatVerdict(leak).find("BUG DETECTED"),
              std::string::npos);

    RunResult fp;
    fp.app = "x";
    fp.leakReportsFalse = 2;
    EXPECT_NE(formatVerdict(fp).find("other finding"),
              std::string::npos);
}

TEST(ReportWriter, StatsFilteredByPrefix)
{
    RunResult result;
    result.stats["leak.a"] = 1;
    result.stats["cache.b"] = 2;
    std::string all = formatStats(result, "");
    EXPECT_NE(all.find("leak.a"), std::string::npos);
    EXPECT_NE(all.find("cache.b"), std::string::npos);
    std::string filtered = formatStats(result, "leak");
    EXPECT_NE(filtered.find("leak.a"), std::string::npos);
    EXPECT_EQ(filtered.find("cache.b"), std::string::npos);
}

} // namespace
} // namespace safemem
