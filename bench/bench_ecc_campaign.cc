/**
 * @file
 * Fault-injection campaign over the ECC codec zoo: sweeps
 * {none, random, random-burst} x {1..8 errors} x {codec}, classifies
 * every decode as corrected / detected / miscorrected against ground
 * truth, and reports whether each codec can host SafeMem's scramble
 * signature. Classic Hamming 64/8 silently miscorrects double-bit
 * upsets and has no uncorrectable state — the headline negative result
 * explaining why the paper needs a SEC-DED code.
 *
 *   build/bench/bench_ecc_campaign                    # human-readable
 *   build/bench/bench_ecc_campaign --json             # JSON to stdout
 *   build/bench/bench_ecc_campaign --out FILE         # JSON to FILE
 *   build/bench/bench_ecc_campaign --samples 2000     # reduced load
 *   build/bench/bench_ecc_campaign --workers 4        # fixed fan-out
 *
 * Every invocation first re-runs the sweep at workers=1 and verifies
 * the fan-out produced bit-identical results (exit 1 otherwise) — the
 * same determinism contract bench_matrix enforces for run cells. The
 * human-readable report also prints each pass's trial count and host
 * trials/s; the JSON carries no host time, so it stays reproducible.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "common/parse.h"
#include "common/thread_pool.h"
#include "workloads/campaign.h"

using namespace safemem;

namespace {

/** A campaign pass with the host time it took. */
struct TimedPass
{
    CampaignResult result;
    double seconds = 0.0;
};

TimedPass
timedCampaign(const CampaignConfig &config)
{
    auto start = std::chrono::steady_clock::now();
    TimedPass pass{runCampaign(config)};
    pass.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    return pass;
}

/** Print one pass's trial count and host throughput. */
void
printThroughput(const char *label, const TimedPass &pass)
{
    std::uint64_t trials = 0;
    for (const CodecCampaign &codec : pass.result.codecs) {
        for (const CampaignCell &cell : codec.cells)
            trials += cell.trials;
    }
    std::printf("%s: %llu trials in %.3f s host, %.3g trials/s\n", label,
                static_cast<unsigned long long>(trials), pass.seconds,
                pass.seconds > 0.0 ? static_cast<double>(trials) /
                                         pass.seconds
                                   : 0.0);
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::string out_path;
    CampaignConfig config;
    config.workers = 0; // all cores

    const auto usage = [] {
        std::fprintf(stderr,
                     "usage: bench_ecc_campaign [--json] [--out <file>] "
                     "[--samples <n>] [--seed <n>] [--workers <n>]\n");
        return 1;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--samples" && i + 1 < argc) {
            if (!parseCountInto(argv[++i], config.samples))
                return usage();
        } else if (arg == "--seed" && i + 1 < argc) {
            if (!parseCountInto(argv[++i], config.seed))
                return usage();
        } else if (arg == "--workers" && i + 1 < argc) {
            if (!parseCountInto(argv[++i], config.workers))
                return usage();
        } else {
            return usage();
        }
    }

    const TimedPass pass = timedCampaign(config);
    const CampaignResult &result = pass.result;

    // Determinism check: the same campaign serially must be identical.
    CampaignConfig serial = config;
    serial.workers = 1;
    const TimedPass serial_pass = timedCampaign(serial);
    const bool identical = serial_pass.result == result;
    if (!identical)
        std::fprintf(stderr,
                     "FAIL: parallel campaign differs from serial run\n");

    if (!out_path.empty()) {
        std::FILE *file = std::fopen(out_path.c_str(), "w");
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
            return 1;
        }
        const std::string doc = campaignJson(result);
        std::fwrite(doc.data(), 1, doc.size(), file);
        std::fclose(file);
        std::printf("wrote %s\n", out_path.c_str());
    } else if (json) {
        std::fputs(campaignJson(result).c_str(), stdout);
    } else {
        const unsigned resolved = ThreadPool::clampWorkers(
            config.workers,
            result.codecs.size() *
                (1 + 2 * static_cast<std::size_t>(config.maxErrors)));
        std::printf("ECC fault-injection campaign (seed %llu, "
                    "%llu samples/cell, %u workers)\n\n",
                    static_cast<unsigned long long>(config.seed),
                    static_cast<unsigned long long>(config.samples),
                    resolved);
        std::fputs(formatCampaignReport(result).c_str(), stdout);
        printThroughput("campaign pass", pass);
        printThroughput("serial check pass", serial_pass);
        std::printf("parallel == serial: %s\n", identical ? "yes" : "NO");
    }
    return identical ? 0 : 1;
}
