/**
 * @file
 * Measures the banked memory system: the consolidated ypserv1 workload
 * swept over bank counts {1,2,4,8} x process counts {1,2,4}. Every cell
 * is executed twice — serially on the calling thread and through the
 * parallel run matrix — and the two results must be bit-identical, the
 * same contract the banks=1 golden tests enforce against the pre-bank
 * machine. The JSON reports, per cell, the wall clock, the simulated
 * cycle count, and how the BankGate classified the scheduler hand-offs
 * (disjoint bank footprints vs gated), i.e. how much parallelism the
 * bank partition exposes.
 *
 *   build/bench/bench_banked                 # human-readable
 *   build/bench/bench_banked --json          # BENCH_banked.json shape
 *   build/bench/bench_banked --requests 200  # reduced load (CI smoke)
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parse.h"
#include "workloads/driver.h"

using namespace safemem;

namespace {

struct Cell
{
    std::uint32_t banks = 1;
    std::uint32_t procs = 1;
    double seconds = 0.0;
    Cycles totalCycles = 0;
    std::uint64_t disjoint = 0;
    std::uint64_t gated = 0;
    bool bugDetected = false;
    bool identical = false;
};

std::uint64_t
statOrZero(const RunResult &result, const char *key)
{
    auto it = result.stats.find(key);
    return it == result.stats.end() ? 0 : it->second;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::uint64_t requests = 400;

    const auto usage = [] {
        std::fprintf(stderr,
                     "usage: bench_banked [--json] [--requests <n>]\n");
        return 1;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--requests" && i + 1 < argc) {
            if (!parseCountInto(argv[++i], requests))
                return usage();
        } else {
            return usage();
        }
    }

    const Log quiet = Log::quiet();
    std::vector<Cell> cells;
    bool all_identical = true;

    for (std::uint32_t banks : {1u, 2u, 4u, 8u}) {
        for (std::uint32_t procs : {1u, 2u, 4u}) {
            RunSpec spec;
            spec.app = "ypserv1";
            spec.tool = ToolKind::SafeMemBoth;
            spec.params = paperParams("ypserv1", true);
            spec.params.requests = requests;
            spec.params.banks = banks;
            spec.params.log = &quiet;
            spec.procs = procs;

            const auto start = std::chrono::steady_clock::now();
            RunResult serial = procs == 1
                                   ? runWorkload(spec.app, spec.tool,
                                                 spec.params)
                                   : runConsolidated(spec);
            const auto stop = std::chrono::steady_clock::now();

            // The same cell through the parallel matrix: worker threads
            // must not move a single byte of the result.
            std::vector<MatrixCell> matrix =
                runMatrix({spec, spec}, 4);
            bool identical = matrix[0].ok() && matrix[1].ok() &&
                             matrix[0].result == serial &&
                             matrix[1].result == serial;
            all_identical = all_identical && identical;

            Cell cell;
            cell.banks = banks;
            cell.procs = procs;
            cell.seconds =
                std::chrono::duration<double>(stop - start).count();
            cell.totalCycles = serial.totalCycles;
            cell.disjoint =
                statOrZero(serial, "sched.bank_disjoint_handoffs");
            cell.gated = statOrZero(serial, "sched.bank_gated_handoffs");
            cell.bugDetected = serial.bugDetected;
            cell.identical = identical;
            cells.push_back(cell);
        }
    }

    if (json) {
        std::printf("{\n");
        std::printf("  \"bench\": \"banked\",\n");
        std::printf("  \"app\": \"ypserv1\",\n");
        std::printf("  \"requests\": %llu,\n",
                    static_cast<unsigned long long>(requests));
        std::printf("  \"cells\": [\n");
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            std::printf("    {\"banks\": %u, \"procs\": %u, "
                        "\"seconds\": %.3f, \"total_cycles\": %llu, "
                        "\"disjoint_handoffs\": %llu, "
                        "\"gated_handoffs\": %llu, "
                        "\"bug_detected\": %s, \"identical\": %s}%s\n",
                        c.banks, c.procs, c.seconds,
                        static_cast<unsigned long long>(c.totalCycles),
                        static_cast<unsigned long long>(c.disjoint),
                        static_cast<unsigned long long>(c.gated),
                        c.bugDetected ? "true" : "false",
                        c.identical ? "true" : "false",
                        i + 1 < cells.size() ? "," : "");
        }
        std::printf("  ],\n");
        std::printf("  \"identical\": %s\n",
                    all_identical ? "true" : "false");
        std::printf("}\n");
    } else {
        std::printf("banked memory sweep: ypserv1, %llu requests\n",
                    static_cast<unsigned long long>(requests));
        std::printf("  %5s %5s %9s %14s %9s %6s %9s %9s\n", "banks",
                    "procs", "seconds", "cycles", "disjoint", "gated",
                    "detected", "identical");
        for (const Cell &c : cells)
            std::printf("  %5u %5u %9.3f %14llu %9llu %6llu %9s %9s\n",
                        c.banks, c.procs, c.seconds,
                        static_cast<unsigned long long>(c.totalCycles),
                        static_cast<unsigned long long>(c.disjoint),
                        static_cast<unsigned long long>(c.gated),
                        c.bugDetected ? "yes" : "NO",
                        c.identical ? "yes" : "NO");
        std::printf("serial vs matrix results bit-identical: %s\n",
                    all_identical ? "yes" : "NO");
    }
    return all_identical ? 0 : 1;
}
