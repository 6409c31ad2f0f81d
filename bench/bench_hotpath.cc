/**
 * @file
 * Hot-path microbenchmark: wall-clock cost of the simulator itself.
 *
 * The paper's tables compare *simulated* overheads (SafeMem vs Purify),
 * which only stay trustworthy at production scale if the simulator's own
 * per-access cost is small and measurable. This bench drives the plain
 * CPU access path — no tool attached — and reports host wall-time per
 * million simulated accesses alongside the simulated-cycle totals, which
 * must not change when the hot path is optimised.
 *
 * Phases:
 *   word_hit   hit-dominated single-word loads/stores over a working set
 *              that fits in the L1 model (the Table 3 inner loop shape);
 *   word_miss  pointer-chase over a working set 4x the cache so fills and
 *              writebacks dominate;
 *   block_copy page-sized read/write spans (the allocator/workload bulk
 *              path: one cache touch per line, one translation per page).
 *
 * `--json [--out FILE]` writes BENCH_hotpath.json, the repo's perf
 * baseline; scripts/ci.sh smoke-checks the file shape. Pass
 * `--baseline-ms X` (ms per million word_hit accesses of a reference
 * build) to embed a speedup ratio in the report.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/parse.h"
#include "os/machine.h"
#include "trace/trace.h"

using namespace safemem;

namespace {

struct PhaseResult
{
    std::string name;
    std::uint64_t accesses = 0;     ///< simulated load/store operations
    std::uint64_t bytes = 0;        ///< bytes moved through the cache
    double wallSeconds = 0.0;       ///< host time spent in the phase
    std::uint64_t hits = 0;         ///< cache hits during the phase
    std::uint64_t misses = 0;       ///< cache misses during the phase
    std::uint64_t cycles = 0;       ///< simulated cycles elapsed
};

double
msPerMillion(const PhaseResult &phase)
{
    if (phase.accesses == 0)
        return 0.0;
    // 1 ns/access == 1 ms per million accesses.
    return phase.wallSeconds * 1e9 / static_cast<double>(phase.accesses);
}

double
hitRate(const PhaseResult &phase)
{
    std::uint64_t total = phase.hits + phase.misses;
    return total == 0 ? 0.0
                      : static_cast<double>(phase.hits) /
                            static_cast<double>(total);
}

/** Run @p body and fill a PhaseResult with its deltas. */
template <typename Fn>
PhaseResult
runPhase(Machine &machine, const std::string &name, Fn &&body)
{
    PhaseResult phase;
    phase.name = name;
    std::uint64_t hits0 = machine.cache().stats().get(CacheStat::Hits);
    std::uint64_t misses0 = machine.cache().stats().get(CacheStat::Misses);
    Cycles cycles0 = machine.clock().now();

    auto t0 = std::chrono::steady_clock::now();
    body(phase);
    auto t1 = std::chrono::steady_clock::now();

    phase.wallSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    phase.hits = machine.cache().stats().get(CacheStat::Hits) - hits0;
    phase.misses =
        machine.cache().stats().get(CacheStat::Misses) - misses0;
    phase.cycles = machine.clock().now() - cycles0;
    return phase;
}

void
printPhase(const PhaseResult &phase)
{
    std::printf("%-10s %12llu accesses %9.2f ms  %8.1f ms/Macc  "
                "hit-rate %5.1f%%  %12llu cycles\n",
                phase.name.c_str(),
                static_cast<unsigned long long>(phase.accesses),
                phase.wallSeconds * 1e3, msPerMillion(phase),
                hitRate(phase) * 100.0,
                static_cast<unsigned long long>(phase.cycles));
}

void
appendPhaseJson(std::string &out, const PhaseResult &phase, bool last)
{
    char buffer[512];
    std::snprintf(
        buffer, sizeof(buffer),
        "    {\n"
        "      \"name\": \"%s\",\n"
        "      \"accesses\": %llu,\n"
        "      \"bytes\": %llu,\n"
        "      \"wall_seconds\": %.6f,\n"
        "      \"ms_per_million_accesses\": %.3f,\n"
        "      \"hits\": %llu,\n"
        "      \"misses\": %llu,\n"
        "      \"hit_rate\": %.6f,\n"
        "      \"simulated_cycles\": %llu\n"
        "    }%s\n",
        phase.name.c_str(),
        static_cast<unsigned long long>(phase.accesses),
        static_cast<unsigned long long>(phase.bytes),
        phase.wallSeconds, msPerMillion(phase),
        static_cast<unsigned long long>(phase.hits),
        static_cast<unsigned long long>(phase.misses), hitRate(phase),
        static_cast<unsigned long long>(phase.cycles), last ? "" : ",");
    out += buffer;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    std::string out_path = "BENCH_hotpath.json";
    std::uint64_t word_accesses = 4'000'000;
    double baseline_ms = 0.0;
    std::string baseline_note;
    std::string trace_path;

    const auto usage = [argv] {
        std::fprintf(stderr,
                     "usage: %s [--json] [--out FILE] [--accesses N]"
                     " [--baseline-ms X [--baseline-note S]]"
                     " [--trace FILE]\n",
                     argv[0]);
        return 1;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--accesses" && i + 1 < argc) {
            if (!parseCountInto(argv[++i], word_accesses))
                return usage();
        } else if (arg == "--baseline-ms" && i + 1 < argc) {
            std::optional<double> ms = parseReal(argv[++i]);
            if (!ms || *ms < 0.0)
                return usage();
            baseline_ms = *ms;
        } else if (arg == "--baseline-note" && i + 1 < argc) {
            baseline_note = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            return usage();
        }
    }

    setLogQuiet(true);

    MachineConfig config;
    config.memoryBytes = 64u << 20;
    // Tracing enabled measures the flight recorder's wall-clock cost on
    // the hot path; simulated cycles must be identical either way.
    std::optional<Trace> trace;
    if (!trace_path.empty()) {
        trace.emplace();
        config.trace = &*trace;
    }
    Machine machine(config);

    // Working sets: the default cache is 256 sets x 8 ways x 64 B = 128 KiB.
    constexpr std::size_t kHotBytes = 32 * 1024;  // fits: hit-dominated
    constexpr std::size_t kColdBytes = 512 * 1024; // 4x cache: miss-heavy
    constexpr std::size_t kBlockBytes = 64 * 1024;

    VirtAddr hot = machine.kernel().mapRegion(kHotBytes);
    VirtAddr cold = machine.kernel().mapRegion(kColdBytes);
    VirtAddr block_src = machine.kernel().mapRegion(kBlockBytes);
    VirtAddr block_dst = machine.kernel().mapRegion(kBlockBytes);

    std::vector<PhaseResult> phases;

    // -- word_hit: strided single-word loads/stores inside the hot set.
    phases.push_back(runPhase(machine, "word_hit", [&](PhaseResult &phase) {
        constexpr std::size_t kWords = kHotBytes / 8;
        std::uint64_t sum = 0;
        // Deterministic mixed pattern: 3 loads to 1 store, stride chosen
        // co-prime with the word count so every line is revisited.
        std::uint64_t index = 1;
        for (std::uint64_t i = 0; i < word_accesses; ++i) {
            index = (index + 2654435761ULL) % kWords;
            VirtAddr addr = hot + index * 8;
            if ((i & 3) == 3)
                machine.store<std::uint64_t>(addr, i);
            else
                sum += machine.load<std::uint64_t>(addr);
        }
        phase.accesses = word_accesses;
        phase.bytes = word_accesses * 8;
        if (sum == 0xdeadbeef) // defeat dead-code elimination
            std::printf("!\n");
    }));

    // -- word_miss: same shape over 4x the cache, so fills dominate.
    phases.push_back(runPhase(machine, "word_miss", [&](PhaseResult &phase) {
        constexpr std::size_t kLines = kColdBytes / kCacheLineSize;
        std::uint64_t accesses = word_accesses / 8;
        std::uint64_t sum = 0;
        std::uint64_t index = 1;
        for (std::uint64_t i = 0; i < accesses; ++i) {
            index = (index + 2654435761ULL) % kLines;
            VirtAddr addr = cold + index * kCacheLineSize;
            if ((i & 3) == 3)
                machine.store<std::uint64_t>(addr, i);
            else
                sum += machine.load<std::uint64_t>(addr);
        }
        phase.accesses = accesses;
        phase.bytes = accesses * 8;
        if (sum == 0xdeadbeef)
            std::printf("!\n");
    }));

    // -- block_copy: page-sized spans through read()/write(), the bulk
    //    path workloads and the allocator use.
    phases.push_back(runPhase(machine, "block_copy", [&](PhaseResult &phase) {
        std::vector<std::uint8_t> buffer(kPageSize);
        std::uint64_t rounds = word_accesses / 2000;
        std::uint64_t ops = 0;
        for (std::uint64_t r = 0; r < rounds; ++r) {
            std::size_t offset = (r % (kBlockBytes / kPageSize)) * kPageSize;
            machine.read(block_src + offset, buffer.data(), kPageSize);
            machine.write(block_dst + offset, buffer.data(), kPageSize);
            ops += 2;
        }
        phase.accesses = ops;
        phase.bytes = ops * kPageSize;
    }));

    std::printf("hot-path bench: %llu word accesses (working sets: "
                "%zu KiB hot, %zu KiB cold)\n\n",
                static_cast<unsigned long long>(word_accesses),
                kHotBytes / 1024, kColdBytes / 1024);
    PhaseResult total;
    total.name = "total";
    for (const PhaseResult &phase : phases) {
        printPhase(phase);
        total.accesses += phase.accesses;
        total.bytes += phase.bytes;
        total.wallSeconds += phase.wallSeconds;
        total.hits += phase.hits;
        total.misses += phase.misses;
        total.cycles += phase.cycles;
    }
    std::printf("\n");
    printPhase(total);

    double word_hit_ms = msPerMillion(phases[0]);
    if (baseline_ms > 0.0) {
        std::printf("\nword_hit vs baseline: %.1f ms/Macc -> %.1f ms/Macc "
                    "(%.2fx)\n",
                    baseline_ms, word_hit_ms, baseline_ms / word_hit_ms);
    }

    if (json) {
        std::string doc;
        doc += "{\n";
        doc += "  \"bench\": \"hotpath\",\n";
        char buffer[512];
        std::snprintf(buffer, sizeof(buffer),
                      "  \"word_accesses\": %llu,\n",
                      static_cast<unsigned long long>(word_accesses));
        doc += buffer;
        doc += "  \"phases\": [\n";
        for (std::size_t i = 0; i < phases.size(); ++i)
            appendPhaseJson(doc, phases[i], i + 1 == phases.size());
        doc += "  ],\n";
        std::snprintf(
            buffer, sizeof(buffer),
            "  \"total_accesses\": %llu,\n"
            "  \"total_wall_seconds\": %.6f,\n"
            "  \"simulated_cycles_total\": %llu",
            static_cast<unsigned long long>(total.accesses),
            total.wallSeconds,
            static_cast<unsigned long long>(total.cycles));
        doc += buffer;
        if (baseline_ms > 0.0) {
            std::snprintf(
                buffer, sizeof(buffer),
                ",\n  \"baseline\": {\n"
                "    \"word_hit_ms_per_million_accesses\": %.3f,\n"
                "    \"note\": \"%s\"\n"
                "  },\n"
                "  \"word_hit_speedup_vs_baseline\": %.3f",
                baseline_ms, baseline_note.c_str(),
                baseline_ms / word_hit_ms);
            doc += buffer;
        }
        doc += "\n}\n";

        std::FILE *file = std::fopen(out_path.c_str(), "w");
        if (!file) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 1;
        }
        std::fwrite(doc.data(), 1, doc.size(), file);
        std::fclose(file);
        std::printf("\nwrote %s\n", out_path.c_str());
    }

    if (trace) {
        std::ofstream trace_file(trace_path, std::ios::binary);
        if (!trace_file) {
            std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
            return 1;
        }
        writeTraceSection(trace_file, *trace, "hotpath");
        std::printf("\ntrace: %llu events emitted (%zu retained) -> %s\n",
                    static_cast<unsigned long long>(trace->emitted()),
                    trace->size(), trace_path.c_str());
    }
    return 0;
}
