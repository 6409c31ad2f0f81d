/**
 * @file
 * The benchmark driver. One invocation measures one workload for a
 * fixed time in a closed loop with one caller (each run starts when the
 * previous one has finished), checks every run's output, writes a
 * result file, and prints as its last stdout line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench_driver --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--out <dir>] [--git-sha <sha>]
 *                    [--source-sha <sha>]
 *
 * --trace 0 times the library's run call and reports the end-to-end
 * metrics. --trace 1 alternates a library run with a traced replica of
 * the same stack and reports the per-layer metrics, the replica's
 * overhead, and writes the first traced run's spans as a Chrome trace.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <unordered_map>
#include <string>
#include <thread>
#include <vector>

#include "assembly.h"
#include "spans.h"

using namespace perfbench;

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string outDir = ".bench_out";
    std::string gitSha = "unknown";
    std::string sourceSha = "unknown";
};

std::optional<Options>
parseOptions(int argc, char **argv)
{
    Options options;
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return std::nullopt;
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
                have_seed = true;
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
                have_seconds = options.seconds > 0;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    return std::nullopt;
                options.trace = value == "1";
            } else if (flag == "--out") {
                options.outDir = value;
            } else if (flag == "--git-sha") {
                options.gitSha = value;
            } else if (flag == "--source-sha") {
                options.sourceSha = value;
            } else {
                return std::nullopt;
            }
        } catch (const std::exception &) {
            return std::nullopt;
        }
    }
    if (!have_workload || !have_seed || !have_seconds)
        return std::nullopt;
    return options;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/** Nearest-rank percentile @p q (0..1] of @p values, in the values' unit. */
double
percentile(std::vector<std::int64_t> values, double q)
{
    if (values.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    std::nth_element(values.begin(), values.begin() + (rank - 1),
                     values.end());
    return static_cast<double>(values[rank - 1]);
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

/** Counts the runs of one invocation and checks each one's output. */
struct Checker
{
    explicit Checker(const Workload &w) : workload(w) {}

    const Workload &workload;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::optional<Fingerprint> reference;

    void
    fail(const std::string &why)
    {
        ++failed;
        if (errors.size() < 8)
            errors.push_back(why);
        std::fprintf(stderr, "perfbench: run failed: %s\n", why.c_str());
    }

    /** Check one run's fingerprint: correct for the workload, and equal
     *  to every earlier run's. @return true when it passes. */
    bool
    check(const Fingerprint &fp, const char *what)
    {
        std::string why = checkRun(workload, fp);
        if (why.empty() && reference && fp != *reference) {
            for (const auto &[key, value] : fp) {
                auto it = reference->find(key);
                if (it == reference->end() || it->second != value) {
                    why = key + " = " + std::to_string(value) +
                          ", earlier runs gave " +
                          (it == reference->end() ? std::string("nothing")
                                                  : std::to_string(it->second));
                    break;
                }
            }
            why = "fingerprint differs from the first run: " + why;
        }
        if (!why.empty()) {
            fail(std::string(what) + ": " + why);
            return false;
        }
        if (!reference)
            reference = fp;
        return true;
    }
};

/** Set-ups timed per library run: set-up time varies more from one
 *  sample to the next than run time, so it gets more samples. */
constexpr int kSetupsPerRun = 2;

/** The host probe's times on a quiet host: the speed wall_s and
 *  setup_s are scaled to (about the probe's fastest times on the 4-core
 *  host the benchmark was defined on). */
constexpr double kProbeReferenceSeconds = 0.19;
constexpr double kZeroFillReferenceSeconds = 0.035;

/** Spans written to the Chrome trace (about 100 bytes each). */
constexpr std::size_t kMaxTraceEvents = 250000;

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0;
};

/** Unit of every per-layer metric, in report order. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"os.machine_boot_s", "s"},
    {"os.machine_teardown_s", "s"},
    {"os.process_boot_s", "s"},
    {"safemem.stack_boot_s", "s"},
    {"tool.calls", "count"},
    {"tool.busy_s", "s"},
    {"tool.self_s", "s"},
    {"tool.alloc_ns.p50", "ns"},
    {"tool.alloc_ns.p99", "ns"},
    {"tool.free_ns.p50", "ns"},
    {"tool.free_ns.p99", "ns"},
    {"tool.finish_s", "s"},
    {"alloc.allocs", "count"},
    {"alloc.frees", "count"},
    {"watch.watch_calls", "count"},
    {"watch.unwatch_calls", "count"},
    {"watch.query_calls", "count"},
    {"watch.busy_s", "s"},
    {"watch.watch_ns.p50", "ns"},
    {"watch.watch_ns.p99", "ns"},
    {"watch.unwatch_ns.p50", "ns"},
    {"watch.unwatch_ns.p99", "ns"},
    {"watch.fault_calls", "count"},
    {"watch.fault_busy_s", "s"},
    {"watch.fire_ratio", "fraction"},
    {"kernel.lines_watched", "count"},
    {"access.self_s", "s"},
    {"access.ns_per_access", "ns"},
    {"cache.hits", "count"},
    {"cache.misses", "count"},
    {"cache.hit_ratio", "fraction"},
    {"cache.flushes", "count"},
    {"cache.writebacks", "count"},
    {"tlb.misses", "count"},
    {"tlb.hit_ratio", "fraction"},
    {"controller.line_fills", "count"},
    {"controller.line_evictions", "count"},
    {"controller.bus_locks", "count"},
    {"controller.interrupts_raised", "count"},
    {"geometry.edc_checks_passed", "count"},
    {"geometry.edc_checks_failed", "count"},
    {"geometry.partial_write_rmws", "count"},
    {"geometry.open_codeword_ratio", "fraction"},
    {"sched.context_switches", "count"},
    {"sched.host_us_per_switch", "us"},
    {"sim.total_cycles", "count"},
    {"sim.host_ns_per_kcycle", "ns"},
    {"trace.overhead_frac", "fraction"},
};

/** The per-layer metrics of one traced run (all but the overhead). */
std::map<std::string, double>
layerMetrics(const RunProfile &p, const Fingerprint &fp, std::size_t procs)
{
    auto count = [&fp](const char *key) {
        return static_cast<double>(fp.at(key));
    };
    auto seconds = [](std::int64_t ns) { return static_cast<double>(ns) / 1e9; };
    auto calls = [&p](SpanKind kind) {
        return static_cast<double>(p.callsOf(kind));
    };
    double nprocs = static_cast<double>(procs);
    double accesses = count("cache.hits") + count("cache.misses");
    double block_writebacks =
        count("geometry.open_codeword_hits") +
        count("geometry.partial_write_rmws");
    double access_self = seconds(p.selfOf(SpanKind::Proc));

    std::map<std::string, double> m;
    m["os.machine_boot_s"] = seconds(p.activeOf(SpanKind::MachineBoot));
    m["os.machine_teardown_s"] =
        seconds(p.activeOf(SpanKind::MachineTeardown));
    m["os.process_boot_s"] =
        seconds(p.activeOf(SpanKind::ProcessBoot)) / nprocs;
    m["safemem.stack_boot_s"] =
        seconds(p.activeOf(SpanKind::StackBoot)) / nprocs;
    m["tool.calls"] = calls(SpanKind::ToolAlloc) + calls(SpanKind::ToolCalloc) +
                      calls(SpanKind::ToolRealloc) + calls(SpanKind::ToolFree);
    m["tool.busy_s"] = seconds(p.layer(Layer::Tool).busyNs);
    m["tool.self_s"] = seconds(p.layer(Layer::Tool).selfNs);
    m["tool.alloc_ns.p50"] = percentile(p.allocNs, 0.50);
    m["tool.alloc_ns.p99"] = percentile(p.allocNs, 0.99);
    m["tool.free_ns.p50"] = percentile(p.freeNs, 0.50);
    m["tool.free_ns.p99"] = percentile(p.freeNs, 0.99);
    m["tool.finish_s"] = seconds(p.activeOf(SpanKind::ToolFinish));
    m["alloc.allocs"] = count("alloc.allocs");
    m["alloc.frees"] = count("alloc.frees");
    m["watch.watch_calls"] = calls(SpanKind::Watch);
    m["watch.unwatch_calls"] = calls(SpanKind::Unwatch);
    m["watch.query_calls"] = calls(SpanKind::IsWatched);
    m["watch.busy_s"] = seconds(p.layer(Layer::Watch).busyNs);
    m["watch.watch_ns.p50"] = percentile(p.watchNs, 0.50);
    m["watch.watch_ns.p99"] = percentile(p.watchNs, 0.99);
    m["watch.unwatch_ns.p50"] = percentile(p.unwatchNs, 0.50);
    m["watch.unwatch_ns.p99"] = percentile(p.unwatchNs, 0.99);
    m["watch.fault_calls"] = calls(SpanKind::Fault);
    m["watch.fault_busy_s"] = seconds(p.layer(Layer::Fault).busyNs);
    m["watch.fire_ratio"] = ratio(calls(SpanKind::Fault), calls(SpanKind::Watch));
    m["kernel.lines_watched"] = count("kernel.lines_watched");
    m["access.self_s"] = access_self;
    m["access.ns_per_access"] = ratio(access_self * 1e9, accesses);
    m["cache.hits"] = count("cache.hits");
    m["cache.misses"] = count("cache.misses");
    m["cache.hit_ratio"] = ratio(count("cache.hits"), accesses);
    m["cache.flushes"] = count("cache.flushes");
    m["cache.writebacks"] = count("cache.writebacks");
    m["tlb.misses"] = count("tlb.misses");
    m["tlb.hit_ratio"] =
        ratio(count("tlb.hits"), count("tlb.hits") + count("tlb.misses"));
    m["controller.line_fills"] = count("controller.line_fills");
    m["controller.line_evictions"] = count("controller.line_evictions");
    m["controller.bus_locks"] = count("controller.bus_locks");
    m["controller.interrupts_raised"] = count("controller.interrupts_raised");
    m["geometry.edc_checks_passed"] = count("geometry.edc_checks_passed");
    m["geometry.edc_checks_failed"] = count("geometry.edc_checks_failed");
    m["geometry.partial_write_rmws"] = count("geometry.partial_write_rmws");
    m["geometry.open_codeword_ratio"] =
        ratio(count("geometry.open_codeword_hits"), block_writebacks);
    m["sched.context_switches"] = count("sched.context_switches");
    m["sched.host_us_per_switch"] =
        ratio(static_cast<double>(p.activeOf(SpanKind::SchedHandoff)) / 1e3,
              count("sched.context_switches"));
    m["sim.total_cycles"] = count("sim.total_cycles");
    m["sim.host_ns_per_kcycle"] =
        ratio(static_cast<double>(p.runWallNs),
              count("sim.total_cycles") / 1e3);

    // Self-time table rows (printed, not reported as metrics).
    for (std::size_t l = 0; l < kLayers; ++l) {
        const LayerTotals &t = p.layers[l];
        std::string prefix = std::string("layer.") +
                             layerName(static_cast<Layer>(l));
        m[prefix + ".spans"] = static_cast<double>(t.spans);
        m[prefix + ".busy_s"] = seconds(t.busyNs);
        m[prefix + ".self_s"] = seconds(t.selfNs);
    }
    return m;
}

/** Span counts per kind: like simulated counters, they must repeat. */
Fingerprint
spanCounts(const RunProfile &profile)
{
    Fingerprint counts;
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
        auto kind = static_cast<SpanKind>(k);
        if (kind != SpanKind::SchedWait)
            counts[std::string("spans.") + spanName(kind)] = profile.calls[k];
    }
    return counts;
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
elapsedSeconds(std::int64_t since)
{
    return static_cast<double>(nowNs() - since) / 1e9;
}

struct Outcome
{
    std::vector<Metric> metrics;
    /** Extra lines for the report and fields for the result file. */
    std::vector<std::string> notes;
    std::vector<std::pair<std::string, std::vector<double>>> samples;
    std::optional<SpanRecorder> keptTrace;
};

volatile std::uint64_t probeSink = 0;

/** Host times of one probe (see hostProbe). */
struct ProbeTimes
{
    double zeroFill = 0; ///< the zero-fill step alone
    double total = 0;    ///< all the steps
};

/**
 * Time fixed pieces of host work of the kinds the simulator does:
 * zero-fill 64 MiB (as a Machine's DRAM lanes at boot), random
 * read-modify-writes over it (cache-missing accesses), and churn of
 * hash and ordered maps (the watch manager's and kernel's
 * bookkeeping). When other tenants slow the host down, the probe slows
 * down with the simulator, and scaling by it takes most of that drift
 * out of wall_s and setup_s.
 */
ProbeTimes
hostProbe()
{
    ProbeTimes times;
    std::int64_t t0 = nowNs();
    // Freed before the next Machine boots, so it adds nothing to the
    // peak resident set.
    std::vector<std::uint64_t> memory(std::size_t{8} << 20);
    times.zeroFill = elapsedSeconds(t0);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::uint64_t sum = 0;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (int i = 0; i < 2'000'000; ++i) {
        std::uint64_t &slot = memory[next() & (memory.size() - 1)];
        slot += x;
        sum += slot;
    }
    std::unordered_map<std::uint64_t, std::uint64_t> hashed;
    std::map<std::uint64_t, std::uint64_t> ordered;
    for (int i = 0; i < 200'000; ++i) {
        hashed[next() >> 24] = x;
        if (hashed.size() > 50'000)
            hashed.erase(hashed.begin());
        if (i % 2 == 0) {
            ordered[x >> 24] = x;
            if (ordered.size() > 50'000)
                ordered.erase(ordered.begin());
        }
    }
    // A larger working set with an allocation per entry, as the watch
    // manager keeps a saved copy of every watched region's data.
    std::unordered_map<std::uint64_t, std::uint64_t> index;
    std::map<std::uint64_t, std::vector<std::uint64_t>> regions;
    for (int i = 0; i < 100'000; ++i) {
        std::uint64_t key = next() >> 20;
        index[key] = x;
        regions[key].assign(1 + (x & 7), x);
        if (i >= 50'000) {
            auto oldest = regions.begin();
            index.erase(oldest->first);
            regions.erase(oldest);
        }
    }
    probeSink = sum + hashed.size() + ordered.size() + index.size() +
                regions.size();
    times.total = elapsedSeconds(t0);
    hashed.clear();
    ordered.clear();
    index.clear();
    regions.clear();
    // Hand the maps' freed nodes back to the OS, as above.
    malloc_trim(0);
    return times;
}

Outcome
measureEndToEnd(const Workload &workload, const Options &options,
                Checker &checker)
{
    // Raw host seconds, and the same scaled to the reference host speed:
    // a set-up by the zero-fill probe just before it, a run by the mean
    // of the whole probes just before and just after it.
    std::vector<double> raw_setup, raw_wall, setup, wall, probes;
    std::int64_t start = nowNs();
    ProbeTimes probe = hostProbe();
    probes.push_back(probe.total);
    do {
        ++checker.attempted;
        try {
            for (int i = 0; i < kSetupsPerRun; ++i) {
                std::int64_t t0 = nowNs();
                Assembly assembly(workload, nullptr);
                raw_setup.push_back(elapsedSeconds(t0));
                setup.push_back(raw_setup.back() * kZeroFillReferenceSeconds /
                                probe.zeroFill);
            }
            std::int64_t t0 = nowNs();
            safemem::RunResult result = runLibrary(workload);
            raw_wall.push_back(elapsedSeconds(t0));
            ProbeTimes after = hostProbe();
            probes.push_back(after.total);
            wall.push_back(raw_wall.back() * kProbeReferenceSeconds /
                           ((probe.total + after.total) / 2));
            probe = after;
            checker.check(fingerprintOf(result), "library run");
        } catch (const std::exception &err) {
            checker.fail(err.what());
            probe = hostProbe();
        }
    } while (elapsedSeconds(start) < options.seconds);

    Outcome out;
    out.metrics = {
        {"wall_s", "s", median(wall)},
        {"setup_s", "s", median(setup)},
        {"peak_rss_mib", "MiB", peakRssMib()},
    };
    char line[160];
    std::snprintf(line, sizeof line,
                  "unscaled host seconds: wall %.6f, setup %.6f; host probe "
                  "%.6f s (reference %.3f s)",
                  median(raw_wall), median(raw_setup), median(probes),
                  kProbeReferenceSeconds);
    out.notes.push_back(line);
    out.samples = {{"wall_s", wall},         {"setup_s", setup},
                   {"raw_wall_s", raw_wall}, {"raw_setup_s", raw_setup},
                   {"probe_s", probes}};
    return out;
}

Outcome
measureLayers(const Workload &workload, const Options &options,
              Checker &checker)
{
    std::vector<double> untraced, traced;
    std::map<std::string, std::vector<double>> per_sample;
    std::optional<Fingerprint> counts;
    Outcome out;
    std::uint32_t run_id = 0;
    std::int64_t start = nowNs();
    do {
        Fingerprint library;
        ++checker.attempted;
        try {
            std::int64_t t0 = nowNs();
            safemem::RunResult result = runLibrary(workload);
            untraced.push_back(elapsedSeconds(t0));
            library = fingerprintOf(result);
            if (!checker.check(library, "library run"))
                continue;
        } catch (const std::exception &err) {
            checker.fail(err.what());
            continue;
        }

        ++checker.attempted;
        try {
            SpanRecorder recorder(++run_id);
            Fingerprint replica;
            std::int64_t t0 = nowNs();
            {
                TrackBinding binding(&recorder.addTrack("main"));
                Assembly assembly(workload, &recorder);
                assembly.run();
                replica = assembly.fingerprint();
                assembly.teardown();
            }
            traced.push_back(elapsedSeconds(t0));

            // Stack equivalence: the decorated replica must simulate
            // exactly what the library call simulated.
            if (replica != library) {
                checker.fail("traced stack fingerprint differs from the "
                              "library run");
                continue;
            }
            RunProfile profile = profileRun(recorder);
            if (!profile.nestingError.empty()) {
                checker.fail("span nesting: " + profile.nestingError);
                continue;
            }
            Fingerprint span_counts = spanCounts(profile);
            if (counts && span_counts != *counts) {
                checker.fail("span counts differ from the first traced run");
                continue;
            }
            counts = span_counts;
            for (const auto &[name, value] :
                 layerMetrics(profile, replica, workload.spec.procs))
                per_sample[name].push_back(value);
            if (!out.keptTrace)
                out.keptTrace.emplace(std::move(recorder));
        } catch (const std::exception &err) {
            checker.fail(err.what());
        }
    } while (elapsedSeconds(start) < options.seconds);

    double traced_wall = median(traced);
    double untraced_wall = median(untraced);
    std::map<std::string, double> medians;
    for (const auto &[name, values] : per_sample)
        medians[name] = median(values);
    medians["trace.overhead_frac"] = ratio(traced_wall, untraced_wall) - 1.0;
    for (const auto &[name, unit] : kLayerMetrics)
        out.metrics.push_back({name, unit, medians[name]});

    // Per-layer self-time table, from the same spans.
    char line[160];
    std::snprintf(line, sizeof line, "%-8s %10s %12s %12s %8s", "layer",
                  "spans", "busy_s", "self_s", "self%");
    out.notes.push_back(line);
    double total = traced_wall > 0 ? traced_wall : 1.0;
    for (std::size_t l = 0; l < kLayers; ++l) {
        std::string prefix =
            std::string("layer.") + layerName(static_cast<Layer>(l));
        std::snprintf(line, sizeof line, "%-8s %10.0f %12.6f %12.6f %7.1f%%",
                      layerName(static_cast<Layer>(l)),
                      medians[prefix + ".spans"], medians[prefix + ".busy_s"],
                      medians[prefix + ".self_s"],
                      100.0 * medians[prefix + ".self_s"] / total);
        out.notes.push_back(line);
    }
    std::snprintf(line, sizeof line,
                  "traced run %.6f s (median of %zu), untraced %.6f s "
                  "(median of %zu)",
                  traced_wall, traced.size(), untraced_wall, untraced.size());
    out.notes.push_back(line);
    out.samples = {{"traced_wall_s", traced}, {"untraced_wall_s", untraced}};
    return out;
}

std::string
hostJson(const Options &options)
{
    return std::string("{\"nproc\": ") +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"compiler\": " + jsonString(PERFBENCH_COMPILER) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"git_sha\": " + jsonString(options.gitSha) +
           ", \"source_sha256\": " + jsonString(options.sourceSha) + "}";
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (const Metric &m : metrics) {
        if (out.size() > 1)
            out += ", ";
        out += jsonString(m.name) + ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    std::optional<Options> parsed = parseOptions(argc, argv);
    if (!parsed) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--out <dir>] "
                     "[--git-sha <sha>] [--source-sha <sha>]\n");
        return 2;
    }
    const Options &options = *parsed;
    std::optional<Workload> workload =
        makeWorkload(options.workload, options.seed);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'; known:",
                     options.workload.c_str());
        for (const std::string &name : workloadNames())
            std::fprintf(stderr, " %s", name.c_str());
        std::fprintf(stderr, "\n");
        return 2;
    }

    Checker checker(*workload);
    Outcome out = options.trace ? measureLayers(*workload, options, checker)
                                : measureEndToEnd(*workload, options, checker);
    double error_rate = ratio(static_cast<double>(checker.failed),
                              static_cast<double>(checker.attempted));
    bool correct = checker.failed == 0;

    std::string base = options.outDir + "/" + workload->name +
                       (options.trace ? ".trace1" : ".trace0");
    std::string trace_path;
    if (out.keptTrace) {
        trace_path = base + ".chrome.json";
        if (!writeChromeTrace(*out.keptTrace, workload->name, kMaxTraceEvents,
                              trace_path))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         trace_path.c_str());
    }

    // The result file: everything below plus the samples and the host.
    std::string result_path = base + ".result.json";
    if (std::FILE *file = std::fopen(result_path.c_str(), "w")) {
        std::string samples = "{";
        for (const auto &[name, values] : out.samples) {
            if (samples.size() > 1)
                samples += ", ";
            samples += jsonString(name) + ": [";
            for (std::size_t i = 0; i < values.size(); ++i)
                samples += (i ? ", " : "") + jsonNumber(values[i]);
            samples += "]";
        }
        samples += "}";
        std::string fingerprint = "{";
        if (checker.reference) {
            for (const auto &[key, value] : *checker.reference) {
                if (fingerprint.size() > 1)
                    fingerprint += ", ";
                fingerprint += jsonString(key) + ": " + std::to_string(value);
            }
        }
        fingerprint += "}";
        std::string errors = "[";
        for (const std::string &e : checker.errors)
            errors += (errors.size() > 1 ? ", " : "") + jsonString(e);
        errors += "]";
        std::fprintf(
            file,
            "{\"workload\": %s, \"run\": %s, \"seed\": %llu, "
            "\"seconds\": %s, \"trace\": %d, \"load\": %s, "
            "\"cold_start\": %s, \"host\": %s, \"attempted\": %llu, "
            "\"failed\": %llu, \"error_rate\": %s, \"errors\": %s, "
            "\"metrics\": %s, \"samples\": %s, \"fingerprint\": %s, "
            "\"chrome_trace\": %s}\n",
            jsonString(workload->name).c_str(),
            jsonString(workload->flags).c_str(),
            static_cast<unsigned long long>(options.seed),
            jsonNumber(options.seconds).c_str(), options.trace ? 1 : 0,
            jsonString("closed loop, one caller, one run at a time").c_str(),
            jsonString("simulated caches, TLBs and DRAM start empty in "
                       "every run")
                .c_str(),
            hostJson(options).c_str(),
            static_cast<unsigned long long>(checker.attempted),
            static_cast<unsigned long long>(checker.failed),
            jsonNumber(error_rate).c_str(), errors.c_str(),
            metricsJson(out.metrics).c_str(), samples.c_str(),
            fingerprint.c_str(), jsonString(trace_path).c_str());
        std::fclose(file);
    } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     result_path.c_str());
    }

    std::printf("perfbench %s: %s (tracing %s; closed loop, one caller; "
                "simulated caches start empty every run)\n",
                workload->name.c_str(), workload->flags.c_str(),
                options.trace ? "on" : "off");
    std::printf("host: %s\n", hostJson(options).c_str());
    for (const Metric &m : out.metrics)
        std::printf("  %-30s %18.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-30s %18.9g fraction (%llu failed of %llu runs)\n",
                "error_rate", error_rate,
                static_cast<unsigned long long>(checker.failed),
                static_cast<unsigned long long>(checker.attempted));
    for (const auto &[name, values] : out.samples)
        std::printf("  %s: %zu samples\n", name.c_str(), values.size());
    for (const std::string &note : out.notes)
        std::printf("  %s\n", note.c_str());
    std::printf("result file: %s\n", result_path.c_str());
    if (!trace_path.empty())
        std::printf("chrome trace: %s\n", trace_path.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted),
                static_cast<unsigned long long>(checker.failed),
                metricsJson(out.metrics).c_str());
    return 0;
}
