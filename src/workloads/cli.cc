#include "workloads/cli.h"

#include <fstream>
#include <limits>
#include <memory>
#include <sstream>

#include "check/simcheck.h"
#include "common/parse.h"
#include "mem/bank.h"
#include "trace/trace.h"
#include "workloads/report_writer.h"

namespace safemem {

std::optional<ToolKind>
toolKindFromName(const std::string &name)
{
    for (ToolKind kind : {ToolKind::None, ToolKind::SafeMemML,
                          ToolKind::SafeMemMC, ToolKind::SafeMemBoth,
                          ToolKind::SafeMemSampled, ToolKind::PageProtBoth,
                          ToolKind::Purify}) {
        if (name == toolKindName(kind))
            return kind;
    }
    return std::nullopt;
}

std::string
cliUsage()
{
    std::ostringstream os;
    os << "usage: safemem_run <app|all> [options]\n"
       << "       safemem_run campaign [campaign options]\n"
       << "\n"
       << "apps:";
    for (const std::string &name : appNames())
        os << " " << name;
    os << "\n"
       << "('all' sweeps every app under the selected tool;\n"
       << " 'campaign' runs the ECC fault-injection campaign instead)\n"
       << "\noptions:\n"
       << "  --tool <name>     none | safemem-ml | safemem-mc | safemem |"
          " safemem-sampled |\n"
       << "                    pageprot | purify (default: safemem)\n"
       << "  --sample-rate <r> safemem-sampled: fraction of allocations\n"
       << "                    monitored, in (0, 1] (default: 1.0)\n"
       << "  --buggy           use bug-triggering inputs\n"
       << "  --requests <n>    work items to process (default: per app)\n"
       << "  --seed <n>        request-stream seed (default: 42)\n"
       << "  --workers <n>     parallel runs for sweeps/overhead pairs\n"
       << "                    (default: 1 = sequential, 0 = all cores)\n"
       << "  --procs <n>       consolidate n instances of the workload as\n"
       << "                    separate processes on one machine "
          "(default: 1)\n"
       << "  --banks <n>       page-interleaved memory banks, each\n"
       << "                    independently lockable (1-"
       << kMaxMemoryBanks << ", default: 1)\n"
       << "  --overhead        also run uninstrumented and report the "
          "overhead\n"
       << "  --stats[=prefix]  dump run counters (optionally filtered)\n"
       << "  --simcheck        enable the SimCheck invariant auditor\n"
       << "  --trace <file>    record a flight-recorder trace per run;\n"
       << "                    decode with tools/trace_dump\n"
       << "  --codec <spec>    ECC codec the machine runs: hsiao (default)"
          " |\n"
       << "                    hamming64/8 | hsiao:<d>[/<k>]\n"
       << "  --geometry <g>    protection geometry: word (default) |\n"
       << "                    block:<512|1024|4096>[/parity|/crc32]\n"
       << "\ncampaign options:\n"
       << "  --codec <spec>    codec to sweep (repeatable; default: the\n"
       << "                    full zoo: hsiao, hamming64/8, hsiao:64/8)\n"
       << "  --samples <n>     trials per sampled cell (default: 20000)\n"
       << "  --seed <n>        campaign seed (default: 42)\n"
       << "  --workers <n>     worker threads, results independent of n\n"
       << "                    (default: 1, 0 = all cores)\n"
       << "  --out <file>      also write the campaign JSON document\n";
    return os.str();
}

CliParse
parseCliArguments(const std::vector<std::string> &args)
{
    CliParse result;
    if (args.empty()) {
        result.message = cliUsage();
        return result;
    }

    CliOptions options;
    options.params.seed = 42;
    options.params.requests = 0; // resolved after the app is known

    std::size_t i = 0;
    options.app = args[i++];
    options.allApps = options.app == "all";
    options.campaign = options.app == "campaign";
    if (!options.allApps && !options.campaign && !makeApp(options.app)) {
        result.message = "unknown application '" + options.app + "'\n\n" +
                         cliUsage();
        return result;
    }

    auto need_value = [&](const std::string &flag) -> const std::string * {
        if (i >= args.size()) {
            result.message = flag + " needs a value\n\n" + cliUsage();
            return nullptr;
        }
        return &args[i++];
    };
    // A flag's value as a whole unsigned count no larger than @p max;
    // on anything else, the message is set and nothing is returned.
    auto need_count = [&](const std::string &flag, std::uint64_t max)
        -> std::optional<std::uint64_t> {
        const std::string *value = need_value(flag);
        if (!value)
            return std::nullopt;
        std::optional<std::uint64_t> count = parseCount(*value, max);
        if (!count)
            result.message = flag + " needs a whole number up to " +
                             std::to_string(max) + ", not '" + *value +
                             "'\n\n" + cliUsage();
        return count;
    };
    constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
    constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

    if (options.campaign) {
        while (i < args.size()) {
            const std::string &arg = args[i++];
            if (arg != "--codec" && arg != "--samples" &&
                arg != "--seed" && arg != "--workers" && arg != "--out") {
                result.message =
                    "unknown campaign option '" + arg + "'\n\n" +
                    cliUsage();
                return result;
            }
            if (arg == "--samples" || arg == "--seed" ||
                arg == "--workers") {
                auto count =
                    need_count(arg, arg == "--workers" ? kMaxU32 : kMaxU64);
                if (!count)
                    return result;
                if (arg == "--samples")
                    options.campaignConfig.samples = *count;
                else if (arg == "--seed")
                    options.campaignConfig.seed = *count;
                else
                    options.campaignConfig.workers =
                        static_cast<unsigned>(*count);
                continue;
            }
            const std::string *value = need_value(arg);
            if (!value)
                return result;
            if (arg == "--codec") {
                auto spec = parseCodecSpec(*value);
                if (!spec) {
                    result.message = "unknown codec '" + *value + "'\n\n" +
                                     cliUsage();
                    return result;
                }
                options.campaignConfig.codecs.push_back(*spec);
            } else {
                options.campaignOut = *value;
            }
        }
        result.options = options;
        return result;
    }

    while (i < args.size()) {
        const std::string &arg = args[i++];
        if (arg == "--buggy") {
            options.params.buggy = true;
        } else if (arg == "--overhead") {
            options.compareBaseline = true;
        } else if (arg == "--simcheck") {
            options.simCheck = true;
        } else if (arg == "--stats") {
            options.dumpStats = true;
        } else if (arg.rfind("--stats=", 0) == 0) {
            options.dumpStats = true;
            options.statsPrefix = arg.substr(8);
        } else if (arg == "--tool") {
            const std::string *value = need_value("--tool");
            if (!value)
                return result;
            auto kind = toolKindFromName(*value);
            if (!kind) {
                result.message =
                    "unknown tool '" + *value + "'\n\n" + cliUsage();
                return result;
            }
            options.tool = *kind;
        } else if (arg == "--requests") {
            auto count = need_count(arg, kMaxU64);
            if (!count)
                return result;
            options.params.requests = *count;
        } else if (arg == "--seed") {
            auto count = need_count(arg, kMaxU64);
            if (!count)
                return result;
            options.params.seed = *count;
        } else if (arg == "--sample-rate") {
            const std::string *value = need_value("--sample-rate");
            if (!value)
                return result;
            std::optional<double> rate = parseReal(*value);
            if (!rate || *rate <= 0.0 || *rate > 1.0) {
                result.message =
                    "--sample-rate needs a value in (0, 1]\n\n" +
                    cliUsage();
                return result;
            }
            options.params.sampleRate = *rate;
        } else if (arg == "--trace") {
            const std::string *value = need_value("--trace");
            if (!value)
                return result;
            options.traceFile = *value;
        } else if (arg == "--codec") {
            const std::string *value = need_value("--codec");
            if (!value)
                return result;
            auto spec = parseCodecSpec(*value);
            if (!spec) {
                result.message =
                    "unknown codec '" + *value + "'\n\n" + cliUsage();
                return result;
            }
            options.params.codec = *spec;
        } else if (arg == "--geometry") {
            const std::string *value = need_value("--geometry");
            if (!value)
                return result;
            auto geometry = parseGeometry(*value);
            if (!geometry) {
                result.message =
                    "unknown geometry '" + *value + "'\n\n" + cliUsage();
                return result;
            }
            options.params.geometry = *geometry;
        } else if (arg == "--workers") {
            auto count = need_count(arg, kMaxU32);
            if (!count)
                return result;
            options.workers = static_cast<unsigned>(*count);
        } else if (arg == "--procs") {
            auto count = need_count(arg, kMaxU32);
            if (!count)
                return result;
            options.procs = static_cast<std::uint32_t>(*count);
            if (options.procs < 1) {
                result.message =
                    "--procs needs at least 1\n\n" + cliUsage();
                return result;
            }
        } else if (arg == "--banks") {
            auto count = need_count(arg, kMaxU32);
            if (!count)
                return result;
            options.params.banks = static_cast<std::uint32_t>(*count);
            if (options.params.banks < 1 ||
                options.params.banks > kMaxMemoryBanks) {
                result.message = "--banks needs 1-" +
                                 std::to_string(kMaxMemoryBanks) + "\n\n" +
                                 cliUsage();
                return result;
            }
        } else {
            result.message =
                "unknown option '" + arg + "'\n\n" + cliUsage();
            return result;
        }
    }

    // "all" keeps requests at 0: each swept app resolves its own
    // default when the matrix is assembled in runCli().
    if (options.params.requests == 0 && !options.allApps)
        options.params.requests = defaultRequests(options.app);
    result.options = options;
    return result;
}

namespace {

/** Assemble the sweep/overhead matrix one CLI invocation describes. */
std::vector<RunSpec>
cliSpecs(const CliOptions &options)
{
    std::vector<RunSpec> specs;
    const bool baseline =
        options.compareBaseline && options.tool != ToolKind::None;
    std::vector<std::string> apps;
    if (options.allApps)
        apps = appNames();
    else
        apps.push_back(options.app);

    for (const std::string &app : apps) {
        RunParams params = options.params;
        if (params.requests == 0)
            params.requests = defaultRequests(app);
        specs.push_back(RunSpec{app, options.tool, params, options.procs});
        if (baseline)
            specs.push_back(
                RunSpec{app, ToolKind::None, params, options.procs});
    }
    return specs;
}

/** @return the trace-section label of @p spec, e.g. "gzip/safemem+buggy". */
std::string
traceLabel(const RunSpec &spec)
{
    std::string label = spec.app;
    label += "/";
    label += toolKindName(spec.tool);
    if (spec.params.buggy)
        label += "+buggy";
    if (spec.procs > 1)
        label.append("+procs").append(std::to_string(spec.procs));
    if (spec.params.banks > 1)
        label.append("+banks").append(std::to_string(spec.params.banks));
    if (!spec.params.geometry.isWord())
        label.append("+").append(geometryLabel(spec.params.geometry));
    return label;
}

} // namespace

CliReport
runCli(const CliOptions &options)
{
    if (options.campaign) {
        CampaignResult campaign = runCampaign(options.campaignConfig);
        CliReport report{formatCampaignReport(campaign)};
        if (!options.campaignOut.empty()) {
            std::ofstream file(options.campaignOut);
            if (!file) {
                report.text += "cannot write campaign file '" +
                               options.campaignOut + "'\n";
                report.ok = false;
            } else {
                file << campaignJson(campaign);
                report.text +=
                    "campaign json -> " + options.campaignOut + "\n";
            }
        }
        return report;
    }

    if (options.simCheck)
        SimCheck::instance().setEnabled(true);

    const bool baseline =
        options.compareBaseline && options.tool != ToolKind::None;
    const std::size_t per_app = baseline ? 2 : 1;
    std::vector<RunSpec> specs = cliSpecs(options);

    // One independent flight recorder per matrix cell: parallel runs
    // never share a ring, and the file keeps one section per run.
    std::vector<std::unique_ptr<Trace>> traces;
    if (!options.traceFile.empty()) {
        traces.reserve(specs.size());
        for (RunSpec &spec : specs) {
            traces.push_back(std::make_unique<Trace>());
            spec.params.trace = traces.back().get();
        }
    }

    std::vector<MatrixCell> cells = runMatrix(specs, options.workers);

    std::ostringstream os;
    bool ok = true;
    for (std::size_t i = 0; i < cells.size(); i += per_app) {
        const MatrixCell &cell = cells[i];
        if (!cell.ok()) {
            os << cell.spec.app << ": run failed: " << cell.error << "\n";
            ok = false;
            continue;
        }
        os << formatRunSummary(cell.result);
        if (baseline) {
            const MatrixCell &base = cells[i + 1];
            if (base.ok()) {
                os << "  " << formatOverhead(cell.result, base.result)
                   << "\n";
            } else {
                os << "  baseline run failed: " << base.error << "\n";
                ok = false;
            }
        }
        if (options.dumpStats)
            os << "\ncounters:\n"
               << formatStats(cell.result, options.statsPrefix);
    }

    if (!options.traceFile.empty()) {
        std::ofstream file(options.traceFile, std::ios::binary);
        if (!file) {
            os << "cannot write trace file '" << options.traceFile
               << "'\n";
            ok = false;
        } else {
            for (std::size_t i = 0; i < specs.size(); ++i)
                writeTraceSection(file, *traces[i],
                                  traceLabel(specs[i]));
            os << "trace: " << specs.size() << " run section"
               << (specs.size() == 1 ? "" : "s") << " -> "
               << options.traceFile << "\n";
        }
    }
    return CliReport{os.str(), ok};
}

} // namespace safemem
