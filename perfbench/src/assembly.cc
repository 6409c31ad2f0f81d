#include "assembly.h"

#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "alloc/heap_allocator.h"
#include "common/logging.h"
#include "safemem/safemem.h"
#include "safemem/sampled.h"
#include "safemem/watch_manager.h"
#include "spans.h"
#include "timed_layers.h"
#include "workloads/app.h"
#include "workloads/env.h"
#include "workloads/null_tool.h"
#include "workloads/sites.h"

namespace perfbench {

using namespace safemem;

namespace {

const Log &
quietLog()
{
    static const Log log = Log::quiet();
    return log;
}

/** Component counters in the fingerprint, as "<component>.<counter>". */
constexpr const char *kCounterKeys[] = {
    "alloc.allocs",
    "alloc.frees",
    "cache.flushes",
    "cache.hits",
    "cache.misses",
    "cache.writebacks",
    "controller.bus_locks",
    "controller.interrupts_raised",
    "controller.line_evictions",
    "controller.line_fills",
    "geometry.edc_checks_failed",
    "geometry.edc_checks_passed",
    "geometry.open_codeword_hits",
    "geometry.partial_write_rmws",
    "kernel.ecc_interrupts",
    "kernel.lines_watched",
    "sched.bank_disjoint_handoffs",
    "sched.bank_gated_handoffs",
    "sched.context_switches",
    "tlb.hits",
    "tlb.misses",
    "watch.access_faults",
    "watch.regions_watched",
};

/** Detector verdicts of one process, scored as the library scores them. */
struct Verdicts
{
    std::uint64_t leakTrue = 0;
    std::uint64_t leakFalse = 0;
    std::uint64_t corruptionTrue = 0;
    std::uint64_t corruptionFalse = 0;
};

void
addVerdicts(Fingerprint &fp, const Verdicts &v)
{
    fp["leak.true"] += v.leakTrue;
    fp["leak.false"] += v.leakFalse;
    fp["corruption.true"] += v.corruptionTrue;
    fp["corruption.false"] += v.corruptionFalse;
    fp["bug_detected"] = fp["leak.true"] > 0 || fp["corruption.true"] > 0;
}

/**
 * Token passing between a consolidated run's process threads: exactly
 * the thread whose process holds the token touches the machine. Each
 * hand-off records when it happened, so the thread it wakes can time
 * the switch.
 */
class HandoffGate
{
  public:
    /** Thrown out of waitFor() to unwind threads on a failed run. */
    struct Aborted
    {
    };

    /** Count one thread as started. */
    void
    arrive()
    {
        {
            std::lock_guard lock(mutex_);
            ++arrived_;
        }
        cv_.notify_all();
    }

    /** Block until @p count threads have arrived. */
    void
    waitArrived(std::size_t count)
    {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return arrived_ >= count; });
    }

    /**
     * Block until @p pid holds the token. @return the host time of the
     * context switch that passed it, or nullopt for the first hand-out.
     */
    std::optional<std::int64_t>
    waitFor(Pid pid)
    {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return abort_ || running_ == pid; });
        if (abort_)
            throw Aborted{};
        return switchAt_;
    }

    /** Pass the token to @p pid; @p switch_at as for waitFor(). */
    void
    handOff(Pid pid, std::optional<std::int64_t> switch_at)
    {
        {
            std::lock_guard lock(mutex_);
            running_ = pid;
            switchAt_ = switch_at;
        }
        cv_.notify_all();
    }

    /** Fail the run: every thread blocked in waitFor() throws. */
    void
    abortAll()
    {
        {
            std::lock_guard lock(mutex_);
            abort_ = true;
        }
        cv_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::size_t arrived_ = 0;
    Pid running_ = 0;
    bool abort_ = false;
    std::optional<std::int64_t> switchAt_;
};

/** Record the hand-off that woke this thread, if a switch caused it. */
void
noteResumed(std::optional<std::int64_t> switch_at)
{
    if (SpanTrack *track = currentTrack(); track && switch_at)
        track->leaf(SpanKind::SchedHandoff, *switch_at, nowNs());
}

} // namespace

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    RunParams &params = w.spec.params;
    params.seed = seed;
    params.log = &quietLog();
    if (name == "squid_safemem") {
        w.spec.app = "squid1";
        w.spec.tool = ToolKind::SafeMemBoth;
        params.buggy = true;
        params.requests = 20000;
        w.flags = "squid1 --tool safemem --buggy --requests 20000";
        w.expectBug = true;
    } else if (name == "stream_block") {
        w.spec.app = "stream";
        w.spec.tool = ToolKind::None;
        params.requests = 9600;
        params.geometry = *parseGeometry("block:512/crc32");
        w.flags = "stream --tool none --geometry block:512/crc32 "
                  "--requests 9600";
        w.expectCleanFills = true;
    } else if (name == "fleet_sampled") {
        w.spec.app = "squid2";
        w.spec.tool = ToolKind::SafeMemSampled;
        w.spec.procs = 4;
        params.sampleRate = 0.0625;
        params.banks = 4;
        params.buggy = true;
        params.requests = 6000;
        w.flags = "squid2 --tool safemem-sampled --sample-rate 0.0625 "
                  "--procs 4 --banks 4 --buggy --requests 6000";
        w.expectBug = true;
    } else {
        return std::nullopt;
    }
    w.flags += " --seed " + std::to_string(seed);
    return w;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "squid_safemem", "stream_block", "fleet_sampled"};
    return names;
}

RunResult
runLibrary(const Workload &workload)
{
    const RunSpec &spec = workload.spec;
    return spec.procs > 1 ? runConsolidated(spec)
                          : runWorkload(spec.app, spec.tool, spec.params);
}

Fingerprint
fingerprintOf(const RunResult &result)
{
    Fingerprint fp;
    fp["sim.total_cycles"] = result.totalCycles;
    fp["sim.app_cycles"] = result.appCycles;
    addVerdicts(fp, Verdicts{result.leakReportsTrue, result.leakReportsFalse,
                             result.corruptionTrue, result.corruptionFalse});
    // Machine-wide counters sit in the result's own map; per-process
    // ones (tlb, alloc, watch) in its process slices when it has any.
    for (const char *key : kCounterKeys) {
        auto it = result.stats.find(key);
        if (it != result.stats.end()) {
            fp[key] = it->second;
            continue;
        }
        std::uint64_t sum = 0;
        for (const ProcResult &proc : result.procs) {
            auto p = proc.stats.find(key);
            if (p != proc.stats.end())
                sum += p->second;
        }
        fp[key] = sum;
    }
    return fp;
}

std::string
checkRun(const Workload &workload, const Fingerprint &fp)
{
    if (fp.at("sim.total_cycles") == 0)
        return "no simulated time elapsed";
    if (workload.expectBug && fp.at("bug_detected") == 0)
        return "the injected bug was not detected";
    if (workload.expectCleanFills) {
        if (fp.at("geometry.edc_checks_passed") == 0)
            return "no EDC fast-path fill: block geometry not in use";
        if (fp.at("geometry.edc_checks_failed") != 0)
            return "EDC check failed on a clean stream";
        if (fp.at("controller.interrupts_raised") != 0)
            return "ECC interrupt raised on a clean stream";
    }
    return {};
}

/** One process: its workload instance and tool stack, built in the
 *  library's order so destruction also follows it. */
struct Assembly::Process
{
    Pid pid = 0;
    RunParams params;
    std::unique_ptr<App> app;
    std::unique_ptr<HeapAllocator> allocator;
    std::unique_ptr<EccWatchManager> manager;
    std::unique_ptr<TimedWatchBackend> timedBackend;
    std::unique_ptr<SafeMemTool> safemem;
    std::unique_ptr<NullTool> nullTool;
    std::unique_ptr<TimedTool> timedTool;
    std::unique_ptr<Env> env;
    Tool *active = nullptr;
    SpanTrack *track = nullptr;

    /** Build the tool stack for the kernel's current process. */
    void
    boot(Machine &machine, ToolKind tool, bool timed)
    {
        SpanScope span(SpanKind::StackBoot);
        allocator = std::make_unique<HeapAllocator>(machine);
        Tool *inner = nullptr;
        if (tool == ToolKind::None) {
            nullTool = std::make_unique<NullTool>(machine, *allocator);
            inner = nullTool.get();
        } else if (tool == ToolKind::SafeMemBoth ||
                   tool == ToolKind::SafeMemSampled) {
            manager = std::make_unique<EccWatchManager>(machine);
            manager->installFaultHandler();
            manager->installScrubHooks();
            WatchBackend *backend = manager.get();
            if (timed) {
                timedBackend = std::make_unique<TimedWatchBackend>(*manager);
                backend = timedBackend.get();
            }
            SafeMemConfig config;
            if (tool == ToolKind::SafeMemSampled) {
                config.sampleRate = params.sampleRate;
                config.sampleSeed = params.seed;
                safemem = std::make_unique<SampledSafeMemTool>(
                    machine, *allocator, *backend, config,
                    machine.kernel().currentPid());
            } else {
                safemem = std::make_unique<SafeMemTool>(
                    machine, *allocator, *backend, config);
            }
            inner = safemem.get();
        } else {
            throw std::invalid_argument(std::string("no replica for tool ") +
                                        toolKindName(tool));
        }
        active = inner;
        if (timed) {
            timedTool = std::make_unique<TimedTool>(*inner);
            active = timedTool.get();
        }
        env = std::make_unique<Env>(machine, *allocator, *active);
    }

    /** Score the detectors against the workload's ground truth. */
    Verdicts
    verdicts() const
    {
        Verdicts v;
        if (!safemem)
            return v;
        if (safemem->config().detectLeaks) {
            for (const LeakReport &report : safemem->leakDetector().reports())
                ++(isBuggySite(report.siteTag) ? v.leakTrue : v.leakFalse);
        }
        if (safemem->config().detectCorruption) {
            for (const CorruptionReport &report :
                 safemem->corruptionDetector().reports())
                ++(isBuggySite(report.siteTag) ? v.corruptionTrue
                                               : v.corruptionFalse);
        }
        return v;
    }
};

Assembly::Assembly(const Workload &workload, SpanRecorder *recorder)
    : workload_(workload), recorder_(recorder)
{
    const RunSpec &spec = workload.spec;
    std::uint32_t nprocs = spec.procs < 1 ? 1 : spec.procs;
    std::optional<LogScope> log_scope;
    if (spec.params.log)
        log_scope.emplace(*spec.params.log);

    MachineConfig config;
    config.memoryBytes =
        (192u << 20) + static_cast<std::size_t>(96u << 20) * (nprocs - 1);
    config.banks = spec.params.banks;
    config.geometry = spec.params.geometry;
    config.log = spec.params.log;
    if (!(spec.params.codec == EccCodecSpec{}))
        throw std::invalid_argument("replica runs the default codec only");
    {
        SpanScope span(SpanKind::MachineBoot);
        machine_ = std::make_unique<Machine>(config);
    }

    Kernel &kernel = machine_->kernel();
    for (std::uint32_t k = 0; k < nprocs; ++k) {
        SpanScope span(SpanKind::ProcessBoot);
        auto proc = std::make_unique<Process>();
        proc->app = makeApp(spec.app);
        if (!proc->app)
            throw std::invalid_argument("unknown application " + spec.app);
        proc->params = spec.params;
        if (nprocs > 1) {
            // As runConsolidated: a fresh process per instance, its
            // stack built while it is current, seeds diverging by k.
            proc->params.seed = spec.params.seed + k;
            proc->pid = kernel.createProcess();
            kernel.setCurrentProcess(proc->pid);
        } else {
            proc->pid = kernel.currentPid();
        }
        proc->boot(*machine_, spec.tool, recorder_ != nullptr);
        if (nprocs > 1) {
            machine_->scheduler().admit(proc->pid);
            if (recorder_)
                proc->track =
                    &recorder_->addTrack("p" + std::to_string(proc->pid));
        }
        procs_.push_back(std::move(proc));
    }
}

Assembly::~Assembly() = default;

void
Assembly::run()
{
    std::optional<LogScope> log_scope;
    if (workload_.spec.params.log)
        log_scope.emplace(*workload_.spec.params.log);
    SpanScope span(SpanKind::Run);
    if (procs_.size() > 1) {
        runConsolidated();
        return;
    }
    Process &proc = *procs_.front();
    SpanScope proc_span(SpanKind::Proc);
    proc.app->run(*proc.env, proc.params);
    proc.active->finish();
}

void
Assembly::runConsolidated()
{
    Machine &machine = *machine_;
    Kernel &kernel = machine.kernel();
    const Log *log = workload_.spec.params.log;
    bool banked = workload_.spec.params.banks > 1;
    HandoffGate gate;

    machine.setYieldHook([&](Pid from, Pid to) {
        if (banked) {
            bool disjoint =
                (kernel.bankFootprint(from) & kernel.bankFootprint(to)) == 0;
            ++(disjoint ? bankDisjointHandoffs_ : bankGatedHandoffs_);
        }
        SpanScope wait(SpanKind::SchedWait);
        gate.handOff(to, nowNs());
        noteResumed(gate.waitFor(from));
    });
    kernel.setCurrentProcess(procs_.front()->pid);

    std::mutex error_mutex;
    std::string error;
    std::vector<std::thread> threads;
    threads.reserve(procs_.size());
    for (const auto &owned : procs_) {
        threads.emplace_back([&, p = owned.get()] {
            Process &proc = *p;
            TrackBinding binding(proc.track);
            std::optional<LogScope> thread_log;
            if (log)
                thread_log.emplace(*log);
            try {
                SpanScope proc_span(SpanKind::Proc);
                {
                    SpanScope wait(SpanKind::SchedWait);
                    gate.arrive();
                    noteResumed(gate.waitFor(proc.pid));
                }
                proc.app->run(*proc.env, proc.params);
                proc.active->finish();

                // Exit as runConsolidated does: pick the successor while
                // still runnable, leave the run queue, hand over.
                std::optional<Pid> next = machine.scheduler().pickNext(proc.pid);
                machine.scheduler().markExited(proc.pid);
                kernel.exitProcess(proc.pid);
                if (next && *next != proc.pid) {
                    machine.contextSwitchTo(*next);
                    gate.handOff(*next, nowNs());
                }
            } catch (const HandoffGate::Aborted &) {
                // Another process's failure ended the run.
            } catch (const std::exception &err) {
                {
                    std::lock_guard lock(error_mutex);
                    if (error.empty())
                        error = err.what();
                }
                gate.abortAll();
            }
        });
    }

    // Every thread records its first wait before the token moves, so a
    // hand-off never predates the span it ends.
    gate.waitArrived(procs_.size());
    gate.handOff(procs_.front()->pid, std::nullopt);
    {
        SpanScope wait(SpanKind::SchedWait);
        for (std::thread &thread : threads)
            thread.join();
    }
    machine.setYieldHook(nullptr);
    if (!error.empty())
        throw std::runtime_error("consolidated replica failed: " + error);
}

Fingerprint
Assembly::fingerprint() const
{
    Machine &machine = *machine_;
    Kernel &kernel = machine.kernel();
    Fingerprint fp;
    fp["sim.total_cycles"] = machine.clock().now();
    fp["sim.app_cycles"] = machine.clock().charged(CostCenter::Application);
    for (const auto &proc : procs_)
        addVerdicts(fp, proc->verdicts());

    bool consolidated = procs_.size() > 1;
    for (const char *key : kCounterKeys) {
        std::string name(key);
        std::string component = name.substr(0, name.find('.'));
        std::string counter = name.substr(component.size() + 1);
        std::uint64_t value = 0;
        if (component == "kernel") {
            value = kernel.stats().get(counter);
        } else if (component == "cache") {
            value = machine.cache().stats().get(counter);
        } else if (component == "controller") {
            value = machine.controller().stats().get(counter);
        } else if (component == "geometry") {
            if (!workload_.spec.params.geometry.isWord())
                value = machine.controller().geometryStats().get(counter);
        } else if (name == "sched.bank_disjoint_handoffs") {
            value = bankDisjointHandoffs_;
        } else if (name == "sched.bank_gated_handoffs") {
            value = bankGatedHandoffs_;
        } else if (component == "sched") {
            value = machine.scheduler().stats().get(counter);
        } else {
            for (const auto &proc : procs_) {
                if (component == "tlb") {
                    const safemem::Process &owner = consolidated
                                               ? kernel.process(proc->pid)
                                               : kernel.currentProcess();
                    value += owner.tlb().stats().get(counter);
                } else if (component == "alloc") {
                    value += proc->allocator->stats().get(counter);
                } else if (component == "watch" && proc->manager) {
                    value += proc->manager->stats().get(counter);
                }
            }
        }
        fp[name] = value;
    }
    return fp;
}

void
Assembly::teardown()
{
    SpanScope span(SpanKind::MachineTeardown);
    procs_.clear();
    machine_.reset();
}

} // namespace perfbench
