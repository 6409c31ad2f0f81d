/**
 * @file
 * The benchmark's workloads, the library run call that times them, and
 * a replica of the machine and tool stack(s) that call builds,
 * assembled from the simulator's public constructors so each layer can
 * be timed from outside.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "os/machine.h"
#include "workloads/driver.h"

namespace perfbench {

class SpanRecorder;

/** One named workload: the library run it times and what a correct
 *  run of it must show. */
struct Workload
{
    std::string name;
    /** The run, as `safemem_run` flags would give it. */
    std::string flags;
    safemem::RunSpec spec;
    /** Buggy inputs: every run must detect the injected bug. */
    bool expectBug = false;
    /** Block geometry: no EDC miss and no ECC interrupt may occur. */
    bool expectCleanFills = false;
};

/** @return the workload named @p name with inputs from @p seed. */
std::optional<Workload> makeWorkload(const std::string &name,
                                     std::uint64_t seed);

/** @return every workload name. */
const std::vector<std::string> &workloadNames();

/** The simulated fingerprint of a run: cycles, detector verdicts and
 *  component counters, by name. Identical for identical runs. */
using Fingerprint = std::map<std::string, std::uint64_t>;

/** Run @p workload through the library's public run call (runWorkload,
 *  or runConsolidated for several processes). */
safemem::RunResult runLibrary(const Workload &workload);

/** @return the fingerprint of a library run's result. */
Fingerprint fingerprintOf(const safemem::RunResult &result);

/**
 * @return why @p fingerprint is not a correct run of @p workload, or
 * an empty string when it is.
 */
std::string checkRun(const Workload &workload,
                     const Fingerprint &fingerprint);

/**
 * The workload's Machine and per-process tool stacks, assembled the way
 * the library's run calls assemble them, with the same MachineConfig
 * (192 MiB plus 96 MiB per extra process). Boot happens in the
 * constructor; run() executes the workload as the library does, driving
 * several processes through the public Kernel, Scheduler and Machine
 * calls runConsolidated makes.
 *
 * Given a recorder, every process's Tool and WatchBackend are wrapped
 * in timing decorators and boot, run, hand-offs and teardown record
 * spans: on the calling thread's track, and on one track per process
 * thread in a consolidated run. Without one nothing is wrapped or
 * recorded.
 */
class Assembly
{
  public:
    Assembly(const Workload &workload, SpanRecorder *recorder);
    ~Assembly();

    Assembly(const Assembly &) = delete;
    Assembly &operator=(const Assembly &) = delete;

    /** Execute the workload to completion (once). */
    void run();

    /** @return the fingerprint, which equals the library run's. */
    Fingerprint fingerprint() const;

    /** Destroy the tool stacks and the machine. */
    void teardown();

  private:
    struct Process;

    void runConsolidated();

    const Workload &workload_;
    SpanRecorder *recorder_;
    std::unique_ptr<safemem::Machine> machine_;
    std::vector<std::unique_ptr<Process>> procs_;
    std::uint64_t bankDisjointHandoffs_ = 0;
    std::uint64_t bankGatedHandoffs_ = 0;
};

} // namespace perfbench
