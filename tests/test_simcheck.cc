/**
 * @file
 * SimCheck auditor tests: reporting semantics, the audit hooks riding on
 * real machine traffic, and — most importantly — seeded violations proving
 * the auditor actually notices deliberate corruption (an auditor that
 * never fires is indistinguishable from one that never looks).
 */

#include <gtest/gtest.h>

#include <string>

#include "alloc/heap_allocator.h"
#include "check/simcheck.h"
#include "common/logging.h"
#include "os/machine.h"
#include "safemem/watch_manager.h"

namespace safemem {
namespace {

/**
 * Scoped collect mode: violations are recorded instead of thrown for the
 * duration of a test, and the record is wiped on both ends.
 */
class CollectViolations
{
  public:
    CollectViolations()
    {
        SimCheck::instance().setThrowOnViolation(false);
        SimCheck::instance().clearViolations();
    }

    ~CollectViolations()
    {
        SimCheck::instance().clearViolations();
        SimCheck::instance().setThrowOnViolation(true);
    }

    bool
    sawInvariant(const std::string &invariant) const
    {
        for (const AuditViolation &v : SimCheck::instance().violations()) {
            if (v.invariant == invariant)
                return true;
        }
        return false;
    }

    std::size_t count() const
    {
        return SimCheck::instance().violations().size();
    }
};

TEST(SimCheck, HooksAreSilentWhileDisabled)
{
    SimCheck &auditor = SimCheck::instance();
    ASSERT_TRUE(auditor.enabled()); // test_main switches it on
    std::uint64_t before = auditor.auditsRun();

    auditor.setEnabled(false);
    CollectViolations guard;
    SIMCHECK_AUDIT(AuditDomain::Cache, "always_false", false,
                   "must not be recorded while disabled");
    auditor.setEnabled(true);

    EXPECT_EQ(guard.count(), 0u);
    EXPECT_EQ(auditor.auditsRun(), before);
}

TEST(SimCheck, ViolationThrowsPanicByDefault)
{
    ASSERT_TRUE(SimCheck::instance().throwOnViolation());
    try {
        SIMCHECK_AUDIT(AuditDomain::Kernel, "self_test_throw", false,
                       "seeded violation");
        FAIL() << "audit failure did not throw";
    } catch (const PanicError &err) {
        EXPECT_NE(std::string(err.what()).find("SimCheck violation"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("self_test_throw"),
                  std::string::npos);
    }
}

TEST(SimCheck, CollectModeRecordsStructuredViolation)
{
    CollectViolations guard;
    SIMCHECK_AUDIT(AuditDomain::Allocator, "self_test_collect", false,
                   "detail ", 42);
    ASSERT_EQ(guard.count(), 1u);
    const AuditViolation v = SimCheck::instance().violations()[0];
    EXPECT_EQ(v.domain, AuditDomain::Allocator);
    EXPECT_EQ(v.invariant, "self_test_collect");
    EXPECT_EQ(v.detail, "detail 42");
}

TEST(SimCheck, AuditHooksRideRealTraffic)
{
    std::uint64_t before = SimCheck::instance().auditsRun();
    Machine machine;
    VirtAddr buf = machine.kernel().mapRegion(kPageSize);
    for (int i = 0; i < 64; ++i)
        machine.store<std::uint64_t>(buf + i * 8, i);
    machine.cache().flushAll(); // writebacks run the coherence audits
    machine.auditNow();
    EXPECT_GT(SimCheck::instance().auditsRun(), before);
}

TEST(SimCheck, CleanMachineStatePassesDeepAudits)
{
    Machine machine;
    VirtAddr buf = machine.kernel().mapRegion(4 * kPageSize);
    for (std::size_t i = 0; i < 4 * kPageSize / 8; ++i)
        machine.store<std::uint64_t>(buf + i * 8, i * 0x9e37);
    machine.kernel().watchMemory(buf, 2 * kCacheLineSize);

    CollectViolations guard;
    machine.auditNow();
    EXPECT_EQ(guard.count(), 0u);

    machine.kernel().disableWatchMemory(buf, 2 * kCacheLineSize);
    machine.auditNow();
    EXPECT_EQ(guard.count(), 0u);
}

TEST(SimCheck, SeededWatchMaskClobberIsReported)
{
    Machine machine;
    Kernel &kernel = machine.kernel();
    VirtAddr buf = kernel.mapRegion(kPageSize);
    kernel.watchMemory(buf, 2 * kCacheLineSize);

    CollectViolations guard;
    machine.auditNow();
    ASSERT_EQ(guard.count(), 0u) << "healthy watch masks must audit clean";

    // A mask bit the per-process count never heard of: the masks no
    // longer add up, while the count still matches the history.
    kernel.testOnlyClobberWatchMask(buf + 5 * kCacheLineSize);
    machine.auditNow();
    EXPECT_TRUE(guard.sawInvariant("watch_mask_matches_count"));
    EXPECT_FALSE(guard.sawInvariant("watch_count_matches_history"));

    kernel.testOnlyClobberWatchMask(buf + 5 * kCacheLineSize);
    kernel.disableWatchMemory(buf, 2 * kCacheLineSize);
}

TEST(SimCheck, LibraryKernelWatchDisagreementIsReported)
{
    Machine machine;
    EccWatchManager manager(machine);
    VirtAddr buf = machine.kernel().mapRegion(kPageSize);
    manager.watch(buf, 2 * kCacheLineSize, WatchKind::GuardRear, 1);

    CollectViolations guard;
    manager.auditInvariants();
    ASSERT_EQ(guard.count(), 0u) << "agreeing indexes must audit clean";

    // Lift one line behind the library's back: its table still holds
    // the line, and it counts one line more than the kernel.
    machine.kernel().disableWatchMemory(buf + kCacheLineSize,
                                        kCacheLineSize);
    manager.auditInvariants();
    EXPECT_TRUE(guard.sawInvariant("watch_table_line_watched"));
    EXPECT_TRUE(guard.sawInvariant("watch_table_count_matches"));
}

TEST(SimCheck, SeededFreeListCorruptionIsReported)
{
    Machine machine;
    HeapAllocator heap(machine);
    VirtAddr a = heap.allocate(64);
    VirtAddr b = heap.allocate(64);
    heap.deallocate(a);
    (void)b;

    CollectViolations guard;
    heap.auditInvariants();
    ASSERT_EQ(guard.count(), 0u) << "healthy heap must audit clean";

    heap.testOnlyClobberFreeList();
    heap.auditInvariants();
    EXPECT_TRUE(guard.sawInvariant("free_chunk_aligned"))
        << "clobbered free-list link was not reported";
}

TEST(SimCheck, SeededCanaryClobberIsReported)
{
    Machine machine;
    HeapAllocator heap(machine);
    VirtAddr block = heap.allocate(128);

    CollectViolations guard;
    heap.testOnlyClobberCanary(block);
    heap.auditInvariants();
    EXPECT_TRUE(guard.sawInvariant("metadata_canary"));
}

TEST(SimCheck, BusLockPairingViolationIsReported)
{
    Machine machine;
    BankSetLockGuard bus(machine.controller(), ~std::uint64_t{0});

    CollectViolations guard;
    // In collect mode the audit records the violation, after which the
    // controller's own hard panic still fires.
    EXPECT_THROW(
        BankSetLockGuard again(machine.controller(), ~std::uint64_t{0}),
        PanicError);
    EXPECT_TRUE(guard.sawInvariant("bus_lock_pairing"));
}

TEST(SimCheck, TrafficWhileBusLockedIsReported)
{
    Machine machine;
    BankSetLockGuard bus(machine.controller(), ~std::uint64_t{0});

    CollectViolations guard;
    LineData line{};
    EXPECT_THROW(machine.controller().fillLine(0, line), PanicError);
    EXPECT_TRUE(guard.sawInvariant("no_traffic_while_locked"));
}

} // namespace
} // namespace safemem
