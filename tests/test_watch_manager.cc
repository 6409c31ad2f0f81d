/**
 * @file
 * Tests for the ECC watch backend: region bookkeeping, fault dispatch,
 * hardware-error differentiation, scrub coordination, the open-addressed
 * line table, and a differential run of the library and kernel watch
 * indexes against a reference model.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "ecc/scramble.h"
#include "safemem/watch_manager.h"

namespace safemem {
namespace {

class WatchManagerTest : public ::testing::Test
{
  protected:
    WatchManagerTest()
        : machine(MachineConfig{4u << 20, CacheConfig{16, 2}, 64}),
          manager(machine)
    {
        manager.installFaultHandler();
        manager.installScrubHooks();
        manager.setFaultCallback([this](VirtAddr base, WatchKind kind,
                                        std::uint64_t cookie,
                                        VirtAddr fault_addr, bool) {
            ++callbacks;
            lastBase = base;
            lastKind = kind;
            lastCookie = cookie;
            lastFault = fault_addr;
        });
        region = machine.kernel().mapRegion(2 * kPageSize);
    }

    Machine machine;
    EccWatchManager manager;
    VirtAddr region = 0;
    int callbacks = 0;
    VirtAddr lastBase = 0;
    WatchKind lastKind = WatchKind::LeakSuspect;
    std::uint64_t lastCookie = 0;
    VirtAddr lastFault = 0;
};

TEST_F(WatchManagerTest, WatchUnwatchBookkeeping)
{
    manager.watch(region, 128, WatchKind::FreedBuffer, 7);
    EXPECT_TRUE(manager.isWatched(region));
    EXPECT_EQ(manager.regionCount(), 1u);
    EXPECT_EQ(manager.watchedBytes(), 128u);

    manager.unwatch(region);
    EXPECT_FALSE(manager.isWatched(region));
    EXPECT_EQ(manager.watchedBytes(), 0u);
}

TEST_F(WatchManagerTest, AccessDispatchesCallbackWithMetadata)
{
    machine.store<std::uint64_t>(region + 64, 0x77ULL);
    manager.watch(region, 192, WatchKind::GuardRear, 0xc0de);

    EXPECT_EQ(machine.load<std::uint64_t>(region + 64), 0x77ULL);
    EXPECT_EQ(callbacks, 1);
    EXPECT_EQ(lastBase, region);
    EXPECT_EQ(lastKind, WatchKind::GuardRear);
    EXPECT_EQ(lastCookie, 0xc0deULL);
    EXPECT_EQ(lastFault, region + 64);
    // Only the first access matters: whole region unwatched.
    EXPECT_FALSE(manager.isWatched(region));
    machine.load<std::uint64_t>(region);
    EXPECT_EQ(callbacks, 1);
}

TEST_F(WatchManagerTest, DataPreservedThroughWatchCycle)
{
    for (int i = 0; i < 8; ++i)
        machine.store<std::uint64_t>(region + i * 8,
                                     0x1000ULL + static_cast<unsigned>(i));
    manager.watch(region, 64, WatchKind::LeakSuspect, 1);
    manager.unwatch(region);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(machine.load<std::uint64_t>(region + i * 8),
                  0x1000ULL + static_cast<unsigned>(i));
}

TEST_F(WatchManagerTest, OverlappingWatchPanics)
{
    manager.watch(region, 128, WatchKind::LeakSuspect, 1);
    EXPECT_THROW(manager.watch(region + 64, 64, WatchKind::LeakSuspect, 2),
                 PanicError);
}

TEST_F(WatchManagerTest, UnalignedRegionPanics)
{
    EXPECT_THROW(manager.watch(region + 4, 64, WatchKind::LeakSuspect, 1),
                 PanicError);
    EXPECT_THROW(manager.watch(region, 65, WatchKind::LeakSuspect, 1),
                 PanicError);
    EXPECT_THROW(manager.watch(region, 0, WatchKind::LeakSuspect, 1),
                 PanicError);
}

TEST_F(WatchManagerTest, UnwatchUnknownPanics)
{
    EXPECT_THROW(manager.unwatch(region), PanicError);
}

TEST_F(WatchManagerTest, HardwareErrorUnderWatchIsRepaired)
{
    machine.kernel().setPanicOnHardwareError(false);
    machine.store<std::uint64_t>(region, 0xabcdULL);
    manager.watch(region, 64, WatchKind::FreedBuffer, 1);

    // A real memory error strikes the watched (scrambled) line: the
    // stored data no longer matches the scramble signature.
    PhysAddr frame = machine.kernel().translate(region + kPageSize - 1) -
                     (kPageSize - 1);
    machine.physicalMemory().flipDataBit(frame, 60);

    // The access faults; the manager classifies it as a hardware error
    // and repairs the line from its private copy.
    EXPECT_EQ(machine.load<std::uint64_t>(region), 0xabcdULL);
    EXPECT_EQ(callbacks, 0) << "not dispatched as an access fault";
    EXPECT_EQ(manager.stats().get("hardware_errors_detected"), 1u);
    EXPECT_FALSE(manager.isWatched(region));
}

TEST_F(WatchManagerTest, ForeignMultiBitFaultIsHardwareError)
{
    machine.kernel().setPanicOnHardwareError(false);
    VirtAddr other = machine.kernel().mapRegion(kPageSize);
    machine.store<std::uint64_t>(other, 5);
    machine.cache().flushAll();
    PhysAddr frame = machine.kernel().translate(other + kPageSize - 1) -
                     (kPageSize - 1);
    machine.physicalMemory().flipDataBit(frame, 1);
    machine.physicalMemory().flipDataBit(frame, 7);

    // Nobody repairs a foreign line, so the access faults on every
    // retry and the machine gives up.
    EXPECT_THROW(machine.load<std::uint64_t>(other), PanicError);
    EXPECT_GE(manager.stats().get("foreign_faults"), 1u);
    EXPECT_EQ(callbacks, 0);
}

TEST_F(WatchManagerTest, ScrubPassParksAndRestoresWatches)
{
    machine.store<std::uint64_t>(region, 0x1234ULL);
    manager.watch(region, 64, WatchKind::LeakSuspect, 11);
    manager.watch(region + kPageSize, 128, WatchKind::FreedBuffer, 22);

    machine.kernel().enableScrubbing(1000);
    machine.compute(2000);
    machine.kernel().tick(); // scrub fires: unwatch-all, scrub, rewatch

    EXPECT_EQ(manager.stats().get("scrub_unwatch_passes"), 1u);
    EXPECT_TRUE(manager.isWatched(region));
    EXPECT_TRUE(manager.isWatched(region + kPageSize));
    EXPECT_EQ(machine.controller().stats().get("multi_bit_detected"), 0u)
        << "scrubber never saw a scrambled line";

    // Watches still functional after the scrub cycle.
    machine.kernel().disableScrubbing();
    EXPECT_EQ(machine.load<std::uint64_t>(region), 0x1234ULL);
    EXPECT_EQ(callbacks, 1);
}

TEST_F(WatchManagerTest, ScrubParkedRegionsStayLogicallyWatched)
{
    manager.watch(region, 128, WatchKind::LeakSuspect, 1);
    manager.parkAllForScrub(0);

    // Parked for the duration of the scrub pass, but still logically
    // watched: visible to isWatched() and opaque to overlapping watches,
    // exactly like a swap-parked region.
    EXPECT_TRUE(manager.isWatched(region));
    EXPECT_THROW(manager.watch(region + 64, 64, WatchKind::FreedBuffer, 2),
                 PanicError);

    manager.restoreAfterScrub(0);
    EXPECT_TRUE(manager.isWatched(region));
    EXPECT_EQ(manager.regionCount(), 1u);
    EXPECT_EQ(manager.watchedBytes(), 128u);
}

TEST_F(WatchManagerTest, UnwatchWhileScrubParkedCancelsTheRestore)
{
    manager.watch(region, 64, WatchKind::FreedBuffer, 1);
    manager.watch(region + kPageSize, 64, WatchKind::LeakSuspect, 2);
    manager.parkAllForScrub(0);

    // A detector may legitimately drop a watch mid-scrub (e.g. a freed
    // block is recycled); the parked entry must be cancelled, not
    // resurrected by the post-scrub restore.
    manager.unwatch(region);
    EXPECT_FALSE(manager.isWatched(region));
    EXPECT_EQ(manager.stats().get("parked_regions_cancelled"), 1u);

    manager.restoreAfterScrub(0);
    EXPECT_FALSE(manager.isWatched(region));
    EXPECT_TRUE(manager.isWatched(region + kPageSize));
    EXPECT_EQ(manager.regionCount(), 1u);
}

TEST_F(WatchManagerTest, PeakWatchedBytesTracked)
{
    manager.watch(region, 256, WatchKind::FreedBuffer, 1);
    manager.watch(region + kPageSize, 64, WatchKind::GuardFront, 2);
    manager.unwatch(region);
    EXPECT_EQ(manager.stats().get("peak_watched_bytes"), 320u);
    EXPECT_EQ(manager.watchedBytes(), 64u);
}

/** @return @p count distinct lines whose probes all start at @p home. */
std::vector<VirtAddr>
linesHashingTo(const WatchLineTable &table, std::size_t home,
               std::size_t count)
{
    std::vector<VirtAddr> lines;
    for (VirtAddr line = 0; lines.size() < count; line += kCacheLineSize) {
        if (table.homeOf(line) == home)
            lines.push_back(line);
    }
    return lines;
}

TEST(WatchLineTable, StartsEmptyAndGrowsAtThreeQuartersLoad)
{
    WatchLineTable table;
    EXPECT_EQ(table.capacity(), 0u) << "construction allocates nothing";
    EXPECT_EQ(table.find(0x1000), nullptr);

    table.insert(0x1000);
    std::size_t first = table.capacity();
    ASSERT_GT(first, 0u);
    EXPECT_EQ(first & (first - 1), 0u) << "power-of-two capacity";
    for (std::size_t i = 1; i < first * 3 / 4; ++i)
        table.insert(0x1000 + i * kCacheLineSize).words[0] = i;
    EXPECT_EQ(table.capacity(), first) << "no growth up to 3/4 load";
    table.insert(0x1000 + first * 3 / 4 * kCacheLineSize);
    EXPECT_EQ(table.capacity(), 2 * first);

    // Growth keeps every key and its payload.
    EXPECT_EQ(table.size(), first * 3 / 4 + 1);
    for (std::size_t i = 1; i < first * 3 / 4; ++i) {
        const WatchLineTable::Slot *slot =
            table.find(0x1000 + i * kCacheLineSize);
        ASSERT_NE(slot, nullptr) << i;
        EXPECT_EQ(slot->words[0], i);
    }
    EXPECT_THROW(table.insert(0x1000), PanicError);
    EXPECT_THROW(table.erase(0x1000 + kCacheLineSize / 2), PanicError);
}

TEST(WatchLineTable, BackwardShiftDeletionAcrossTheTableEnd)
{
    WatchLineTable table;
    table.insert(0);
    table.erase(0);
    const std::size_t last = table.capacity() - 1;

    // Three keys homed on the last slot: the second and third wrap
    // round to slots 0 and 1, and a key homed on slot 0 lands behind
    // them at slot 2.
    std::vector<VirtAddr> wrapped = linesHashingTo(table, last, 3);
    VirtAddr at_zero = linesHashingTo(table, 0, 1)[0];
    for (VirtAddr line : wrapped)
        table.insert(line);
    table.insert(at_zero);
    EXPECT_EQ(table.slotOf(wrapped[0]), last);
    EXPECT_EQ(table.slotOf(wrapped[1]), 0u);
    EXPECT_EQ(table.slotOf(wrapped[2]), 1u);
    EXPECT_EQ(table.slotOf(at_zero), 2u);

    // Deleting the chain head shifts every later entry back one slot,
    // across the end of the table, with no tombstone left behind.
    table.erase(wrapped[0]);
    EXPECT_EQ(table.slotOf(wrapped[1]), last);
    EXPECT_EQ(table.slotOf(wrapped[2]), 0u);
    EXPECT_EQ(table.slotOf(at_zero), 1u);
    EXPECT_EQ(table.find(wrapped[0]), nullptr);

    // Deleting a wrapped middle entry pulls only what may move: the
    // slot-0 key comes home, nothing else does.
    table.erase(wrapped[2]);
    EXPECT_EQ(table.slotOf(wrapped[1]), last);
    EXPECT_EQ(table.slotOf(at_zero), 0u);
    table.erase(wrapped[1]);
    table.erase(at_zero);
    EXPECT_EQ(table.size(), 0u);
    std::size_t occupied = 0;
    table.forEach([&](const WatchLineTable::Slot &) { ++occupied; });
    EXPECT_EQ(occupied, 0u);
}

/**
 * Differential test of the two watch indexes. Seeded random streams of
 * watch, unwatch, isWatched, loads, stores, scrub park/restore and swap
 * out/in drive an EccWatchManager + Kernel and a reference model: a
 * std::map of regions, each live, scrub-parked or swap-parked, plus
 * page residency and the memory contents. After every op the manager's
 * and the kernel's answers must match the model, and an access must
 * fault exactly when the model says its line is live-watched.
 */
class WatchIndexDifferential
{
  public:
    WatchIndexDifferential(std::uint32_t banks, SwapWatchPolicy policy,
                           std::uint64_t seed)
        : machine_(config(banks)), manager_(machine_), policy_(policy),
          banks_(banks), rng_(seed)
    {
        manager_.installFaultHandler();
        manager_.installSwapHooks();
        machine_.kernel().setSwapWatchPolicy(policy);
        manager_.setFaultCallback([this](VirtAddr base, WatchKind,
                                         std::uint64_t, VirtAddr fault,
                                         bool) {
            faults_.push_back({base, fault});
        });
        base_ = machine_.kernel().mapRegion(kPages * kPageSize);
        resident_.assign(kPages, true);
        memory_.assign(kPages * kPageSize / 8, 0);
        scrubParked_.assign(banks, false);
    }

    void
    run(int ops)
    {
        for (int op = 0; op < ops; ++op) {
            std::uint64_t pick = rng_.range(0, 99);
            if (pick < 25)
                watchOp();
            else if (pick < 43)
                unwatchOp();
            else if (pick < 50)
                isWatchedOp();
            else if (pick < 82)
                accessOp();
            else if (pick < 92)
                scrubOp();
            else
                swapOutOp();
            check(op);
            if (op % 64 == 63) {
                machine_.auditNow();
                manager_.auditInvariants();
            }
        }
        // Land every outstanding park, then check once more.
        for (unsigned b = 0; b < banks_; ++b) {
            if (scrubParked_[b])
                scrub(b);
        }
        check(ops);
        machine_.auditNow();
        manager_.auditInvariants();
    }

    int grewMidStream = 0;
    int wrappedDeletions = 0;
    int faultsSeen = 0;
    int swapRestores = 0;

  private:
    enum class State { Live, ScrubParked, SwapParked };
    struct Region
    {
        std::size_t lines = 0;
        State state = State::Live;
        unsigned bank = 0;
    };

    static constexpr std::size_t kPages = 12;
    static constexpr std::size_t kLines = kPages * kPageSize / kCacheLineSize;

    static MachineConfig
    config(std::uint32_t banks)
    {
        // 16 frames: the 12-page arena fills bank 0 and spills into the
        // next banks, and swap churn moves pages between banks.
        MachineConfig cfg{16 * kPageSize, CacheConfig{16, 2}, 64};
        cfg.banks = banks;
        return cfg;
    }

    VirtAddr lineAddr(std::size_t line) const
    {
        return base_ + line * kCacheLineSize;
    }
    std::size_t pageOf(VirtAddr addr) const
    {
        return (addr - base_) / kPageSize;
    }
    VirtAddr regionEnd(const std::pair<const VirtAddr, Region> &r) const
    {
        return r.first + r.second.lines * kCacheLineSize;
    }

    /** @return the model region holding @p addr, or regions_.end(). */
    std::map<VirtAddr, Region>::iterator
    regionAt(VirtAddr addr)
    {
        auto it = regions_.upper_bound(addr);
        if (it == regions_.begin())
            return regions_.end();
        --it;
        return addr < regionEnd(*it) ? it : regions_.end();
    }

    bool
    overlapsAny(VirtAddr begin, VirtAddr end)
    {
        for (const auto &r : regions_) {
            if (r.first < end && begin < regionEnd(r))
                return true;
        }
        return false;
    }

    /** Page @p page in, with the cascade the swap-in hook runs: each
     *  swap-parked region overlapping it is rewatched, which re-reads
     *  (so pages in) all of that region's pages. */
    void
    pageIn(std::size_t page)
    {
        std::vector<std::size_t> work{page};
        while (!work.empty()) {
            std::size_t p = work.back();
            work.pop_back();
            if (resident_[p])
                continue;
            resident_[p] = true;
            if (policy_ != SwapWatchPolicy::UnwatchRewatch)
                continue;
            VirtAddr lo = base_ + p * kPageSize;
            for (auto &r : regions_) {
                if (r.second.state != State::SwapParked ||
                    !(r.first < lo + kPageSize && lo < regionEnd(r)))
                    continue;
                r.second.state = State::Live;
                ++swapRestores;
                for (std::size_t q = pageOf(r.first);
                     q <= pageOf(regionEnd(r) - 1); ++q)
                    work.push_back(q);
            }
        }
    }

    void
    pageInRange(VirtAddr begin, VirtAddr end)
    {
        for (std::size_t p = pageOf(begin); p <= pageOf(end - 1); ++p)
            pageIn(p);
    }

    void
    watchOp()
    {
        std::size_t first = rng_.range(0, kLines - 1);
        std::size_t lines =
            std::min<std::size_t>(rng_.range(1, 70), kLines - first);
        VirtAddr begin = lineAddr(first);
        VirtAddr end = begin + lines * kCacheLineSize;
        auto kind = static_cast<WatchKind>(rng_.range(0, 4));
        if (overlapsAny(begin, end)) {
            EXPECT_THROW(manager_.watch(begin, end - begin, kind, first),
                         PanicError);
            return;
        }
        std::size_t capacity = manager_.lineTable().capacity();
        std::size_t held = manager_.lineTable().size();
        manager_.watch(begin, end - begin, kind, first);
        pageInRange(begin, end);
        regions_[begin] = Region{lines, State::Live, 0};
        if (held > 0 && manager_.lineTable().capacity() > capacity)
            ++grewMidStream;
    }

    void
    unwatchOp()
    {
        if (regions_.empty())
            return;
        auto it = std::next(regions_.begin(),
                            static_cast<long>(rng_.range(
                                0, regions_.size() - 1)));
        if (it->second.lines > 1 && rng_.chance(0.1)) {
            // Only a region's base names it.
            EXPECT_THROW(manager_.unwatch(it->first + kCacheLineSize),
                         PanicError);
            return;
        }
        if (it->second.state == State::Live)
            noteWrappedDeletions(it->first, it->second.lines);
        manager_.unwatch(it->first);
        regions_.erase(it);
    }

    /** Count the lines about to be erased whose probe wrapped past
     *  the end of the table (they sit before their home slot). */
    void
    noteWrappedDeletions(VirtAddr begin, std::size_t lines)
    {
        const WatchLineTable &table = manager_.lineTable();
        for (std::size_t l = 0; l < lines; ++l) {
            VirtAddr line = begin + l * kCacheLineSize;
            if (table.slotOf(line) < table.homeOf(line))
                ++wrappedDeletions;
        }
    }

    void
    isWatchedOp()
    {
        VirtAddr addr = lineAddr(rng_.range(0, kLines - 1));
        EXPECT_EQ(manager_.isWatched(addr), regions_.count(addr) != 0);
    }

    void
    accessOp()
    {
        std::size_t word = rng_.range(0, memory_.size() - 1);
        VirtAddr addr = base_ + word * 8;
        pageIn(pageOf(addr));
        auto it = regionAt(addr);
        bool expect_fault = it != regions_.end() &&
                            it->second.state == State::Live;
        VirtAddr expect_base = expect_fault ? it->first : 0;
        std::size_t before = faults_.size();
        if (rng_.chance(0.5)) {
            std::uint64_t value = rng_.next();
            machine_.store<std::uint64_t>(addr, value);
            memory_[word] = value;
        } else {
            EXPECT_EQ(machine_.load<std::uint64_t>(addr), memory_[word])
                << "word " << word;
        }
        ASSERT_EQ(faults_.size() - before, expect_fault ? 1u : 0u)
            << "access to " << addr;
        if (expect_fault) {
            EXPECT_EQ(faults_.back().first, expect_base);
            EXPECT_EQ(faults_.back().second,
                      alignDown(addr, kCacheLineSize));
            regions_.erase(it);
            ++faultsSeen;
        }
    }

    void
    scrub(unsigned bank)
    {
        if (!scrubParked_[bank]) {
            // Park: every live region backed by a frame of this bank.
            for (auto &r : regions_) {
                if (r.second.state != State::Live)
                    continue;
                bool in_bank = false;
                for (VirtAddr v = alignDown(r.first, kPageSize);
                     v < regionEnd(r); v += kPageSize)
                    in_bank |= machine_.controller().bankOf(
                                   *machine_.kernel().peekTranslate(v)) ==
                               bank;
                if (in_bank)
                    r.second = Region{r.second.lines, State::ScrubParked,
                                      bank};
            }
            manager_.parkAllForScrub(bank);
        } else {
            manager_.restoreAfterScrub(bank);
            for (auto &r : regions_) {
                if (r.second.state == State::ScrubParked &&
                    r.second.bank == bank) {
                    r.second.state = State::Live;
                    pageInRange(r.first, regionEnd(r));
                }
            }
        }
        scrubParked_[bank] = !scrubParked_[bank];
    }

    void
    scrubOp()
    {
        scrub(static_cast<unsigned>(rng_.range(0, banks_ - 1)));
    }

    void
    swapOutOp()
    {
        std::size_t page = rng_.range(0, kPages - 1);
        VirtAddr lo = base_ + page * kPageSize;
        bool live_on_page = false;
        for (const auto &r : regions_)
            live_on_page |= r.second.state == State::Live &&
                            r.first < lo + kPageSize && lo < regionEnd(r);
        bool expect = resident_[page] &&
                      !(live_on_page &&
                        policy_ == SwapWatchPolicy::PinPages);
        EXPECT_EQ(machine_.kernel().swapOutPage(lo), expect)
            << "page " << page;
        if (!expect)
            return;
        resident_[page] = false;
        for (auto &r : regions_) {
            if (r.second.state == State::Live && r.first < lo + kPageSize &&
                lo < regionEnd(r))
                r.second.state = State::SwapParked;
        }
    }

    void
    check(int op)
    {
        std::size_t live_regions = 0;
        std::size_t live_lines = 0;
        for (const auto &r : regions_) {
            if (r.second.state == State::Live) {
                ++live_regions;
                live_lines += r.second.lines;
            }
        }
        ASSERT_EQ(manager_.regionCount(), live_regions) << "op " << op;
        ASSERT_EQ(manager_.watchedBytes(), live_lines * kCacheLineSize)
            << "op " << op;
        ASSERT_EQ(manager_.lineTable().size(), live_lines) << "op " << op;
        ASSERT_EQ(machine_.kernel().watchedLineCount(), live_lines)
            << "op " << op;
        for (std::size_t l = 0; l < kLines; ++l) {
            VirtAddr addr = lineAddr(l);
            auto it = regionAt(addr);
            bool live = it != regions_.end() &&
                        it->second.state == State::Live;
            ASSERT_EQ(machine_.kernel().isWatched(addr), live)
                << "op " << op << " line " << l;
            ASSERT_EQ(manager_.isWatched(addr), regions_.count(addr) != 0)
                << "op " << op << " line " << l;
            ASSERT_EQ(machine_.kernel().pageResident(addr),
                      resident_[l * kCacheLineSize / kPageSize])
                << "op " << op << " line " << l;
        }
    }

    Machine machine_;
    EccWatchManager manager_;
    SwapWatchPolicy policy_;
    unsigned banks_;
    Rng rng_;
    VirtAddr base_ = 0;
    std::map<VirtAddr, Region> regions_;
    std::vector<bool> resident_;
    std::vector<std::uint64_t> memory_;
    std::vector<bool> scrubParked_;
    std::vector<std::pair<VirtAddr, VirtAddr>> faults_;
};

TEST(WatchIndexDifferential, MatchesReferenceModel)
{
    int grew = 0;
    int wrapped = 0;
    int restores = 0;
    for (std::uint32_t banks : {1u, 4u}) {
        for (SwapWatchPolicy policy : {SwapWatchPolicy::UnwatchRewatch,
                                       SwapWatchPolicy::PinPages}) {
            for (std::uint64_t seed : {1u, 2u}) {
                SCOPED_TRACE(testing::Message()
                             << "banks " << banks << " policy "
                             << static_cast<int>(policy) << " seed "
                             << seed);
                WatchIndexDifferential diff(banks, policy, seed);
                diff.run(1500);
                if (testing::Test::HasFatalFailure())
                    return;
                EXPECT_GT(diff.faultsSeen, 0);
                grew += diff.grewMidStream;
                wrapped += diff.wrappedDeletions;
                if (policy == SwapWatchPolicy::UnwatchRewatch)
                    restores += diff.swapRestores;
            }
        }
    }
    EXPECT_GT(grew, 0) << "the line table never grew while holding lines";
    EXPECT_GT(wrapped, 0) << "no deletion wrapped past the table's end";
    EXPECT_GT(restores, 0) << "no swap-parked region was restored";
}

} // namespace
} // namespace safemem
