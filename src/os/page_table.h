/**
 * @file
 * Per-process page table for the simulated kernel.
 *
 * Maps 4 KiB virtual pages onto physical frames and carries the state the
 * rest of the OS layer needs: an accessibility bit (mprotect/PROT_NONE —
 * the page-protection monitoring baseline), a pin count (ECC watchpoints
 * pin their pages, paper §2.2.2 "Dealing with Page Swapping"),
 * swap-residency, and the kernel's watched-line mask. A resident frame
 * backs exactly one entry of one process, so the mask is also the
 * frame's: WatchMemory needs no per-line map and no reverse lookup.
 */

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "common/types.h"

namespace safemem {

/** State of one mapped virtual page. */
struct PageTableEntry
{
    PhysAddr frame = 0;      ///< base physical address of the frame
    bool present = true;     ///< false while swapped out
    bool accessible = true;  ///< false under PROT_NONE
    std::uint32_t pinCount = 0; ///< >0 blocks swapping
    /** Bit l set: line l of the page (64 B each, 64 per 4 KiB page) is
     *  ECC-watched. Only resident pages carry bits. */
    std::uint64_t watchedLines = 0;
};

static_assert(kPageSize / kCacheLineSize == 64,
              "PageTableEntry::watchedLines holds one bit per line");

class PageTable
{
  public:
    /** Install a mapping for the page containing @p vaddr. */
    void map(VirtAddr vpage, PhysAddr frame);

    /** Remove the mapping for @p vpage (must exist). */
    void unmap(VirtAddr vpage);

    /** @return the entry for @p vpage, or nullptr when unmapped. */
    PageTableEntry *find(VirtAddr vpage);
    const PageTableEntry *find(VirtAddr vpage) const;

    /** @return the virtual page owning physical @p frame, if any. */
    std::optional<VirtAddr> reverse(PhysAddr frame) const;

    /** Mark @p vpage swapped out, releasing its frame from the map. */
    void markSwappedOut(VirtAddr vpage);

    /** Re-attach @p vpage to @p frame after a swap-in. */
    void markSwappedIn(VirtAddr vpage, PhysAddr frame);

    /** @return number of mapped pages. */
    std::size_t size() const { return entries_.size(); }

    /** Visit every (vpage, entry) pair. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &[vpage, entry] : entries_)
            fn(vpage, entry);
    }

  private:
    std::unordered_map<VirtAddr, PageTableEntry> entries_;
    std::unordered_map<PhysAddr, VirtAddr> reverse_;
};

} // namespace safemem
