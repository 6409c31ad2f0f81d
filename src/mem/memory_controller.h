/**
 * @file
 * The ECC memory controller (paper §2.1, Figure 1), sharded into banks.
 *
 * Sits between the cache and PhysicalMemory. On a line writeback it encodes
 * a check byte per 64-bit ECC group (unless ECC is Disabled, in which case
 * stored check bytes go stale — the hook SafeMem's scramble trick relies
 * on). On a line fill it decodes every group: single-bit errors are
 * corrected in CorrectError modes, and uncorrectable mismatches raise an
 * interrupt on the wire registered with setInterruptHandler().
 *
 * The datapath moves whole lines: a fill or writeback is one DRAM burst
 * (PhysicalMemory::readLine/writeLine) and one batched codec call. A
 * fill delivers the groups before the first unclean one straight from
 * the burst and decodes the rest one by one, re-reading each, because
 * the interrupt for one group may rewrite the remainder of the line.
 *
 * Physical memory is page-interleaved across numBanks() MemoryBank
 * objects (bank.h). The bank is the controller's only unit of locking
 * and of accounting: a BankSetLockGuard is the one way to take bank
 * locks, every stat site bumps one bank's slot, and stats() /
 * geometryStats() sum the banks. Traffic is gated per bank: a fill of
 * bank 2 proceeds while bank 0 is locked for a scramble.
 *
 * Device-initiated accesses used by the kernel (word writes during a
 * scramble, raw line peeks) charge no cycles; the kernel bills calibrated
 * syscall totals instead. Cache-initiated fills/evictions charge
 * kDramLineCycles.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/clock.h"
#include "common/stats.h"
#include "common/types.h"
#include "ecc/codec.h"
#include "ecc/geometry.h"
#include "mem/bank.h"
#include "mem/fault.h"
#include "mem/line.h"
#include "mem/physical_memory.h"

namespace safemem {

class Trace;

class MemoryController
{
  public:
    /**
     * @param code the ECC codec wired into the datapath (must outlive
     *        the controller). The machine geometry requires 64 data
     *        bits, a check word that fits the DIMM's check lane, and
     *        encode(0) == 0 so never-written DRAM decodes clean;
     *        anything else panics at construction.
     * @param banks number of interleaved banks in [1, kMaxMemoryBanks];
     *        the DIMM must hold at least one page per bank.
     * @param geometry protection geometry of the datapath. A block
     *        geometry requires a DIMM organised with the matching EDC
     *        lane; the word default is bit-identical to the
     *        pre-geometry controller.
     */
    MemoryController(PhysicalMemory &memory, CycleClock &clock,
                     Trace *trace = nullptr,
                     const EccCodec &code = defaultCodec(),
                     unsigned banks = 1, ProtectionGeometry geometry = {});

    /** @return the codec wired into the datapath. */
    const EccCodec &code() const { return code_; }

    /** @return the protection geometry wired into the datapath. */
    const ProtectionGeometry &geometry() const { return geometry_; }

    /** Switch the controller operating mode (device register write). */
    void setMode(EccMode mode) { mode_ = mode; }

    /** @return the current operating mode. */
    EccMode mode() const { return mode_; }

    /** Register the interrupt wire into the kernel. */
    void setInterruptHandler(EccInterruptHandler handler);

    /**
     * @name Bank geometry.
     */
    /// @{
    /** @return the number of interleaved banks. */
    unsigned numBanks() const { return static_cast<unsigned>(banks_.size()); }

    /** @return the bank owning @p addr (page-granular interleave). */
    unsigned bankOf(PhysAddr addr) const
    {
        return static_cast<unsigned>((addr / kPageSize) % banks_.size());
    }

    /** @return bank @p id for inspection (stats, lock state, cursor). */
    const MemoryBank &bank(unsigned id) const;

    /** @return bit mask of the banks spanned by [addr, addr+bytes). */
    std::uint64_t bankMaskForSpan(PhysAddr addr, std::size_t bytes) const;
    /// @}

    /**
     * Cache-initiated line fill with full ECC decode.
     *
     * @param line_addr line-aligned physical address.
     * @param out       receives the (possibly corrected) line contents.
     * @return false when any group had an uncorrectable error; the
     *         interrupt handler has already run by then and the caller is
     *         expected to retry the fill.
     */
    bool fillLine(PhysAddr line_addr, LineData &out);

    /** Cache-initiated writeback; encodes check bytes per current mode. */
    void evictLine(PhysAddr line_addr, const LineData &data);

    /**
     * Device-initiated word write honouring the current mode: with ECC
     * Disabled the stored check byte is left untouched. Charges no cycles.
     */
    void writeWordDeviceOp(PhysAddr word_addr, std::uint64_t value);

    /** Device-initiated line write of kEccGroupsPerLine @p words in
     *  one burst, honouring the mode as writeWordDeviceOp() does: the
     *  check bytes are re-encoded unless ECC is Disabled (kernel
     *  swap-in, SafeMem's repair path). Charges no cycles. */
    void writeLineDeviceOp(PhysAddr line_addr, const std::uint64_t *words);

    /** Device-initiated read-modify-write of one line: XOR every group
     *  with @p mask and write the burst back, honouring the mode as
     *  writeWordDeviceOp() does (the kernel's scramble and unscramble).
     *  Charges no cycles. */
    void xorLineDeviceOp(PhysAddr line_addr, std::uint64_t mask);

    /** Uncharged, unchecked word read (kernel save path, tests). */
    std::uint64_t peekWord(PhysAddr word_addr) const;

    /** Uncharged, unchecked line read (kernel save path, tests). */
    void peekLine(PhysAddr line_addr, LineData &out) const;

    /**
     * Scrub @p lines cache lines starting at @p start_line: decode every
     * group, rewrite corrected singles, raise ScrubMultiBit interrupts on
     * uncorrectable groups. Spanned banks must be unlocked.
     */
    void scrubRange(PhysAddr start_line, std::size_t lines);

    /**
     * One full scrub pass over bank @p id's slice of memory: its pages
     * in ascending address order, advancing the bank's scrub cursor.
     * With one bank this is exactly the old whole-memory scrub pass.
     * A page that was never written is not decoded — it cannot hold an
     * error — but is charged the same patrol cycles as a decoded one.
     */
    void scrubBank(unsigned id);

    /** Scrub all of physical memory, bank by bank in ascending order. */
    void scrubAll();

    /** @return machine-wide controller statistics: the sum of the
     *  banks' slots, built on each call. */
    StatSet stats() const;

    /** @return machine-wide block-geometry statistics: the sum of the
     *  banks' slots (none touched on the word default). */
    StatSet geometryStats() const;

    /** @return whether the stored EDC fold of the line at @p line_addr
     *  matches its stored data. Trivially true on the word default
     *  (no EDC lane exists). Uncharged — SimCheck audits and tests. */
    bool edcConsistent(PhysAddr line_addr) const;

    /** @return underlying DRAM (fault injection in tests). */
    PhysicalMemory &memory() { return memory_; }

  private:
    friend class BankSetLockGuard;

    /**
     * @name Memory-bus lock (held around scrambles, paper §2.2.2).
     *
     * Each bank is an independently lockable bus segment: lockBank(b)
     * stalls only traffic to bank b. Locking a held bank or unlocking a
     * free one panics. Only BankSetLockGuard calls these, so every bank
     * lock is released on scope exit, panics included.
     */
    /// @{
    void lockBank(unsigned id);
    void unlockBank(unsigned id);
    /// @}

    /**
     * Decode one group during a fill/scrub.
     * @return false on an uncorrectable error (interrupt already raised).
     */
    bool decodeWord(PhysAddr word_addr, bool scrubbing,
                    std::uint64_t &data_out);

    /** @return the EDC fold of the stored data of the line at
     *  @p line_addr (block geometries only). */
    std::uint64_t storedLineFold(PhysAddr line_addr) const;

    /**
     * Full long-code ECC decode of the codeword containing
     * @p line_addr, after an EDC miss. Words of the requested line get
     * the word-default fault semantics (heal / report / raise);
     * uncorrectable words elsewhere in the codeword are counted latent
     * instead of raising, so one scrambled neighbour cannot storm the
     * interrupt wire with faults nobody demanded. Lines that decode
     * clean get stale EDC folds refreshed — correcting modes only,
     * because CheckOnly never heals and a refresh would bless the very
     * error a stale fold is flagging.
     * @param out receives the requested line when non-null.
     * @return false when a word of the requested line was uncorrectable.
     */
    bool blockDecode(PhysAddr line_addr, bool scrubbing, LineData *out);

    /** decodeWord for codeword words outside the requested line: heals
     *  singles in correcting modes, counts uncorrectable words as
     *  latent instead of raising. @return whether the stored word ends
     *  up clean. */
    bool latentDecodeWord(PhysAddr word_addr);

    /** Scrub one line: per-word decode on the word default; EDC
     *  fast-check with decode-on-miss under a block geometry. */
    void scrubLine(PhysAddr line_addr);

    /** SimCheck: written-back line must read back verbatim and decode
     *  clean (run only while auditing is enabled). */
    void auditWritebackCoherence(PhysAddr line_addr,
                                 const LineData &data) const;

    void raise(const EccFaultInfo &info);

    PhysicalMemory &memory_;
    CycleClock &clock_;
    const EccCodec &code_;
    EccMode mode_ = EccMode::CorrectError;
    std::vector<MemoryBank> banks_;
    EccInterruptHandler interruptHandler_;
    Trace *trace_;
    ProtectionGeometry geometry_;
};

/**
 * RAII holder of a set of bank locks, given as a bit mask (bits at or
 * above numBanks() are ignored, so ~0 takes every bank). This is the
 * only way to lock a bank. It locks ascending and releases descending,
 * so two guards can never deadlock in a future preemptive world. The
 * kernel's scramble and unscramble paths panic on malformed requests
 * while banks are held; unwinding through the guard releases them
 * instead of wedging every later lock (see test_lock_discipline.cc). A
 * constructor that panics part-way releases the banks it already took.
 */
class BankSetLockGuard
{
  public:
    BankSetLockGuard(MemoryController &controller, std::uint64_t mask)
        : controller_(controller)
    {
        try {
            for (unsigned b = 0; b < controller_.numBanks(); ++b) {
                if (mask >> b & 1) {
                    controller_.lockBank(b);
                    held_ |= std::uint64_t{1} << b;
                }
            }
        } catch (...) {
            release();
            throw;
        }
    }

    ~BankSetLockGuard() { release(); }

    BankSetLockGuard(const BankSetLockGuard &) = delete;
    BankSetLockGuard &operator=(const BankSetLockGuard &) = delete;

  private:
    void release()
    {
        for (unsigned b = controller_.numBanks(); b-- > 0;)
            if (held_ >> b & 1)
                controller_.unlockBank(b);
    }

    MemoryController &controller_;
    std::uint64_t held_ = 0; ///< banks this guard actually locked
};

} // namespace safemem
