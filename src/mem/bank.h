/**
 * @file
 * One interleaved memory bank: the unit of independent locking.
 *
 * Physical memory is page-interleaved across N banks: page p lives in
 * bank p % N, so every cache line and every frame is wholly owned by
 * exactly one bank. Each bank carries its own bus lock (the paper's
 * memory-bus lock, per bank), its own scrubber cursor, and the only
 * copy of its ControllerStat and GeometryStat counters; the
 * controller's machine-wide view is their sum. With one bank the
 * machine degenerates to the original single-bus chipset.
 */

#pragma once

#include <cstddef>

#include "common/stats.h"
#include "common/types.h"

namespace safemem {

/** Banks are interleaved at page granularity; the cap keeps a bank
 *  footprint representable as one uint64 bit mask everywhere. */
inline constexpr unsigned kMaxMemoryBanks = 64;

/** Slot indices into the controller StatSet; order matches the names. */
enum class ControllerStat : std::size_t
{
    BusLocks,
    InterruptsRaised,
    SingleBitReported,
    SingleBitCorrected,
    MultiBitDetected,
    LineFills,
    LineEvictions,
    ScrubPasses,
};

/** Report/snapshot names for ControllerStat, in enumerator order. */
inline constexpr const char *kControllerStatNames[] = {
    "bus_locks",          "interrupts_raised", "single_bit_reported",
    "single_bit_corrected", "multi_bit_detected", "line_fills",
    "line_evictions",     "scrub_passes",
};

/**
 * Slot indices into the block-geometry StatSet; order matches
 * kGeometryStatNames. These slots only move on block-geometry machines:
 * the per-word SEC-DED default never touches them, so they stay absent
 * from a word-geometry machine's StatSet::all() snapshot.
 */
enum class GeometryStat : std::size_t
{
    EdcChecksPassed,  ///< fills declared clean by the EDC fast path
    EdcChecksFailed,  ///< fills that missed EDC and took the full decode
    BlockDecodes,     ///< whole-codeword ECC decodes (one per EDC miss)
    BlockDecodeWords, ///< words decoded across all block decodes
    PartialWriteRmws, ///< writebacks that opened a new codeword (full RMW)
    OpenCodewordHits, ///< writebacks folded into the open codeword
    LatentFaultWords, ///< uncorrectable words outside the requested line
    EdcRefreshes,     ///< stale-but-clean EDC folds rewritten
    RedundancyBytesRead,    ///< EDC + ECC + RMW traffic read
    RedundancyBytesWritten, ///< EDC + ECC traffic written
    DataBytesRead,    ///< demand data read by fills
    DataBytesWritten, ///< demand data written by evictions
};

/** Report/snapshot names for GeometryStat, in enumerator order. */
inline constexpr const char *kGeometryStatNames[] = {
    "edc_checks_passed",
    "edc_checks_failed",
    "block_decodes",
    "block_decode_words",
    "partial_write_rmws",
    "open_codeword_hits",
    "latent_fault_words",
    "edc_refreshes",
    "redundancy_bytes_read",
    "redundancy_bytes_written",
    "data_bytes_read",
    "data_bytes_written",
};

/**
 * Per-bank state owned by the MemoryController. The controller is the
 * only mutator (its private lockBank/unlockBank, reached through
 * BankSetLockGuard, and scrubBank); everyone else reads through the
 * const accessors.
 */
class MemoryBank
{
  public:
    explicit MemoryBank(unsigned id)
        : id_(id), scrubCursor_(static_cast<PhysAddr>(id) * kPageSize)
    {
    }

    /** @return this bank's index in [0, numBanks). */
    unsigned id() const { return id_; }

    /** @return whether this bank's bus lock is currently held. */
    bool locked() const { return locked_; }

    /** @return the next page this bank's scrubber will visit. */
    PhysAddr scrubCursor() const { return scrubCursor_; }

    /** @return this bank's slice of the controller statistics. */
    const StatSet &stats() const { return stats_; }

    /** @return this bank's slice of the block-geometry statistics
     *  (all-zero on a word-geometry machine). */
    const StatSet &geometryStats() const { return geomStats_; }

  private:
    friend class MemoryController;

    unsigned id_;
    bool locked_ = false;  ///< bus lock, audited by SimCheck
    PhysAddr scrubCursor_;  ///< patrol position within this bank's slice
    StatSet stats_{kControllerStatNames};
    StatSet geomStats_{kGeometryStatNames};
    /** Codeword held open in this bank's write-combine buffer: further
     *  writebacks into it fold their redundancy update incrementally
     *  instead of paying the full read-modify-write (block geometry
     *  only; ~0 = nothing open). */
    PhysAddr openCodeword_ = ~PhysAddr{0};
};

} // namespace safemem
