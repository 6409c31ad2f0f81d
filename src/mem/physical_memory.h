/**
 * @file
 * Simulated DRAM: data words plus their stored ECC check bytes.
 *
 * PhysicalMemory is deliberately dumb — it models the DIMMs, not the
 * controller. All ECC policy (encode on write, check on read, scrubbing,
 * fault raising) lives in MemoryController, including which codec fills
 * the check bits; the DIMM only knows how many check bits per group it
 * physically has. Raw accessors here neither charge cycles nor validate
 * codes; they are what the controller's datapath and the test
 * fault-injection hooks are built from.
 *
 * Storage is footprint-proportional: a page table holds one slot per
 * 4 KiB frame, and a frame's data, check and EDC lanes are allocated on
 * the first write (or injected fault) that lands in it. An untouched
 * frame reads as all-zero data with all-zero check bytes and
 * edcZeroLineFold() folds — exactly what a zero-filled DIMM would hold,
 * and a clean codeword under any codec with encode(0) == 0 (which
 * MemoryController checks at boot). Reads never allocate.
 *
 * The controller's datapath moves whole lines: readLine() and
 * writeLine() transfer one 64-byte burst of eight ECC groups with
 * their check bytes, validating the line address and finding its page
 * once per burst. The per-word accessors remain for single-word fault
 * injection, tests and benches, and for the controller's per-word
 * decode of a group that did not read back clean.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "ecc/geometry.h"

namespace safemem {

class PhysicalMemory
{
  public:
    /**
     * Sizes the page table only; no lane storage is allocated until a
     * page is first written, so construction costs one pointer per
     * frame regardless of what the workload goes on to touch.
     *
     * @param bytes      capacity; must be a non-zero multiple of the
     *                   cache-line size. It need not be a page
     *                   multiple: the tail frame is addressable up to
     *                   the capacity and no further.
     * @param check_bits stored check bits per 64-bit ECC group, in
     *                   [1, 8] — the width of the DIMM's check lane
     *                   (8 for the paper's x72 modules). Fault
     *                   injection validates bit indices against it.
     * @param geometry   protection geometry the DIMM is organised for.
     *                   A block geometry adds an EDC lane (one fold
     *                   word per cache line, riding with the data
     *                   burst); the word default adds nothing and is
     *                   bit-identical to the pre-geometry DIMM.
     */
    explicit PhysicalMemory(std::size_t bytes, int check_bits = 8,
                            ProtectionGeometry geometry = {});

    /** @return capacity in bytes. */
    std::size_t size() const { return bytes_; }

    /** @return stored check bits per ECC group. */
    int checkBits() const { return checkBits_; }

    /** @return whether the frame holding @p addr has been written (or
     *  had a fault injected) since power-on. An untouched frame reads
     *  as zero-filled DRAM. */
    bool pageTouched(PhysAddr addr) const;

    /** @name Line bursts (the controller datapath)
     *  One cache line of kEccGroupsPerLine data words and their check
     *  bytes. Both calls panic on a line address that is not
     *  line-aligned or lies past the capacity. */
    /// @{

    /**
     * Read the line at @p line_addr into @p words and, when @p checks is
     * non-null, its stored check bytes into @p checks (each array holds
     * kEccGroupsPerLine entries). An untouched page reads as zeros and
     * stays untouched.
     */
    void readLine(PhysAddr line_addr, std::uint64_t *words,
                  std::uint8_t *checks) const;

    /**
     * Store @p words as the line at @p line_addr and, when @p checks is
     * non-null, @p checks as its check bytes; a null @p checks leaves
     * the stored check bytes as they were (ECC Disabled writes).
     * Materialises the line's own page only.
     */
    void writeLine(PhysAddr line_addr, const std::uint64_t *words,
                   const std::uint8_t *checks);
    /// @}

    /** @return the data word at 8-byte-aligned physical address @p addr. */
    std::uint64_t readWord(PhysAddr addr) const;

    /** Store @p value at 8-byte-aligned @p addr without touching ECC. */
    void writeWord(PhysAddr addr, std::uint64_t value);

    /** @return the stored check byte for the word at @p addr. */
    std::uint8_t readCheck(PhysAddr addr) const;

    /** Overwrite the stored check byte for the word at @p addr. */
    void writeCheck(PhysAddr addr, std::uint8_t check);

    /** Flip one stored data bit — models a hardware memory error. */
    void flipDataBit(PhysAddr addr, int bit);

    /** Flip one stored check bit (< checkBits()) — models a hardware
     *  memory error. */
    void flipCheckBit(PhysAddr addr, int bit);

    /** @name EDC lane (block geometries only)
     *  One fold word per cache line, stored with the data burst. The
     *  accessors panic on a word-geometry DIMM — the lane physically
     *  does not exist there. */
    /// @{

    /** @return whether this DIMM carries an EDC lane. */
    bool hasEdcLane() const { return !geometry_.isWord(); }

    /** @return the geometry this DIMM was organised for. */
    const ProtectionGeometry &geometry() const { return geometry_; }

    /** @return the stored EDC fold of the line at @p line_addr. */
    std::uint64_t readEdc(PhysAddr line_addr) const;

    /** Overwrite the stored EDC fold of the line at @p line_addr. */
    void writeEdc(PhysAddr line_addr, std::uint64_t fold);

    /** Flip one stored EDC bit (< the geometry's EDC width) — models a
     *  hardware memory error in the EDC lane. */
    void flipEdcBit(PhysAddr line_addr, int bit);
    /// @}

  private:
    static constexpr std::size_t kWordsPerPage = kPageSize / kEccGroupSize;
    static constexpr std::size_t kLinesPerPage = kPageSize / kCacheLineSize;

    /** One frame's lanes, allocated on its first write. */
    struct Page
    {
        std::array<std::uint64_t, kWordsPerPage> words{};
        std::array<std::uint8_t, kWordsPerPage> checks{};
        /** EDC lane: one fold per line; empty for word geometry. */
        std::vector<std::uint64_t> edc;
    };

    /** Validate a word address. @return its slot within its page. */
    std::size_t wordSlot(PhysAddr addr) const;
    /** Validate a line address. @return the slot of its first word
     *  within its page. */
    std::size_t burstSlot(PhysAddr addr) const;
    /** Validate a line address on the EDC lane. @return its slot
     *  within its page. */
    std::size_t lineSlot(PhysAddr addr) const;

    /** @return the page holding @p addr, or null while untouched. */
    const Page *findPage(PhysAddr addr) const
    {
        return pages_[addr / kPageSize].get();
    }

    /** @return the page holding @p addr, materialising it zero-filled
     *  (with zero-line EDC folds) on first use. */
    Page &touchPage(PhysAddr addr);

    std::size_t bytes_;
    int checkBits_;
    ProtectionGeometry geometry_;
    /** What an untouched line's EDC lane holds (block geometries). */
    std::uint64_t zeroFold_ = 0;
    /** One slot per frame; null until the frame's first write. */
    std::vector<std::unique_ptr<Page>> pages_;
};

} // namespace safemem
