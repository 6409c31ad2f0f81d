#include "mem/physical_memory.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "ecc/edc.h"

namespace safemem {

PhysicalMemory::PhysicalMemory(std::size_t bytes, int check_bits,
                               ProtectionGeometry geometry)
    : bytes_(bytes), checkBits_(check_bits), geometry_(geometry)
{
    if (bytes == 0 || !isAligned(bytes, kCacheLineSize))
        fatal("PhysicalMemory: capacity ", bytes,
              " is not a multiple of the line size");
    if (check_bits < 1 || check_bits > 8)
        fatal("PhysicalMemory: check lane of ", check_bits,
              " bits does not fit the DIMM's check byte");
    if (!geometry_.isWord() &&
        !validCodewordBytes(geometry_.codewordBytes))
        fatal("PhysicalMemory: unsupported codeword size ",
              geometry_.codewordBytes);
    if (hasEdcLane())
        zeroFold_ = edcZeroLineFold(geometry_.edc);
    pages_.resize(alignUp(bytes, kPageSize) / kPageSize);
}

PhysicalMemory::Page &
PhysicalMemory::touchPage(PhysAddr addr)
{
    std::unique_ptr<Page> &slot = pages_[addr / kPageSize];
    if (!slot) {
        slot = std::make_unique<Page>();
        if (hasEdcLane())
            slot->edc.assign(kLinesPerPage, zeroFold_);
    }
    return *slot;
}

bool
PhysicalMemory::pageTouched(PhysAddr addr) const
{
    if (addr >= bytes_)
        panic("PhysicalMemory: address ", addr, " beyond capacity ", bytes_);
    return findPage(addr) != nullptr;
}

std::size_t
PhysicalMemory::wordSlot(PhysAddr addr) const
{
    if (!isAligned(addr, kEccGroupSize))
        panic("PhysicalMemory: unaligned word address ", addr);
    if (addr >= bytes_)
        panic("PhysicalMemory: address ", addr, " beyond capacity ", bytes_);
    return addr % kPageSize / kEccGroupSize;
}

std::size_t
PhysicalMemory::burstSlot(PhysAddr addr) const
{
    if (!isAligned(addr, kCacheLineSize))
        panic("PhysicalMemory: unaligned line address ", addr);
    if (addr >= bytes_)
        panic("PhysicalMemory: address ", addr, " beyond capacity ", bytes_);
    return addr % kPageSize / kEccGroupSize;
}

void
PhysicalMemory::readLine(PhysAddr line_addr, std::uint64_t *words,
                         std::uint8_t *checks) const
{
    std::size_t slot = burstSlot(line_addr);
    const Page *page = findPage(line_addr);
    if (!page) {
        std::fill_n(words, kEccGroupsPerLine, 0);
        if (checks)
            std::fill_n(checks, kEccGroupsPerLine, 0);
        return;
    }
    std::memcpy(words, &page->words[slot], kCacheLineSize);
    if (checks)
        std::memcpy(checks, &page->checks[slot], kEccGroupsPerLine);
}

void
PhysicalMemory::writeLine(PhysAddr line_addr, const std::uint64_t *words,
                          const std::uint8_t *checks)
{
    std::size_t slot = burstSlot(line_addr);
    Page &page = touchPage(line_addr);
    std::memcpy(&page.words[slot], words, kCacheLineSize);
    if (checks)
        std::memcpy(&page.checks[slot], checks, kEccGroupsPerLine);
}

std::uint64_t
PhysicalMemory::readWord(PhysAddr addr) const
{
    std::size_t slot = wordSlot(addr);
    const Page *page = findPage(addr);
    return page ? page->words[slot] : 0;
}

void
PhysicalMemory::writeWord(PhysAddr addr, std::uint64_t value)
{
    std::size_t slot = wordSlot(addr);
    touchPage(addr).words[slot] = value;
}

std::uint8_t
PhysicalMemory::readCheck(PhysAddr addr) const
{
    std::size_t slot = wordSlot(addr);
    const Page *page = findPage(addr);
    return page ? page->checks[slot] : 0;
}

void
PhysicalMemory::writeCheck(PhysAddr addr, std::uint8_t check)
{
    std::size_t slot = wordSlot(addr);
    touchPage(addr).checks[slot] = check;
}

void
PhysicalMemory::flipDataBit(PhysAddr addr, int bit)
{
    if (bit < 0 || bit > 63)
        panic("PhysicalMemory: bad data bit ", bit);
    std::size_t slot = wordSlot(addr);
    touchPage(addr).words[slot] ^= 1ULL << bit;
}

void
PhysicalMemory::flipCheckBit(PhysAddr addr, int bit)
{
    if (bit < 0 || bit >= checkBits_)
        panic("PhysicalMemory: bad check bit ", bit);
    std::size_t slot = wordSlot(addr);
    touchPage(addr).checks[slot] ^= static_cast<std::uint8_t>(1u << bit);
}

std::size_t
PhysicalMemory::lineSlot(PhysAddr addr) const
{
    if (!hasEdcLane())
        panic("PhysicalMemory: no EDC lane on a word-geometry DIMM");
    return burstSlot(addr) / kEccGroupsPerLine;
}

std::uint64_t
PhysicalMemory::readEdc(PhysAddr line_addr) const
{
    std::size_t slot = lineSlot(line_addr);
    const Page *page = findPage(line_addr);
    return page ? page->edc[slot] : zeroFold_;
}

void
PhysicalMemory::writeEdc(PhysAddr line_addr, std::uint64_t fold)
{
    std::size_t slot = lineSlot(line_addr);
    touchPage(line_addr).edc[slot] = fold;
}

void
PhysicalMemory::flipEdcBit(PhysAddr line_addr, int bit)
{
    if (bit < 0 ||
        bit >= static_cast<int>(edcBitsPerLine(geometry_.edc)))
        panic("PhysicalMemory: bad EDC bit ", bit);
    std::size_t slot = lineSlot(line_addr);
    touchPage(line_addr).edc[slot] ^= 1ULL << bit;
}

} // namespace safemem
