/**
 * @file
 * Error-detection codes for the block protection geometry.
 *
 * Under a block geometry every cache line (the read granule) carries a
 * small EDC word that rides with the data burst: the controller folds
 * the line's eight 64-bit words into it on writeback and verifies the
 * fold on every fill. A matching fold declares the line clean without
 * fetching any ECC redundancy — the bandwidth win; a mismatch triggers
 * the full codeword ECC decode.
 *
 * Both folds are *linear* in the data (XOR-of-rotations for parity, the
 * linear part of CRC-32): the fold delta of any error pattern is a
 * constant independent of the underlying data. SafeMem's scramble trick
 * depends on this — a scrambled line's fold delta is one fixed value,
 * computed once at kernel boot and verified non-zero (the EDC analogue
 * of the no-miscorrecting-scramble-triple search), so a watched line can
 * never slip through the EDC fast path unnoticed.
 *
 * The folds are honest about their accounted width (edcBitsPerLine):
 * parity keeps 8 bits and CRC-32 keeps 32, so narrow EDCs really can
 * alias multi-bit error patterns — the detection-strength axis of the
 * geometry trade-off, not a simulator bug.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "ecc/geometry.h"

namespace safemem {

/** @return EDC bits stored per cache line under @p kind (8 or 32). */
constexpr unsigned
edcBitsPerLine(EdcKind kind)
{
    return kind == EdcKind::Crc32 ? 32 : 8;
}

/**
 * Fold one cache line's @p nwords data words into its EDC value.
 * Word position enters the fold (rotation schedule / byte order), so
 * permuted lines and repeated patterns fold differently.
 */
std::uint64_t edcLineFold(EdcKind kind, const std::uint64_t *words,
                          std::size_t nwords);

/** @return the fold of an all-zero line — the EDC lane's initial value. */
std::uint64_t edcZeroLineFold(EdcKind kind);

/**
 * @return the constant fold delta of XOR-ing every word of a line with
 * @p mask (both folds are linear, so the delta is data-independent).
 * Zero means the pattern is invisible to this EDC — the kernel panics
 * at boot if the scramble pattern folds to zero.
 */
std::uint64_t edcScrambleFoldDelta(EdcKind kind, std::uint64_t mask);

} // namespace safemem
