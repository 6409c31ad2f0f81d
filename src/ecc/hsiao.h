/**
 * @file
 * Hsiao single-error-correcting, double-error-detecting code for d data
 * bits and k check bits, with k auto-sized when not given.
 *
 * The default, d = 64 with k auto-sized to 8, is the (72,64) code the
 * paper's controller runs (§2.1: "8 bits to protect 64 bits"). Data
 * columns are distinct odd-weight (>= 3) k-bit values assigned in
 * ascending weight then ascending value; unit vectors belong to the
 * check bits. For the paper's code that is all 56 weight-3 byte values,
 * then the first 8 weight-5 ones. Odd column weight gives the
 * double-error-*detecting* property: the XOR of two odd-weight columns
 * has even weight, so it is neither a column nor a unit vector.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "ecc/codec.h"

namespace safemem {

/**
 * A (d + k, d) Hsiao SEC-DED codec. Stateless after construction; all
 * methods are const and thread-compatible.
 */
class HsiaoCode final : public EccCodec
{
  public:
    /**
     * @param data_bits  d, in [1, 64].
     * @param check_bits k, in [1, 64], or 0 to auto-size (the smallest
     *                   k whose odd-weight >= 3 column pool covers d).
     * Panics when the requested geometry admits no Hsiao code.
     */
    explicit HsiaoCode(int data_bits = 64, int check_bits = 0);

    const char *name() const override { return name_.c_str(); }
    int dataBits() const override { return dataBits_; }
    int checkBits() const override { return checkBits_; }

    /** @return the k check bits protecting the low d bits of @p data;
     *  bits at or past d are ignored. */
    std::uint64_t encode(std::uint64_t data) const override;

    /**
     * Check @p data against the stored @p check bits, correcting a
     * single-bit error when possible.
     */
    EccDecodeResult decode(std::uint64_t data,
                           std::uint64_t check) const override;

    /** @return the H-matrix column (k-bit syndrome) of data bit @p bit. */
    std::uint64_t column(int bit) const override { return columns_[bit]; }

    /** Byte-sliced encode of @p n groups in one call. */
    void encodeWords(const std::uint64_t *words, std::uint8_t *checks,
                     std::size_t n) const override;

    /** @return the first of @p n groups with a nonzero syndrome (the
     *  groups decode() would not call Ok), or @p n. */
    std::size_t firstUnclean(const std::uint64_t *words,
                             const std::uint8_t *checks,
                             std::size_t n) const override;

    /** @return the smallest k whose odd-weight (>= 3) column pool
     *  covers @p data_bits data columns, or 0 when none <= 64 does. */
    static int autoCheckBits(int data_bits);

  private:
    int dataBits_;
    int checkBits_;
    std::string name_; ///< "hsiao-<d+k>-<d>", built once
    /** Syndrome column for each data bit; zero at or past d. */
    std::array<std::uint64_t, 64> columns_{};
    /** Byte-sliced encoder tables: the check bits of one data byte at
     *  each of the 8 byte positions. The code is linear, so encoding is
     *  8 lookups instead of 64 bit tests. */
    std::array<std::array<std::uint64_t, 256>, 8> byteTables_{};
};

} // namespace safemem
