#include "ecc/hsiao.h"

#include <bit>

#include "common/logging.h"

namespace safemem {

namespace {

/** C(n, r) without overflow for the small n this file needs. */
std::uint64_t
binomial(int n, int r)
{
    if (r < 0 || r > n)
        return 0;
    std::uint64_t result = 1;
    for (int i = 0; i < r; ++i)
        result = result * static_cast<std::uint64_t>(n - i) /
                 static_cast<std::uint64_t>(i + 1);
    return result;
}

/** @return the next k-bit value with the same popcount (Gosper's hack),
 *  or 0 when @p v was the largest such value that fits. */
std::uint64_t
nextSameWeight(std::uint64_t v, int k)
{
    std::uint64_t lowest = v & (~v + 1);
    std::uint64_t ripple = v + lowest;
    if (ripple == 0)
        return 0;
    std::uint64_t ones = ((v ^ ripple) >> 2) / lowest;
    std::uint64_t next = ripple | ones;
    if (k < 64 && next >= (1ULL << k))
        return 0;
    return next;
}

} // namespace

int
HsiaoCode::autoCheckBits(int data_bits)
{
    for (int k = 3; k <= 64; ++k) {
        std::uint64_t pool = 0;
        for (int w = 3; w <= k; w += 2)
            pool += binomial(k, w);
        if (pool >= static_cast<std::uint64_t>(data_bits))
            return k;
    }
    return 0;
}

HsiaoCode::HsiaoCode(int data_bits, int check_bits)
    : dataBits_(data_bits), checkBits_(check_bits)
{
    if (dataBits_ < 1 || dataBits_ > 64)
        panic("HsiaoCode: data bits ", dataBits_, " out of [1, 64]");
    if (checkBits_ == 0)
        checkBits_ = autoCheckBits(dataBits_);
    if (checkBits_ < 1 || checkBits_ > 64)
        panic("HsiaoCode: check bits ", checkBits_, " out of [1, 64]");

    // Fill the data columns with distinct odd-weight (>= 3) values,
    // ascending weight then ascending value — the Hsiao recipe that
    // balances the H-matrix rows.
    int next = 0;
    for (int w = 3; w <= checkBits_ && next < dataBits_; w += 2) {
        for (std::uint64_t v = (1ULL << w) - 1; v != 0 && next < dataBits_;
             v = nextSameWeight(v, checkBits_))
            columns_[next++] = v;
    }
    if (next != dataBits_)
        panic("HsiaoCode: only ", next, " odd-weight columns exist for ",
              dataBits_, "/", checkBits_, "; increase the check bits");

    // Each table entry adds one column to the entry with its lowest set
    // bit cleared. Columns at or past d are zero, so those bits never
    // reach the check bits.
    for (int pos = 0; pos < 8; ++pos) {
        std::array<std::uint64_t, 256> &table = byteTables_[pos];
        for (unsigned v = 1; v < 256; ++v)
            table[v] = table[v & (v - 1)] ^
                       column(8 * pos + std::countr_zero(v));
    }

    name_ = "hsiao-" + std::to_string(dataBits_ + checkBits_) + "-" +
            std::to_string(dataBits_);
}

std::uint64_t
HsiaoCode::encode(std::uint64_t data) const
{
    std::uint64_t check = 0;
    for (int pos = 0; pos < 8; ++pos)
        check ^= byteTables_[pos][(data >> (8 * pos)) & 0xff];
    return check;
}

void
HsiaoCode::encodeWords(const std::uint64_t *words, std::uint8_t *checks,
                       std::size_t n) const
{
    requireByteChecks();
    for (std::size_t i = 0; i < n; ++i)
        checks[i] = static_cast<std::uint8_t>(encode(words[i]));
}

std::size_t
HsiaoCode::firstUnclean(const std::uint64_t *words,
                        const std::uint8_t *checks, std::size_t n) const
{
    requireByteChecks();
    // decode() is Ok exactly when the masked syndrome is zero; the
    // check bits fit a byte here, so the stored byte is the whole word.
    const std::uint64_t mask = (1ULL << checkBits_) - 1;
    for (std::size_t i = 0; i < n; ++i)
        if (((encode(words[i]) ^ checks[i]) & mask) != 0)
            return i;
    return n;
}

EccDecodeResult
HsiaoCode::decode(std::uint64_t data, std::uint64_t check) const
{
    EccDecodeResult result;
    std::uint64_t mask =
        checkBits_ == 64 ? ~0ULL : (1ULL << checkBits_) - 1;
    std::uint64_t syndrome = (encode(data) ^ check) & mask;

    if (syndrome == 0) {
        result.status = EccDecodeStatus::Ok;
        result.data = data;
        return result;
    }

    for (int bit = 0; bit < dataBits_; ++bit) {
        if (columns_[bit] == syndrome) {
            result.status = EccDecodeStatus::CorrectedSingle;
            result.data = data ^ (1ULL << bit);
            result.correctedBit = bit;
            return result;
        }
    }

    if (std::popcount(syndrome) == 1) {
        result.status = EccDecodeStatus::CorrectedSingle;
        result.data = data;
        result.correctedBit = dataBits_ + std::countr_zero(syndrome);
        return result;
    }

    result.status = EccDecodeStatus::Uncorrectable;
    result.data = data;
    return result;
}

} // namespace safemem
