/**
 * @file
 * The pluggable ECC codec abstraction.
 *
 * SafeMem's mechanism (paper §2.1, §2.2.2) stands on two properties of
 * the controller's code: real single-bit errors correct transparently,
 * and the 3-bit scramble signature decodes as *uncorrectable*. Neither
 * property is free — it depends on which code the controller implements.
 * EccCodec makes the code a run parameter so fault-injection campaigns
 * can compare codes (and show where the scramble trick breaks), while
 * the machine datapath stays wired to whichever codec its MachineConfig
 * names.
 *
 * All implementations are stateless after construction: every method is
 * const and thread-compatible, so one codec instance may serve many
 * concurrent machines or campaign workers.
 *
 * Besides the per-word encode()/decode(), the interface has two batched
 * calls the controller's line datapath uses: encodeWords() fills the
 * check bytes of a whole burst, and firstUnclean() finds the first group
 * of a burst that does not decode Ok. The defaults loop over the
 * per-word calls; a codec may override them with a devirtualised loop,
 * so a line costs one virtual call rather than eight.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

namespace safemem {

/** Outcome categories of decoding one ECC group. */
enum class EccDecodeStatus : std::uint8_t
{
    Ok,              ///< syndrome zero: data clean
    CorrectedSingle, ///< single-bit error found and corrected
    Uncorrectable    ///< multi-bit error: detected, cannot be corrected
};

/** Result of decoding one ECC group. */
struct EccDecodeResult
{
    EccDecodeStatus status = EccDecodeStatus::Ok;
    /**
     * The decoder's data output. For Ok / CorrectedSingle this is the
     * (possibly corrected) word. For Uncorrectable it is the *raw*,
     * still-corrupt word as read — the controller forwards it as
     * EccFaultInfo::rawData, which is how SafeMem's fault handler
     * recovers the original contents of a scrambled group (unscramble
     * is just re-applying the 3-bit mask). Always set.
     */
    std::uint64_t data = 0;
    /**
     * Bit position fixed when status == CorrectedSingle: [0, dataBits)
     * for data bits, [dataBits, dataBits + checkBits) for check bits.
     * -1 otherwise — including the pure-SEC Hamming decoder's phantom
     * "corrections" of codeword positions that do not exist in the
     * shortened code (see HammingSecCode). Consumers must not assume
     * the value indexes a data word.
     */
    int correctedBit = -1;
};

/**
 * Interface of one (d + k, d) binary ECC code: d data bits protected by
 * k check bits, both at most 64 so a codeword fits two machine words.
 *
 * The machine datapath additionally requires d == 64 and k <= 8 (one
 * check byte per ECC group, the paper's geometry); the campaign engine
 * accepts any EccCodec.
 */
class EccCodec
{
  public:
    virtual ~EccCodec() = default;

    /** @return a short printable name, e.g. "hsiao-72-64". */
    virtual const char *name() const = 0;

    /** @return the number of data bits d per codeword. */
    virtual int dataBits() const = 0;

    /** @return the number of check bits k per codeword. */
    virtual int checkBits() const = 0;

    /** @return the k check bits protecting @p data (low k bits). */
    virtual std::uint64_t encode(std::uint64_t data) const = 0;

    /**
     * Check @p data against the stored @p check bits, correcting a
     * single-bit error when the code can.
     */
    virtual EccDecodeResult decode(std::uint64_t data,
                                   std::uint64_t check) const = 0;

    /** @return the H-matrix column (k-bit syndrome) of data bit @p bit. */
    virtual std::uint64_t column(int bit) const = 0;

    /**
     * @name Batched calls over @p n groups (the line datapath)
     * Check values are the DIMM's check bytes, so both calls require
     * checkBits() <= 8 and panic otherwise.
     */
    /// @{

    /** Store encode(@p words[i]) into @p checks[i] for each i < @p n. */
    virtual void encodeWords(const std::uint64_t *words,
                             std::uint8_t *checks, std::size_t n) const;

    /** @return the least i < @p n whose decode(@p words[i],
     *  @p checks[i]) is not Ok, or @p n when every group is clean. */
    virtual std::size_t firstUnclean(const std::uint64_t *words,
                                     const std::uint8_t *checks,
                                     std::size_t n) const;
    /// @}

  protected:
    /** Panic unless checkBits() fits one check byte (batched calls). */
    void requireByteChecks() const;
};

/** The codec implementations selectable per run. */
enum class EccCodecKind : std::uint8_t
{
    Hsiao,      ///< Hsiao SEC-DED d/k; 64/auto is the paper's (72,64) code
    Hamming64_8 ///< classic Hamming SEC, no detect-only outcome
};

/**
 * Value-type description of a codec — the piece of a RunSpec that names
 * which code the machine (or a campaign cell) runs. Default-constructed
 * it names the paper's (72,64) Hsiao code.
 */
struct EccCodecSpec
{
    EccCodecKind kind = EccCodecKind::Hsiao;
    /** Data bits d (Hsiao only; fixed 64 for Hamming). */
    int dataBits = 64;
    /** Check bits k, 0 = auto-size (Hsiao only). */
    int checkBits = 0;

    bool operator==(const EccCodecSpec &) const = default;
};

/** @return a freshly built codec implementing @p spec (panics on a
 *  malformed spec, e.g. Hsiao dimensions no code satisfies). */
std::unique_ptr<EccCodec> makeCodec(const EccCodecSpec &spec);

/** @return a shared immutable instance of the paper's (72,64) Hsiao
 *  code, for tests and benches that need one without a machine. */
const EccCodec &defaultCodec();

/**
 * Parse a codec name as accepted by the CLI: "hsiao" (the default
 * (72,64) code, also spelt "hsiao-72-64" or "hsiao:64"), "hamming64/8",
 * or "hsiao:<d>" / "hsiao:<d>/<k>" for other Hsiao dimensions.
 * @return nullopt on anything else.
 */
std::optional<EccCodecSpec> parseCodecSpec(const std::string &name);

/** @return the canonical CLI/report name of @p spec. */
std::string codecSpecName(const EccCodecSpec &spec);

} // namespace safemem
