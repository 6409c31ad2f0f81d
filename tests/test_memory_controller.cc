/**
 * @file
 * Tests for PhysicalMemory and the ECC MemoryController.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "common/clock.h"
#include "common/costs.h"
#include "common/logging.h"
#include "common/random.h"
#include "ecc/edc.h"
#include "ecc/geometry.h"
#include "ecc/hsiao.h"
#include "ecc/scramble.h"
#include "mem/memory_controller.h"
#include "mem/physical_memory.h"
#include "os/machine.h"

namespace safemem {
namespace {

class ControllerTest : public ::testing::Test
{
  protected:
    ControllerTest() : memory(64 * 1024), controller(memory, clock)
    {
        controller.setInterruptHandler([this](const EccFaultInfo &info) {
            ++interrupts;
            lastFault = info;
        });
    }

    CycleClock clock;
    PhysicalMemory memory;
    MemoryController controller;
    int interrupts = 0;
    EccFaultInfo lastFault;
};

TEST_F(ControllerTest, EvictionEncodesEveryGroup)
{
    LineData line{};
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        setLineWord(line, i, 0x1111111111111111ULL * (i + 1));
    controller.evictLine(128, line);

    const EccCodec &code = defaultCodec();
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        PhysAddr addr = 128 + i * kEccGroupSize;
        EXPECT_EQ(memory.readCheck(addr),
                  code.encode(memory.readWord(addr)));
    }
}

TEST_F(ControllerTest, FillReturnsWrittenData)
{
    LineData line{};
    setLineWord(line, 3, 0xabcdefULL);
    controller.evictLine(256, line);

    LineData out{};
    EXPECT_TRUE(controller.fillLine(256, out));
    EXPECT_EQ(lineWord(out, 3), 0xabcdefULL);
    EXPECT_EQ(interrupts, 0);
}

TEST_F(ControllerTest, FillChargesDramLatency)
{
    LineData out{};
    Cycles before = clock.now();
    controller.fillLine(0, out);
    EXPECT_EQ(clock.now() - before, kDramLineCycles);
}

TEST_F(ControllerTest, SingleBitErrorCorrectedAndHealed)
{
    LineData line{};
    setLineWord(line, 0, 0x123456789abcdef0ULL);
    controller.evictLine(0, line);
    memory.flipDataBit(0, 42);

    LineData out{};
    EXPECT_TRUE(controller.fillLine(0, out));
    EXPECT_EQ(lineWord(out, 0), 0x123456789abcdef0ULL);
    EXPECT_EQ(interrupts, 0);
    EXPECT_EQ(controller.stats().get("single_bit_corrected"), 1u);
    // Healed in place: a second fill sees clean memory.
    EXPECT_EQ(memory.readWord(0), 0x123456789abcdef0ULL);
}

TEST_F(ControllerTest, CheckBitOnlyErrorCorrectsTransparently)
{
    // Satellite of the correctedBit contract audit: a flipped *check*
    // bit decodes as CorrectedSingle with correctedBit in [64, 72) and
    // must ride the exact same transparent-correction path as a data
    // bit — correct fill data, no interrupt, stat bumped, storage
    // healed — without anything downstream treating 64+ as a data
    // index.
    LineData line{};
    setLineWord(line, 2, 0x0f0f0f0f0f0f0f0fULL);
    controller.evictLine(0, line);
    const PhysAddr addr = 2 * kEccGroupSize;
    const std::uint8_t good_check = memory.readCheck(addr);
    memory.flipCheckBit(addr, 6);

    LineData out{};
    EXPECT_TRUE(controller.fillLine(0, out));
    EXPECT_EQ(lineWord(out, 2), 0x0f0f0f0f0f0f0f0fULL);
    EXPECT_EQ(interrupts, 0);
    EXPECT_EQ(controller.stats().get("single_bit_corrected"), 1u);
    // Healed in place: the stored check byte is rewritten, so a second
    // fill decodes clean.
    EXPECT_EQ(memory.readCheck(addr), good_check);
    EXPECT_EQ(memory.readWord(addr), 0x0f0f0f0f0f0f0f0fULL);
}

TEST_F(ControllerTest, CustomCodecDrivesTheDatapath)
{
    // A controller built over a non-default codec encodes and decodes
    // with it: the check bytes in storage follow the configured code.
    HsiaoCode code(64, 8);
    MemoryController custom(memory, clock, nullptr, code);
    LineData line{};
    setLineWord(line, 0, 0xfeedULL);
    custom.evictLine(128, line);
    EXPECT_EQ(memory.readCheck(128),
              static_cast<std::uint8_t>(code.encode(0xfeedULL)));
    EXPECT_EQ(&custom.code(), &code);
}

TEST_F(ControllerTest, CodecGeometryIsValidatedAtConstruction)
{
    // The machine datapath stores one check byte per ECC group: a codec
    // needing more check bits than the DIMM provides (or a non-64-bit
    // data word) must be rejected up front, not corrupt silently.
    HsiaoCode narrow(16);
    EXPECT_THROW(MemoryController(memory, clock, nullptr, narrow),
                 PanicError);
    PhysicalMemory small_checks(4096, 4);
    HsiaoCode full(64, 8);
    EXPECT_THROW(MemoryController(small_checks, clock, nullptr, full),
                 PanicError);
}

/** A Hsiao code with every check word complemented in its low bit:
 *  a perfectly good SEC-DED code, but affine — zero data encodes to a
 *  non-zero check word. */
class AffineCodec : public EccCodec
{
  public:
    const char *name() const override { return "affine-hsiao"; }
    int dataBits() const override { return 64; }
    int checkBits() const override { return 8; }
    std::uint64_t encode(std::uint64_t data) const override
    {
        return inner_.encode(data) ^ 1;
    }
    EccDecodeResult decode(std::uint64_t data,
                           std::uint64_t check) const override
    {
        return inner_.decode(data, check ^ 1);
    }
    std::uint64_t column(int bit) const override
    {
        return inner_.column(bit);
    }

  private:
    HsiaoCode inner_{64, 8};
};

TEST_F(ControllerTest, AffineCodecIsRejectedAtConstruction)
{
    // Never-written DRAM reads as zero data with zero check bytes, so a
    // codec whose zero codeword is not all-zero would see every
    // untouched word as corrupt. The controller refuses it at boot.
    AffineCodec affine;
    ASSERT_NE(affine.encode(0), 0u);
    EXPECT_THROW(MemoryController(memory, clock, nullptr, affine),
                 PanicError);
}

TEST_F(ControllerTest, MultiBitErrorRaisesInterruptAndFailsFill)
{
    memory.flipDataBit(64, 1);
    memory.flipDataBit(64, 2);

    LineData out{};
    EXPECT_FALSE(controller.fillLine(64, out));
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(lastFault.kind, EccFaultKind::MultiBit);
    EXPECT_EQ(lastFault.lineAddr, 64u);
    EXPECT_EQ(lastFault.wordIndex, 0);
}

TEST_F(ControllerTest, CheckOnlyModeReportsWithoutCorrecting)
{
    controller.setMode(EccMode::CheckOnly);
    LineData line{};
    setLineWord(line, 0, 0xffULL);
    controller.setMode(EccMode::CorrectError);
    controller.evictLine(0, line);
    controller.setMode(EccMode::CheckOnly);
    memory.flipDataBit(0, 0);

    LineData out{};
    EXPECT_TRUE(controller.fillLine(0, out));
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(lastFault.kind, EccFaultKind::UnreportedSingle);
    EXPECT_EQ(memory.readWord(0), 0xfeULL) << "not corrected";
}

TEST_F(ControllerTest, DisabledModeSkipsChecksAndStalesChecks)
{
    // Writing a word with ECC disabled leaves the stored check byte
    // stale — the foundation of the WatchMemory scramble.
    LineData line{};
    setLineWord(line, 0, 0x1010ULL);
    controller.evictLine(0, line);
    std::uint8_t old_check = memory.readCheck(0);

    controller.setMode(EccMode::Disabled);
    controller.writeWordDeviceOp(0, 0x2020ULL);
    EXPECT_EQ(memory.readCheck(0), old_check);

    // Reads with ECC disabled never check.
    LineData out{};
    EXPECT_TRUE(controller.fillLine(0, out));
    EXPECT_EQ(interrupts, 0);

    // Re-enabled, the stale code trips.
    controller.setMode(EccMode::CorrectError);
    EXPECT_FALSE(controller.fillLine(0, out));
    EXPECT_EQ(interrupts, 1);
}

TEST_F(ControllerTest, DeviceWriteWithEccOnRegeneratesCheck)
{
    controller.writeWordDeviceOp(8, 0x7777ULL);
    EXPECT_EQ(memory.readCheck(8),
              defaultCodec().encode(0x7777ULL));
}

TEST_F(ControllerTest, ScrubCorrectsSinglesAndReportsMulti)
{
    LineData line{};
    setLineWord(line, 0, 0xaaaaULL);
    setLineWord(line, 1, 0xbbbbULL);
    controller.evictLine(0, line);
    memory.flipDataBit(0, 5);       // single: will be healed
    memory.flipDataBit(8, 1);       // double on word 1: reported
    memory.flipDataBit(8, 2);

    controller.scrubRange(0, 1);
    EXPECT_EQ(memory.readWord(0), 0xaaaaULL);
    EXPECT_EQ(interrupts, 1);
    EXPECT_EQ(lastFault.kind, EccFaultKind::ScrubMultiBit);
}

TEST_F(ControllerTest, FillSeesWhatTheInterruptHandlerRewrote)
{
    // The interrupt for one group may rewrite the rest of the line
    // (SafeMem's handler unscrambles it). The groups after the faulting
    // one must come back as the handler left them, each decoded anew —
    // not as they sat in the burst the fill started from.
    const EccCodec &code = defaultCodec();
    const std::uint64_t mask = findScramblePositions(code)->mask();
    for (std::size_t bad = 0; bad < kEccGroupsPerLine; ++bad) {
        const PhysAddr line_addr = 256 + bad * kCacheLineSize;
        std::uint64_t before[kEccGroupsPerLine];
        std::uint64_t after[kEccGroupsPerLine];
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
            before[i] = 0x0101010101010101ULL * (i + 1) + bad;
            after[i] = i < bad ? before[i] : ~before[i];
        }
        controller.writeLineDeviceOp(line_addr, before);
        // Scramble groups bad..7 with stale check bytes.
        controller.setMode(EccMode::Disabled);
        for (std::size_t i = bad; i < kEccGroupsPerLine; ++i)
            controller.writeWordDeviceOp(line_addr + i * kEccGroupSize,
                                         before[i] ^ mask);
        controller.setMode(EccMode::CorrectError);

        int raised = 0;
        controller.setInterruptHandler([&](const EccFaultInfo &info) {
            ++raised;
            EXPECT_EQ(info.wordIndex, static_cast<int>(bad));
            controller.writeLineDeviceOp(line_addr, after);
        });
        LineData out{};
        EXPECT_FALSE(controller.fillLine(line_addr, out)) << bad;
        EXPECT_EQ(raised, 1) << "group " << bad;
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
            // The faulting group is forwarded raw, as read.
            const std::uint64_t expected =
                i == bad ? before[i] ^ mask : after[i];
            EXPECT_EQ(lineWord(out, i), expected)
                << "fault at " << bad << ", word " << i;
        }
        // The retried fill is clean.
        EXPECT_TRUE(controller.fillLine(line_addr, out));
        EXPECT_EQ(raised, 1);
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
            EXPECT_EQ(lineWord(out, i), after[i]) << bad << " " << i;
    }
}

TEST_F(ControllerTest, LineDeviceOpsHonourTheMode)
{
    const EccCodec &code = defaultCodec();
    std::uint64_t words[kEccGroupsPerLine];
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        words[i] = 0x1234567ULL * (i + 3);
    controller.writeLineDeviceOp(64, words);
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        EXPECT_EQ(memory.readWord(64 + i * kEccGroupSize), words[i]);
        EXPECT_EQ(memory.readCheck(64 + i * kEccGroupSize),
                  code.encode(words[i]));
    }

    // With ECC Disabled an XOR leaves every check byte stale ...
    const std::uint64_t mask = 0x8000000000000011ULL;
    controller.setMode(EccMode::Disabled);
    controller.xorLineDeviceOp(64, mask);
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        EXPECT_EQ(memory.readWord(64 + i * kEccGroupSize), words[i] ^ mask);
        EXPECT_EQ(memory.readCheck(64 + i * kEccGroupSize),
                  code.encode(words[i]));
    }
    // ... and so does a Disabled writeback.
    LineData line{};
    controller.evictLine(64, line);
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        EXPECT_EQ(memory.readWord(64 + i * kEccGroupSize), 0u);
        EXPECT_EQ(memory.readCheck(64 + i * kEccGroupSize),
                  code.encode(words[i]));
    }

    // With ECC on, the XOR re-encodes.
    controller.setMode(EccMode::CorrectError);
    controller.xorLineDeviceOp(64, mask);
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        EXPECT_EQ(memory.readWord(64 + i * kEccGroupSize), mask);
        EXPECT_EQ(memory.readCheck(64 + i * kEccGroupSize),
                  code.encode(mask));
    }
    EXPECT_THROW(controller.xorLineDeviceOp(72, mask), PanicError);
    EXPECT_THROW(controller.writeLineDeviceOp(memory.size(), words),
                 PanicError);
}

TEST_F(ControllerTest, BusLockBlocksTransfersViaPanic)
{
    LineData out{};
    {
        BankSetLockGuard bus(controller, ~std::uint64_t{0});
        EXPECT_TRUE(controller.bank(0).locked());
        EXPECT_THROW(controller.fillLine(0, out), PanicError);
        EXPECT_THROW(controller.evictLine(0, out), PanicError);
    }
    EXPECT_TRUE(controller.fillLine(0, out));
}

TEST_F(ControllerTest, BusLockBlocksScrubViaPanic)
{
    // A scrub pass is bus traffic like any other: running one while the
    // bus is locked for a scramble would read half-scrambled lines.
    {
        BankSetLockGuard bus(controller, ~std::uint64_t{0});
        EXPECT_THROW(controller.scrubRange(0, 1), PanicError);
    }
    controller.scrubRange(0, 1);
}

TEST_F(ControllerTest, DoubleBusLockPanics)
{
    BankSetLockGuard bus(controller, ~std::uint64_t{0});
    EXPECT_THROW(BankSetLockGuard again(controller, ~std::uint64_t{0}),
                 PanicError);
    EXPECT_TRUE(controller.bank(0).locked());
}

TEST_F(ControllerTest, UnalignedFillPanics)
{
    LineData out{};
    EXPECT_THROW(controller.fillLine(12, out), PanicError);
}

TEST_F(ControllerTest, InterruptWithNoHandlerPanics)
{
    MemoryController bare(memory, clock);
    memory.flipDataBit(0, 1);
    memory.flipDataBit(0, 2);
    LineData out{};
    EXPECT_THROW(bare.fillLine(0, out), PanicError);
}

TEST(PhysicalMemory, RejectsUnalignedCapacity)
{
    EXPECT_THROW(PhysicalMemory(100), FatalError);
    EXPECT_THROW(PhysicalMemory(0), FatalError);
}

TEST(PhysicalMemory, WordRoundTrip)
{
    PhysicalMemory memory(4096);
    memory.writeWord(64, 0x1234ULL);
    EXPECT_EQ(memory.readWord(64), 0x1234ULL);
}

TEST(PhysicalMemory, OutOfRangePanics)
{
    PhysicalMemory memory(4096);
    EXPECT_THROW(memory.readWord(4096), PanicError);
    EXPECT_THROW(memory.readWord(1), PanicError);
    EXPECT_THROW(memory.flipDataBit(0, 64), PanicError);
    EXPECT_THROW(memory.flipCheckBit(0, 8), PanicError);
}

TEST(PhysicalMemory, FreshMemoryDecodesClean)
{
    // All-zero data carries an all-zero check byte by construction.
    PhysicalMemory memory(4096);
    const EccCodec &code = defaultCodec();
    EccDecodeResult result =
        code.decode(memory.readWord(0), memory.readCheck(0));
    EXPECT_EQ(result.status, EccDecodeStatus::Ok);
}

/** @return how many of @p memory's pages have been materialised. */
std::size_t
touchedPages(const PhysicalMemory &memory)
{
    std::size_t touched = 0;
    for (PhysAddr page = 0; page < memory.size(); page += kPageSize)
        touched += memory.pageTouched(page) ? 1 : 0;
    return touched;
}

TEST(PhysicalMemory, UntouchedPagesReadAsZeroFilledDram)
{
    PhysicalMemory word(4 * kPageSize);
    for (PhysAddr addr : {PhysAddr{0}, PhysAddr{kPageSize + 8},
                          PhysAddr{4 * kPageSize - 8}}) {
        EXPECT_EQ(word.readWord(addr), 0u);
        EXPECT_EQ(word.readCheck(addr), 0u);
    }
    for (const char *spec : {"block:512/parity", "block:4096/crc32"}) {
        ProtectionGeometry geometry = *parseGeometry(spec);
        PhysicalMemory block(4 * kPageSize, 8, geometry);
        for (PhysAddr line : {PhysAddr{0}, PhysAddr{2 * kPageSize + 64},
                              PhysAddr{4 * kPageSize - 64}}) {
            EXPECT_EQ(block.readEdc(line), edcZeroLineFold(geometry.edc))
                << spec;
            EXPECT_EQ(block.readWord(line), 0u) << spec;
        }
        EXPECT_EQ(touchedPages(block), 0u) << spec;
    }
}

TEST(PhysicalMemory, ReadsNeverMaterialisePages)
{
    CycleClock clock;
    PhysicalMemory memory(4 * kPageSize, 8, *parseGeometry("block:512"));
    MemoryController controller(memory, clock, nullptr, defaultCodec(), 1,
                                memory.geometry());
    for (PhysAddr line = 0; line < memory.size(); line += kCacheLineSize) {
        memory.readWord(line);
        memory.readCheck(line);
        memory.readEdc(line);
        controller.peekWord(line);
        LineData out{};
        controller.peekLine(line, out);
        EXPECT_TRUE(controller.edcConsistent(line));
    }
    EXPECT_EQ(touchedPages(memory), 0u);
}

TEST(PhysicalMemory, WritesAndFlipsMaterialiseOnlyTheirOwnPage)
{
    const ProtectionGeometry geometry = *parseGeometry("block:512/crc32");
    const PhysAddr target = 2 * kPageSize + 128;
    const std::vector<std::function<void(PhysicalMemory &)>> ops = {
        [&](PhysicalMemory &m) { m.writeWord(target, 0); },
        [&](PhysicalMemory &m) { m.writeCheck(target, 0); },
        [&](PhysicalMemory &m) { m.flipDataBit(target, 63); },
        [&](PhysicalMemory &m) { m.flipCheckBit(target, 7); },
        [&](PhysicalMemory &m) { m.writeEdc(target, 0); },
        [&](PhysicalMemory &m) { m.flipEdcBit(target, 31); },
    };
    for (std::size_t i = 0; i < ops.size(); ++i) {
        PhysicalMemory memory(4 * kPageSize, 8, geometry);
        ops[i](memory);
        for (PhysAddr page = 0; page < memory.size(); page += kPageSize)
            EXPECT_EQ(memory.pageTouched(page),
                      page == alignDown(target, kPageSize))
                << "op " << i << " page " << page;
        // The rest of the materialised page still reads zero-filled.
        EXPECT_EQ(memory.readWord(target + 8), 0u) << "op " << i;
        EXPECT_EQ(memory.readEdc(target + 64),
                  edcZeroLineFold(geometry.edc)) << "op " << i;
    }
    // A rejected access materialises nothing.
    PhysicalMemory memory(4 * kPageSize);
    EXPECT_THROW(memory.flipDataBit(target, 64), PanicError);
    EXPECT_THROW(memory.writeWord(target + 1, 1), PanicError);
    EXPECT_THROW(memory.writeEdc(target, 0), PanicError);
    EXPECT_EQ(touchedPages(memory), 0u);
}

TEST(PhysicalMemory, TailOfNonPageMultipleCapacity)
{
    const std::size_t bytes = kPageSize + kCacheLineSize;
    PhysicalMemory memory(bytes, 8, *parseGeometry("block:512/parity"));
    const PhysAddr tail = kPageSize;
    EXPECT_EQ(memory.readWord(tail + 56), 0u);
    memory.writeWord(tail + 56, 0xfeedULL);
    memory.writeEdc(tail, 0x5aULL);
    EXPECT_EQ(memory.readWord(tail + 56), 0xfeedULL);
    EXPECT_EQ(memory.readEdc(tail), 0x5aULL);
    EXPECT_TRUE(memory.pageTouched(tail));
    EXPECT_FALSE(memory.pageTouched(0));
    EXPECT_THROW(memory.readWord(bytes), PanicError);
    EXPECT_THROW(memory.writeWord(bytes, 1), PanicError);
    EXPECT_THROW(memory.readEdc(bytes), PanicError);
    EXPECT_THROW(memory.flipCheckBit(bytes, 0), PanicError);
    EXPECT_THROW(memory.pageTouched(bytes), PanicError);
}

TEST(PhysicalMemory, LineBurstsAgreeWithWordAccess)
{
    // Random line writes through either interface read back the same
    // through both, on a capacity whose tail frame is a partial page.
    const std::size_t bytes = 3 * kPageSize + 2 * kCacheLineSize;
    PhysicalMemory bursts(bytes);
    PhysicalMemory words(bytes);
    Rng rng(17);
    for (int op = 0; op < 400; ++op) {
        const PhysAddr line =
            rng.next() % (bytes / kCacheLineSize) * kCacheLineSize;
        std::uint64_t data[kEccGroupsPerLine];
        std::uint8_t checks[kEccGroupsPerLine];
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
            data[i] = rng.next();
            checks[i] = static_cast<std::uint8_t>(rng.next());
        }
        if (op % 2 == 0) {
            bursts.writeLine(line, data, checks);
            for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
                words.writeWord(line + i * kEccGroupSize, data[i]);
                words.writeCheck(line + i * kEccGroupSize, checks[i]);
            }
        } else {
            for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
                bursts.writeWord(line + i * kEccGroupSize, data[i]);
                bursts.writeCheck(line + i * kEccGroupSize, checks[i]);
            }
            words.writeLine(line, data, checks);
        }
    }
    for (PhysAddr line = 0; line < bytes; line += kCacheLineSize) {
        std::uint64_t data[kEccGroupsPerLine];
        std::uint8_t checks[kEccGroupsPerLine];
        bursts.readLine(line, data, checks);
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
            const PhysAddr addr = line + i * kEccGroupSize;
            ASSERT_EQ(data[i], bursts.readWord(addr)) << addr;
            ASSERT_EQ(checks[i], bursts.readCheck(addr)) << addr;
            ASSERT_EQ(data[i], words.readWord(addr)) << addr;
            ASSERT_EQ(checks[i], words.readCheck(addr)) << addr;
        }
        EXPECT_EQ(bursts.pageTouched(line), words.pageTouched(line));
    }
}

TEST(PhysicalMemory, LineReadOfUntouchedPageIsZeroAndAllocatesNothing)
{
    PhysicalMemory memory(4 * kPageSize);
    for (PhysAddr line : {PhysAddr{0}, PhysAddr{kPageSize + 64},
                          PhysAddr{4 * kPageSize - 64}}) {
        std::uint64_t data[kEccGroupsPerLine];
        std::uint8_t checks[kEccGroupsPerLine];
        std::fill_n(data, kEccGroupsPerLine, ~0ULL);
        std::fill_n(checks, kEccGroupsPerLine, 0xff);
        memory.readLine(line, data, checks);
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
            EXPECT_EQ(data[i], 0u) << line;
            EXPECT_EQ(checks[i], 0u) << line;
        }
        std::fill_n(data, kEccGroupsPerLine, ~0ULL);
        memory.readLine(line, data, nullptr);
        for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
            EXPECT_EQ(data[i], 0u) << line;
        EXPECT_FALSE(memory.pageTouched(line));
    }
    EXPECT_EQ(touchedPages(memory), 0u);
}

TEST(PhysicalMemory, LineWriteMaterialisesOnlyItsPageAndNullKeepsChecks)
{
    const PhysAddr target = 2 * kPageSize + 192;
    PhysicalMemory memory(4 * kPageSize);
    memory.writeCheck(target + 16, 0x5a);
    ASSERT_EQ(touchedPages(memory), 1u);

    std::uint64_t data[kEccGroupsPerLine];
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i)
        data[i] = 0x1111ULL * (i + 1);
    memory.writeLine(target, data, nullptr);
    for (PhysAddr page = 0; page < memory.size(); page += kPageSize)
        EXPECT_EQ(memory.pageTouched(page),
                  page == alignDown(target, kPageSize))
            << page;
    // Data landed; the check lane is as it was.
    for (std::size_t i = 0; i < kEccGroupsPerLine; ++i) {
        EXPECT_EQ(memory.readWord(target + i * kEccGroupSize), data[i]);
        EXPECT_EQ(memory.readCheck(target + i * kEccGroupSize),
                  i == 2 ? 0x5a : 0);
    }
    // Neighbouring lines of the page still read zero-filled.
    EXPECT_EQ(memory.readWord(target - 8), 0u);
    EXPECT_EQ(memory.readWord(target + kCacheLineSize), 0u);

    PhysicalMemory fresh(4 * kPageSize);
    fresh.writeLine(kPageSize, data, nullptr);
    EXPECT_EQ(touchedPages(fresh), 1u);
    EXPECT_TRUE(fresh.pageTouched(kPageSize));
    EXPECT_EQ(fresh.readCheck(kPageSize), 0u);
}

TEST(PhysicalMemory, LineBurstsRejectMisalignedAndPastCapacityLines)
{
    const std::size_t bytes = kPageSize + kCacheLineSize;
    PhysicalMemory memory(bytes);
    std::uint64_t data[kEccGroupsPerLine] = {1, 2, 3, 4, 5, 6, 7, 8};
    std::uint8_t checks[kEccGroupsPerLine] = {};
    for (PhysAddr bad : {PhysAddr{8}, PhysAddr{kPageSize + 32},
                         PhysAddr{bytes}, PhysAddr{4 * kPageSize}}) {
        EXPECT_THROW(memory.readLine(bad, data, checks), PanicError) << bad;
        EXPECT_THROW(memory.readLine(bad, data, nullptr), PanicError)
            << bad;
        EXPECT_THROW(memory.writeLine(bad, data, checks), PanicError)
            << bad;
        EXPECT_THROW(memory.writeLine(bad, data, nullptr), PanicError)
            << bad;
    }
    EXPECT_EQ(touchedPages(memory), 0u);

    // The tail line of the partial frame is addressable up to the
    // capacity.
    const PhysAddr tail = kPageSize;
    memory.writeLine(tail, data, checks);
    std::uint64_t back[kEccGroupsPerLine];
    memory.readLine(tail, back, nullptr);
    EXPECT_TRUE(std::equal(data, data + kEccGroupsPerLine, back));
    EXPECT_TRUE(memory.pageTouched(tail));
    EXPECT_FALSE(memory.pageTouched(0));
}

TEST(PhysicalMemory, FourGibMachineTouchesOnlyItsFootprint)
{
    // Lane storage follows the pages a run writes, not the capacity:
    // a 4 GiB machine boots and runs for the cost of its page table.
    MachineConfig config{std::size_t{4} << 30, CacheConfig{16, 2}, 64};
    Machine machine(config);
    const std::size_t bytes = 16 * kPageSize;
    VirtAddr buffer = machine.kernel().mapRegion(bytes);
    for (std::size_t off = 0; off < bytes; off += kCacheLineSize)
        machine.store<std::uint64_t>(buffer + off, off ^ 0xabcdULL);
    machine.cache().flushAll();
    for (std::size_t off = 0; off < bytes; off += kCacheLineSize)
        EXPECT_EQ(machine.load<std::uint64_t>(buffer + off),
                  off ^ 0xabcdULL);

    const PhysicalMemory &memory = machine.physicalMemory();
    const std::size_t pages = memory.size() / kPageSize;
    const std::size_t touched = touchedPages(memory);
    EXPECT_GE(touched, bytes / kPageSize);
    EXPECT_LT(touched * 100, pages) << touched << " of " << pages;
}

} // namespace
} // namespace safemem
