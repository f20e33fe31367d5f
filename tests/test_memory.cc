/**
 * @file
 * Tests for FlatMemory (WRAM/MRAM backing store) and the Tasklet DMA
 * cost model.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/dpu.hh"
#include "sim/memory.hh"

using namespace pim::sim;

TEST(FlatMemory, TypedReadWrite)
{
    FlatMemory m(1024, "test");
    m.write<uint32_t>(16, 0xdeadbeef);
    EXPECT_EQ(m.read<uint32_t>(16), 0xdeadbeefu);
    m.write<uint64_t>(64, 0x0123456789abcdefull);
    EXPECT_EQ(m.read<uint64_t>(64), 0x0123456789abcdefull);
}

TEST(FlatMemory, InitiallyZero)
{
    FlatMemory m(256, "test");
    for (uint32_t i = 0; i < 256; i += 8)
        EXPECT_EQ(m.read<uint64_t>(i), 0u);
}

TEST(FlatMemory, BulkCopy)
{
    FlatMemory m(1024, "test");
    const char src[] = "hello pim";
    m.writeBytes(100, src, sizeof(src));
    char dst[sizeof(src)];
    m.readBytes(100, dst, sizeof(src));
    EXPECT_STREQ(dst, "hello pim");
}

TEST(FlatMemory, MoveBytesOverlapping)
{
    FlatMemory m(64, "test");
    for (uint8_t i = 0; i < 16; ++i)
        m.write<uint8_t>(i, i);
    m.moveBytes(4, 0, 16); // overlapping forward shift
    for (uint8_t i = 0; i < 16; ++i)
        EXPECT_EQ(m.read<uint8_t>(4 + i), i);
}

TEST(FlatMemory, Fill)
{
    FlatMemory m(64, "test");
    m.fill(8, 16, 0xab);
    EXPECT_EQ(m.read<uint8_t>(7), 0u);
    EXPECT_EQ(m.read<uint8_t>(8), 0xabu);
    EXPECT_EQ(m.read<uint8_t>(23), 0xabu);
    EXPECT_EQ(m.read<uint8_t>(24), 0u);
}

TEST(FlatMemory, ZeroFillSpanningPagesKeepsBytesOutside)
{
    FlatMemory m(64u << 20, "MRAM");
    // Non-zero bytes across six pages, starting and ending mid-page.
    constexpr MramAddr kBegin = 3 * 4096 + 100;
    constexpr size_t kBytes = 6 * 4096;
    const std::vector<uint8_t> pattern(kBytes, 0x5a);
    m.writeBytes(kBegin, pattern.data(), kBytes);

    // Zero an inner range with unaligned ends that covers whole pages.
    constexpr MramAddr kZeroBegin = kBegin + 1000;
    constexpr size_t kZeroBytes = 4 * 4096 + 1234;
    m.fill(kZeroBegin, kZeroBytes, 0);
    for (size_t i = 0; i < kZeroBytes; ++i)
        ASSERT_EQ(m.raw()[kZeroBegin + i], 0u) << "offset " << i;
    EXPECT_EQ(m.read<uint8_t>(kZeroBegin - 1), 0x5au);
    EXPECT_EQ(m.read<uint8_t>(kBegin), 0x5au);
    EXPECT_EQ(m.read<uint8_t>(kZeroBegin + kZeroBytes), 0x5au);
    EXPECT_EQ(m.read<uint8_t>(kBegin + kBytes - 1), 0x5au);
    EXPECT_EQ(m.read<uint8_t>(kBegin + kBytes), 0u);

    // Zeroed pages take writes again.
    m.write<uint32_t>(kZeroBegin + 4096, 0xfeedf00d);
    EXPECT_EQ(m.read<uint32_t>(kZeroBegin + 4096), 0xfeedf00du);
}

TEST(FlatMemory, ResetZeroesEveryByte)
{
    FlatMemory m(64u << 20, "MRAM");
    const std::vector<uint8_t> pattern(3 * 4096 + 17, 0xc3);
    m.writeBytes(0, pattern.data(), pattern.size());
    m.writeBytes((32u << 20) + 5, pattern.data(), pattern.size());
    m.write<uint64_t>((64u << 20) - 8, ~0ull);
    m.reset();
    EXPECT_EQ(m.size(), 64u << 20);
    const uint8_t *p = m.raw();
    size_t nonzero = 0;
    for (size_t i = 0; i < m.size(); ++i)
        nonzero += p[i] != 0;
    EXPECT_EQ(nonzero, 0u);
    m.write<uint32_t>(4096, 7);
    EXPECT_EQ(m.read<uint32_t>(4096), 7u);
}

TEST(FlatMemoryDeath, OutOfRangePanics)
{
    FlatMemory m(64, "tiny");
    EXPECT_DEATH(m.read<uint32_t>(62), "out of range");
    EXPECT_DEATH(m.write<uint32_t>(64, 1), "out of range");
}

TEST(Dma, ReadCostMatchesModel)
{
    Dpu dpu;
    const auto &cfg = dpu.config();
    dpu.run(1, [](Tasklet &t) { t.dmaRead(0, 1024); });
    const uint64_t expect = cfg.dmaSetupCycles
        + static_cast<uint64_t>(cfg.dmaCyclesPerByte * 1024);
    EXPECT_EQ(dpu.lastElapsedCycles(), expect);
    EXPECT_EQ(dpu.lastBreakdown().of(CycleKind::IdleMemory), expect);
}

TEST(Dma, TrafficAccounting)
{
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) {
        t.dmaRead(0, 100, TrafficClass::Data);
        t.dmaWrite(0, 50, TrafficClass::Data);
        t.dmaRead(0, 8, TrafficClass::Metadata);
        t.dmaWrite(0, 4, TrafficClass::Metadata);
    });
    const auto &tr = dpu.traffic();
    EXPECT_EQ(tr.dataReadBytes, 100u);
    EXPECT_EQ(tr.dataWriteBytes, 50u);
    EXPECT_EQ(tr.metadataReadBytes, 8u);
    EXPECT_EQ(tr.metadataWriteBytes, 4u);
    EXPECT_EQ(tr.dmaTransfers, 4u);
    EXPECT_EQ(tr.totalBytes(), 162u);
    EXPECT_EQ(tr.metadataBytes(), 12u);
}

TEST(Dma, TypedMramHelpersChargeMinimumEightBytes)
{
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) {
        t.mramWrite<uint32_t>(128, 77);
        EXPECT_EQ(t.mramRead<uint32_t>(128), 77u);
    });
    // Both 4-byte accesses charge the 8-byte DMA minimum.
    EXPECT_EQ(dpu.traffic().dataWriteBytes, 8u);
    EXPECT_EQ(dpu.traffic().dataReadBytes, 8u);
}

TEST(Dma, ResetStatsClearsTraffic)
{
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) { t.dmaRead(0, 64); });
    EXPECT_GT(dpu.traffic().totalBytes(), 0u);
    dpu.resetStats();
    EXPECT_EQ(dpu.traffic().totalBytes(), 0u);
}

TEST(Dpu, WramReserveBudget)
{
    DpuConfig cfg;
    cfg.wramBytes = 1024;
    Dpu dpu(cfg);
    EXPECT_EQ(dpu.wramReserve(512), 0u);
    EXPECT_EQ(dpu.wramReserve(256), 512u);
    EXPECT_EQ(dpu.wramUsed(), 768u);
    dpu.wramReset();
    EXPECT_EQ(dpu.wramUsed(), 0u);
}

TEST(DpuDeath, WramOverflowPanics)
{
    DpuConfig cfg;
    cfg.wramBytes = 1024;
    Dpu dpu(cfg);
    dpu.wramReserve(1024);
    EXPECT_DEATH(dpu.wramReserve(1), "WRAM budget exceeded");
}
