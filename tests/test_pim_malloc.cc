/**
 * @file
 * End-to-end tests for PIM-malloc (SW, HW/SW, lazy): the three workflow
 * cases of Fig 10, service-level attribution, fragmentation accounting,
 * metadata footprint, pre-population, and multi-tasklet correctness.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "alloc/pim_malloc.hh"
#include "sim/dpu.hh"
#include "util/rng.hh"

using namespace pim;
using namespace pim::alloc;

namespace {

PimMallocConfig
testConfig(MetadataMode mode = MetadataMode::SwBuffer,
           bool pre_populate = true, unsigned tasklets = 4)
{
    PimMallocConfig cfg;
    cfg.heapBytes = 4u << 20; // smaller heap keeps tests fast
    cfg.metadata = mode;
    cfg.prePopulate = pre_populate;
    cfg.numTasklets = tasklets;
    return cfg;
}

} // namespace

TEST(PimMalloc, Names)
{
    sim::Dpu d1, d2, d3;
    EXPECT_EQ(PimMallocAllocator(d1, testConfig()).name(),
              "PIM-malloc-SW");
    EXPECT_EQ(PimMallocAllocator(d2, testConfig(MetadataMode::HwCache))
                  .name(),
              "PIM-malloc-HW/SW");
    EXPECT_EQ(PimMallocAllocator(
                  d3, testConfig(MetadataMode::SwBuffer, false))
                  .name(),
              "PIM-malloc-SW-lazy");
}

TEST(PimMalloc, BackendMetadataFootprintMatchesPaper)
{
    sim::Dpu dpu;
    PimMallocConfig cfg; // paper defaults: 32 MB heap, 4 KB spans
    PimMallocAllocator a(dpu, cfg);
    // Section VI-E: the hierarchical design shrinks buddy metadata to
    // 4 KB per DRAM bank.
    EXPECT_EQ(a.backendMetadataBytes(), 4096u);
    EXPECT_EQ(a.backend().levels(), 14u);
}

TEST(PimMalloc, Fig10CaseHit)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        // Pre-populated cache: a 128 B request is a pure frontend hit.
        const auto p = a.malloc(t, 128);
        ASSERT_NE(p, sim::kNullAddr);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Frontend)], 1u);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Backend)], 0u);
    });
}

TEST(PimMalloc, Fig10CaseMissRefillsSpan)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        // Exhaust the pre-populated 2 KB span (2 blocks), then the next
        // request must refill from the buddy.
        a.malloc(t, 2048);
        a.malloc(t, 2048);
        a.malloc(t, 2048);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Frontend)], 2u);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Backend)], 1u);
    });
}

TEST(PimMalloc, Fig10CaseBypass)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        const auto p = a.malloc(t, 8192);
        ASSERT_NE(p, sim::kNullAddr);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Bypass)], 1u);
        EXPECT_TRUE(a.free(t, p));
    });
}

TEST(PimMalloc, LazyModeStartsEmpty)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::SwBuffer, false));
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        EXPECT_EQ(a.stats().reservedBytes, 0u);
        // First small request must go to the backend (span fetch).
        a.malloc(t, 64);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Backend)], 1u);
    });
}

TEST(PimMalloc, PrePopulationReservesOneSpanPerClassPerTasklet)
{
    sim::Dpu dpu;
    const auto cfg = testConfig(MetadataMode::SwBuffer, true, 4);
    PimMallocAllocator a(dpu, cfg);
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    // 4 tasklets x 8 classes x 4 KB spans.
    EXPECT_EQ(a.stats().reservedBytes, 4u * 8u * 4096u);
    EXPECT_EQ(a.backend().allocatedBytes(), 4u * 8u * 4096u);
}

TEST(PimMalloc, FreeReturnsBlocksAndEmptySpans)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::SwBuffer, false));
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        // Two spans of the 2 KB class.
        std::vector<sim::MramAddr> ps;
        for (int i = 0; i < 4; ++i)
            ps.push_back(a.malloc(t, 2048));
        EXPECT_EQ(a.stats().reservedBytes, 2u * 4096u);
        for (auto p : ps)
            EXPECT_TRUE(a.free(t, p));
        // One span lingers (last-span caching), one returned.
        EXPECT_EQ(a.stats().reservedBytes, 4096u);
        EXPECT_EQ(a.stats().requestedBytes, 0u);
    });
}

TEST(PimMalloc, FragmentationMatchesDefinition)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::SwBuffer, false));
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        a.malloc(t, 1024); // one 4 KB span fetched, 1 KB requested
        EXPECT_NEAR(a.stats().fragmentation(), 4096.0 / 1024.0, 1e-9);
        // Peak tracks the worst ratio seen.
        EXPECT_GE(a.stats().peakFragmentation, 4.0);
    });
}

TEST(PimMalloc, EagerFragmentationHigherThanLazy)
{
    auto peak_frag = [](bool pre_populate) {
        sim::Dpu dpu;
        PimMallocAllocator a(
            dpu, testConfig(MetadataMode::SwBuffer, pre_populate, 4));
        dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
        dpu.run(4, [&](sim::Tasklet &t) {
            for (int i = 0; i < 64; ++i)
                a.malloc(t, 256); // single size class, Table III row 1
        });
        return a.stats().peakFragmentation;
    };
    // Table III: pre-population inflates A/U; lazy stays near 1.
    EXPECT_GT(peak_frag(true), peak_frag(false));
}

TEST(PimMalloc, DistinctAddressesAcrossTaskletsAndSizes)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    std::set<sim::MramAddr> seen;
    dpu.run(4, [&](sim::Tasklet &t) {
        util::Rng rng(t.id() + 1);
        for (int i = 0; i < 100; ++i) {
            const uint32_t size =
                static_cast<uint32_t>(rng.uniformRange(1, 3000));
            const auto p = a.malloc(t, size);
            ASSERT_NE(p, sim::kNullAddr);
            ASSERT_TRUE(seen.insert(p).second) << "duplicate " << p;
        }
    });
    EXPECT_EQ(seen.size(), 400u);
}

TEST(PimMalloc, RandomAllocFreeChurnStaysConsistent)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::HwCache));
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    dpu.run(4, [&](sim::Tasklet &t) {
        util::Rng rng(t.id() + 77);
        std::vector<sim::MramAddr> live;
        for (int i = 0; i < 400; ++i) {
            if (live.empty() || rng.bernoulli(0.55)) {
                const uint32_t size =
                    static_cast<uint32_t>(rng.uniformRange(1, 6000));
                const auto p = a.malloc(t, size);
                if (p != sim::kNullAddr)
                    live.push_back(p);
            } else {
                const size_t idx = rng.uniformInt(live.size());
                ASSERT_TRUE(a.free(t, live[idx]));
                live.erase(live.begin() + static_cast<long>(idx));
            }
        }
        for (auto p : live)
            ASSERT_TRUE(a.free(t, p));
    });
    EXPECT_EQ(a.stats().requestedBytes, 0u);
    EXPECT_EQ(a.stats().failures, 0u);
}

TEST(PimMalloc, LaunchWiderThanConfiguredTaskletsFreesToSharedCache)
{
    // 8 tasklets on a 4-cache config: tasklets 4..7 share caches 0..3,
    // and each free must find the cache its block came from.
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::SwBuffer, true, 4));
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    std::vector<int> freed(8, 0);
    dpu.run(8, [&](sim::Tasklet &t) {
        const auto p = a.malloc(t, 64);
        ASSERT_NE(p, sim::kNullAddr);
        freed[t.id()] = a.free(t, p) ? 1 : 0;
    });
    for (unsigned id = 0; id < 8; ++id)
        EXPECT_EQ(freed[id], 1) << "tasklet " << id;
    EXPECT_EQ(a.stats().requestedBytes, 0u);
}

TEST(PimMalloc, FreeOfUnknownPointerRejected)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        EXPECT_FALSE(a.free(t, 0x123456));
        const auto p = a.malloc(t, 64);
        EXPECT_TRUE(a.free(t, p));
        EXPECT_FALSE(a.free(t, p));
    });
}

TEST(PimMalloc, BadFreesRejectedAfterChurn)
{
    for (const auto mode : {MetadataMode::SwBuffer, MetadataMode::HwCache}) {
        sim::Dpu dpu;
        PimMallocAllocator a(dpu, testConfig(mode, true, 1));
        dpu.run(1, [&](sim::Tasklet &t) {
            a.init(t);
            util::Rng rng(4243);
            std::vector<sim::MramAddr> live;
            for (int op = 0; op < 10000; ++op) {
                if (live.empty() || rng.bernoulli(0.5)) {
                    const auto p = a.malloc(
                        t, static_cast<uint32_t>(rng.uniformRange(1, 3000)));
                    if (p != sim::kNullAddr)
                        live.push_back(p);
                } else {
                    const size_t i = rng.uniformInt(live.size());
                    ASSERT_TRUE(a.free(t, live[i]));
                    live[i] = live.back();
                    live.pop_back();
                }
            }
            ASSERT_GT(live.size(), 10u);

            // Double free of a block released after the churn.
            const sim::MramAddr freed = live.back();
            live.pop_back();
            ASSERT_TRUE(a.free(t, freed));
            EXPECT_FALSE(a.free(t, freed));

            // Never-returned addresses inside the live span of a fresh
            // 64 B block: mid-block, and the next (free) sub-block.
            const sim::MramAddr p = a.malloc(t, 64);
            ASSERT_NE(p, sim::kNullAddr);
            live.push_back(p);
            EXPECT_FALSE(a.free(t, p + 8));
            const std::set<sim::MramAddr> is_live(live.begin(), live.end());
            const uint32_t span = a.config().spanBytes;
            const sim::MramAddr heap = a.backend().heapBase();
            const sim::MramAddr span_base = heap + (p - heap) / span * span;
            sim::MramAddr idle = sim::kNullAddr;
            for (sim::MramAddr q = span_base; q < span_base + span; q += 64)
                if (!is_live.count(q))
                    idle = q;
            ASSERT_NE(idle, sim::kNullAddr);
            EXPECT_FALSE(a.free(t, idle));

            // The rejected frees disturbed nothing: every live block
            // still frees.
            for (const auto q : live)
                ASSERT_TRUE(a.free(t, q));
        });
        EXPECT_EQ(a.stats().requestedBytes, 0u);
        EXPECT_EQ(a.stats().failures, 0u);
    }
}

TEST(PimMalloc, OutOfMemoryFailsGracefully)
{
    sim::Dpu dpu;
    PimMallocConfig cfg = testConfig(MetadataMode::SwBuffer, false);
    cfg.heapBytes = 64 * 1024;
    PimMallocAllocator a(dpu, cfg);
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        std::vector<sim::MramAddr> ps;
        for (;;) {
            const auto p = a.malloc(t, 4096);
            if (p == sim::kNullAddr)
                break;
            ps.push_back(p);
        }
        EXPECT_EQ(ps.size(), 16u);
        EXPECT_EQ(a.stats().failures, 1u);
        // Recovery after frees.
        for (auto p : ps)
            a.free(t, p);
        EXPECT_NE(a.malloc(t, 4096), sim::kNullAddr);
    });
}

TEST(PimMalloc, LatencyTraceRecordsEvents)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    a.stats().traceEvents = true;
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        a.malloc(t, 32);
        a.malloc(t, 32);
    });
    ASSERT_EQ(a.stats().events.size(), 2u);
    EXPECT_GT(a.stats().events[1].startCycle,
              a.stats().events[0].startCycle);
    EXPECT_GT(a.stats().events[0].latencyCycles, 0u);
    EXPECT_EQ(a.stats().events[0].size, 32u);
}

TEST(PimMalloc, WramBudgetExhaustionFallsBackToBypass)
{
    sim::Dpu dpu;
    PimMallocConfig cfg = testConfig(MetadataMode::SwBuffer, false, 1);
    cfg.maxSpansPerTasklet = 2;
    PimMallocAllocator a(dpu, cfg);
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        // Fill two spans of the 16 B class (2 x 256 blocks), then one
        // more request: no record budget left -> bypass.
        for (int i = 0; i < 512; ++i)
            ASSERT_NE(a.malloc(t, 16), sim::kNullAddr);
        ASSERT_NE(a.malloc(t, 16), sim::kNullAddr);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Bypass)], 1u);
    });
}

TEST(PimMalloc, HwVariantPopulatesBuddyCache)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::HwCache));
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        for (int i = 0; i < 8; ++i)
            a.malloc(t, 4096); // bypass -> backend tree traversals
    });
    EXPECT_GT(dpu.buddyCache().stats().lookups, 0u);
    EXPECT_GT(dpu.buddyCache().stats().hitRate(), 0.5);
}

TEST(PimMallocDeath, MallocBeforeInitPanics)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    EXPECT_DEATH(dpu.run(1, [&](sim::Tasklet &t) { a.malloc(t, 32); }),
                 "before initAllocator");
}
