/**
 * @file
 * Tests for the dynamic-graph-update experiment driver (Fig 17): result
 * plumbing, determinism, and the paper's qualitative orderings on a
 * scaled-down dataset.
 */

#include <gtest/gtest.h>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "workloads/graph/update_driver.hh"

using namespace pim;
using namespace pim::workloads::graph;

namespace {

GraphUpdateConfig
smallCfg(StructureKind s, core::AllocatorKind a)
{
    GraphUpdateConfig cfg;
    cfg.structure = s;
    cfg.allocator = a;
    cfg.numDpus = 8;
    cfg.sampleDpus = 1;
    cfg.tasklets = 8;
    cfg.gen.numNodes = 2000;
    cfg.gen.numEdges = 9000;
    cfg.gen.seed = 5;
    return cfg;
}

/** The system runGraphUpdate builds for @p cfg. */
core::PimSystemConfig
systemOf(const GraphUpdateConfig &cfg)
{
    core::PimSystemConfig scfg;
    scfg.numDpus = cfg.numDpus;
    scfg.sampleDpus = cfg.sampleDpus;
    scfg.dpuCfg = cfg.dpuCfg;
    scfg.simThreads = cfg.simThreads;
    return scfg;
}

} // namespace

TEST(UpdateDriver, ProducesThroughputAndBreakdown)
{
    const auto r = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(r.updateSeconds, 0.0);
    EXPECT_GT(r.millionEdgesPerSec, 0.0);
    EXPECT_EQ(r.updateEdgesTotal, 3000u);
    EXPECT_GT(r.breakdown.total(), 0u);
    EXPECT_GT(r.allocStats.mallocCalls, 0u);
    EXPECT_GT(r.metadataBytes, 0u);
    EXPECT_GT(r.fragmentation, 0.0);
}

TEST(UpdateDriver, StaticCsrNeedsNoAllocator)
{
    const auto r = runGraphUpdate(smallCfg(
        StructureKind::StaticCsr, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(r.updateSeconds, 0.0);
    EXPECT_EQ(r.allocStats.mallocCalls, 0u);
}

TEST(UpdateDriver, Deterministic)
{
    const auto cfg = smallCfg(StructureKind::VarArray,
                              core::AllocatorKind::PimMallocHwSw);
    const auto a = runGraphUpdate(cfg);
    const auto b = runGraphUpdate(cfg);
    EXPECT_EQ(a.updateSeconds, b.updateSeconds);
    EXPECT_EQ(a.allocStats.mallocCalls, b.allocStats.mallocCalls);
    EXPECT_EQ(a.traffic.totalBytes(), b.traffic.totalBytes());
}

TEST(UpdateDriver, PimMallocBeatsStrawMan)
{
    // Fig 17(a): dynamic structures on PIM-malloc outperform the same
    // structures on the straw-man allocator.
    const auto straw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::StrawMan));
    const auto sw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(sw.millionEdgesPerSec, straw.millionEdgesPerSec);
}

TEST(UpdateDriver, HwSwReducesMetadataTraffic)
{
    // Fig 17(d): the hardware buddy cache moves less metadata than the
    // coarse software buffer.
    const auto sw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    const auto hw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocHwSw));
    EXPECT_LT(hw.traffic.metadataBytes(), sw.traffic.metadataBytes());
}

TEST(UpdateDriver, StrawManBusyWaitsMoreThanPimMalloc)
{
    // Fig 17(a) breakdown: the straw-man's single mutex causes heavy
    // busy-waiting; the thread cache removes most of it.
    const auto straw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::StrawMan));
    const auto sw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(straw.breakdown.fraction(sim::CycleKind::BusyWait),
              sw.breakdown.fraction(sim::CycleKind::BusyWait));
}

TEST(UpdateDriver, TraceEventsRecorded)
{
    auto cfg = smallCfg(StructureKind::LinkedList,
                        core::AllocatorKind::PimMallocSw);
    cfg.traceEvents = true;
    const auto r = runGraphUpdate(cfg);
    EXPECT_EQ(r.allocStats.events.size(), r.allocStats.mallocCalls);
}

TEST(UpdateDriver, MaxUpdateEdgesTruncates)
{
    auto cfg = smallCfg(StructureKind::LinkedList,
                        core::AllocatorKind::PimMallocSw);
    cfg.maxUpdateEdges = 100;
    const auto r = runGraphUpdate(cfg);
    EXPECT_EQ(r.updateEdgesTotal, 100u);
}

TEST(UpdateDriver, Fig3StaticSlowdownGrowsWithGraphSize)
{
    // Fig 3(c): with a fixed number of new edges, static CSR update
    // time grows with the pre-update graph while the dynamic structure
    // stays flat.
    auto seconds = [](StructureKind s, uint32_t scale) {
        GraphUpdateConfig cfg =
            smallCfg(s, core::AllocatorKind::PimMallocSw);
        cfg.gen.numEdges = 3000u * scale;
        cfg.gen.numNodes = 1000u * scale;
        cfg.maxUpdateEdges = 200;
        return runGraphUpdate(cfg).updateSeconds;
    };
    const double static_small = seconds(StructureKind::StaticCsr, 1);
    const double static_large = seconds(StructureKind::StaticCsr, 4);
    const double dyn_small = seconds(StructureKind::LinkedList, 1);
    const double dyn_large = seconds(StructureKind::LinkedList, 4);
    EXPECT_GT(static_large, 1.5 * static_small);
    EXPECT_LT(dyn_large, 1.5 * dyn_small + 1e-6);
}

TEST(UpdateDriver, ShippedAndResidentStreamsAgree)
{
    // Shipping the update stream over the bus changes only bus
    // traffic: both runs must shard the dataset and simulate every
    // shard identically, full system and sampled alike.
    const StructureKind structures[] = {StructureKind::StaticCsr,
                                        StructureKind::LinkedList,
                                        StructureKind::VarArray};
    const core::AllocatorKind allocators[] = {
        core::AllocatorKind::StrawMan, core::AllocatorKind::PimMallocSw,
        core::AllocatorKind::PimMallocHwSw};
    for (const StructureKind s : structures) {
        for (const core::AllocatorKind a : allocators) {
            for (const unsigned sample : {0u, 3u}) {
                SCOPED_TRACE(::testing::Message()
                             << structureKindName(s) << " / allocator "
                             << static_cast<int>(a) << " / sample "
                             << sample);
                auto cfg = smallCfg(s, a);
                cfg.sampleDpus = sample;
                cfg.shipUpdates = false;
                const auto resident = runGraphUpdate(cfg);
                cfg.shipUpdates = true;
                const auto shipped = runGraphUpdate(cfg);
                EXPECT_EQ(resident.updateSeconds, shipped.updateSeconds);
                EXPECT_EQ(resident.allocStats.mallocCalls,
                          shipped.allocStats.mallocCalls);
                EXPECT_EQ(resident.traffic.totalBytes(),
                          shipped.traffic.totalBytes());
                for (size_t k = 0; k < sim::kNumCycleKinds; ++k)
                    EXPECT_EQ(resident.breakdown.cycles[k],
                              shipped.breakdown.cycles[k]);
                EXPECT_EQ(resident.fragmentation, shipped.fragmentation);
                EXPECT_EQ(resident.metadataBytes, shipped.metadataBytes);
                EXPECT_EQ(resident.allocStats.latency.p99(),
                          shipped.allocStats.latency.p99());
                EXPECT_GT(resident.updateSeconds, 0.0);
            }
        }
    }
}

TEST(UpdateDriver, BuildDrainsWithFirstRound)
{
    // The untimed build launch resolves in round 0's drain, so a
    // standalone task drains once per round and each DPU builds and
    // updates its shard back to back.
    for (const unsigned rounds : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message() << rounds << " rounds");
        auto cfg = smallCfg(StructureKind::LinkedList,
                            core::AllocatorKind::PimMallocSw);
        cfg.updateRounds = rounds;
        core::PimSystem sys(systemOf(cfg));
        core::CommandQueue queue(sys);
        GraphUpdateTask task(cfg, queue, sys.all());
        while (!task.done())
            task.step();
        EXPECT_EQ(queue.drainStats().drains, rounds);
        EXPECT_GT(task.result().updateSeconds, 0.0);
    }
    // Even a single round has a round boundary on the queue timeline.
    const auto r = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(r.wallSeconds, 0.0);
}

TEST(UpdateDriverDeathTest, BuildFailureUnderFaultInjectionIsFatal)
{
    // Rank 0 is dead before the build launch starts; the first step()
    // finds the failed build right after round 0's drain.
    auto cfg = smallCfg(StructureKind::LinkedList,
                        core::AllocatorKind::PimMallocSw);
    cfg.simThreads = 1;
    core::PimSystem sys(systemOf(cfg));
    fault::FaultEvent dead;
    dead.kind = fault::FaultKind::RankFail;
    dead.atSec = 0.0;
    dead.rank = 0;
    fault::FaultInjector inj(fault::FaultPlan({}, {dead}, sys.numRanks()));
    core::CommandQueue queue(sys);
    queue.attachFaultInjector(&inj);
    GraphUpdateTask task(cfg, queue, sys.all());
    EXPECT_DEATH(task.step(), "graph build failed under fault injection");
}
