/**
 * @file
 * Tests for the parallel multi-DPU execution engine: thread-count
 * invariance of whole-system CommandQueue launches (per-slot cycles,
 * cycle breakdowns, traffic, and the resolved makespan), agreement of
 * pooled launches with a sequential per-DPU reference, PIM_SIM_THREADS
 * resolution, and forEach coverage/exception semantics.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/command_queue.hh"
#include "core/parallel_engine.hh"
#include "core/pim_system.hh"
#include "sim/mutex.hh"
#include "workloads/graph/update_driver.hh"

using namespace pim;
using namespace pim::core;

namespace {

/** Small-MRAM DPU so tests don't pay 64 MB of backing store per DPU. */
sim::DpuConfig
smallDpuCfg()
{
    sim::DpuConfig cfg;
    cfg.mramBytes = 1u << 20;
    return cfg;
}

/** A contention-free per-DPU program with index-dependent compute,
 *  DMA traffic, and idle time, so every per-slot outcome field differs
 *  across DPUs. */
void
referenceProgram(sim::Dpu &dpu, unsigned idx)
{
    dpu.run(4, [idx](sim::Tasklet &t) {
        t.execute(50 + 13 * (idx % 7) + t.id());
        t.dmaRead(0, 64 + 8 * (idx % 5));
        t.dmaWrite(4096, 32 + 8 * (t.id() % 3));
        t.stall(5 + idx % 3, sim::CycleKind::BusyWait);
    });
}

/** Per-slot outcome of one whole-system launchProgram, kept per slot so
 *  a comparison pins every simulated DPU, not just an aggregate. */
struct LaunchOutcome
{
    std::vector<uint64_t> cycles;
    std::vector<sim::CycleBreakdown> breakdown;
    std::vector<sim::TrafficStats> traffic;
    /** The queue's resolved makespan (sync()). */
    double makespan = 0.0;
};

using Program = LaunchFn;

LaunchOutcome
launchWithThreads(unsigned num_dpus, unsigned threads, unsigned sample = 0,
                  Program program = referenceProgram)
{
    PimSystemConfig cfg;
    cfg.numDpus = num_dpus;
    cfg.sampleDpus = sample;
    cfg.dpuCfg = smallDpuCfg();
    cfg.simThreads = threads;
    PimSystem sys(cfg);
    CommandQueue queue(sys);
    queue.launchProgram(sys.all(), std::move(program));
    LaunchOutcome out;
    out.makespan = queue.sync();
    for (unsigned slot = 0; slot < sys.sampleCount(); ++slot) {
        const sim::Dpu &dpu = sys.dpu(slot);
        out.cycles.push_back(dpu.lastElapsedCycles());
        out.breakdown.push_back(dpu.lastBreakdown());
        out.traffic.push_back(dpu.traffic());
    }
    return out;
}

void
expectIdentical(const LaunchOutcome &a, const LaunchOutcome &b)
{
    ASSERT_EQ(a.cycles.size(), b.cycles.size());
    EXPECT_EQ(a.cycles, b.cycles);
    // Bit-identical doubles, not just approximately equal: the fold is
    // sequential in slot order whatever ran the launch bodies.
    EXPECT_EQ(a.makespan, b.makespan);
    for (size_t s = 0; s < a.cycles.size(); ++s) {
        for (size_t k = 0; k < sim::kNumCycleKinds; ++k)
            EXPECT_EQ(a.breakdown[s].cycles[k], b.breakdown[s].cycles[k])
                << "slot " << s;
        const sim::TrafficStats &x = a.traffic[s];
        const sim::TrafficStats &y = b.traffic[s];
        EXPECT_EQ(x.dataReadBytes, y.dataReadBytes) << "slot " << s;
        EXPECT_EQ(x.dataWriteBytes, y.dataWriteBytes) << "slot " << s;
        EXPECT_EQ(x.metadataReadBytes, y.metadataReadBytes)
            << "slot " << s;
        EXPECT_EQ(x.metadataWriteBytes, y.metadataWriteBytes)
            << "slot " << s;
        EXPECT_EQ(x.dmaTransfers, y.dmaTransfers) << "slot " << s;
    }
}

} // namespace

TEST(ParallelEngine, ThreadCountInvariance)
{
    // 130 DPUs: a non-multiple of the chunk size, so the last chunk is
    // ragged — the hardest case for index-addressed result slots.
    const auto r1 = launchWithThreads(130, 1);
    const auto r4 = launchWithThreads(130, 4);
    const auto r7 = launchWithThreads(130, 7);
    expectIdentical(r1, r4);
    expectIdentical(r1, r7);
    ASSERT_EQ(r1.cycles.size(), 130u);
    EXPECT_GT(r1.makespan, 0.0);
    EXPECT_GT(r1.traffic[129].totalBytes(), 0u);
}

TEST(ParallelEngine, ThreadCountInvarianceUnderSampling)
{
    const auto r1 = launchWithThreads(512, 1, 48);
    const auto r4 = launchWithThreads(512, 4, 48);
    const auto r7 = launchWithThreads(512, 7, 48);
    expectIdentical(r1, r4);
    expectIdentical(r1, r7);
    EXPECT_EQ(r1.cycles.size(), 48u);
}

TEST(ParallelEngine, PooledLaunchMatchesSequentialReference)
{
    // Each slot's outcome equals running its program on a fresh Dpu on
    // the calling thread, so the pool adds nothing but parallelism.
    const unsigned n = 40;
    const auto r = launchWithThreads(n, 4);
    ASSERT_EQ(r.cycles.size(), n);
    for (unsigned i = 0; i < n; ++i) {
        sim::Dpu dpu{smallDpuCfg()};
        referenceProgram(dpu, i);
        EXPECT_EQ(r.cycles[i], dpu.lastElapsedCycles()) << "dpu " << i;
        for (size_t k = 0; k < sim::kNumCycleKinds; ++k)
            EXPECT_EQ(r.breakdown[i].cycles[k],
                      dpu.lastBreakdown().cycles[k]);
        EXPECT_EQ(r.traffic[i].dataReadBytes, dpu.traffic().dataReadBytes);
        EXPECT_EQ(r.traffic[i].dataWriteBytes,
                  dpu.traffic().dataWriteBytes);
        EXPECT_EQ(r.traffic[i].dmaTransfers, dpu.traffic().dmaTransfers);
    }
}

TEST(ParallelEngine, SystemHonorsExplicitThreadCount)
{
    PimSystemConfig cfg;
    cfg.numDpus = 64;
    cfg.sampleDpus = 2;
    cfg.simThreads = 6;
    EXPECT_EQ(PimSystem(cfg).engine().threadCount(), 6u);
}

TEST(ParallelEngine, ResolveThreadsPrecedence)
{
    // Explicit request wins over everything.
    EXPECT_EQ(resolveSimThreads(5), 5u);

    // PIM_SIM_THREADS is honored when no explicit request is made.
    ::setenv("PIM_SIM_THREADS", "3", 1);
    EXPECT_EQ(resolveSimThreads(0), 3u);
    EXPECT_EQ(resolveSimThreads(7), 7u);
    EXPECT_EQ(ParallelDpuEngine(0).threadCount(), 3u);

    // An empty value counts as unset.
    ::setenv("PIM_SIM_THREADS", "", 1);
    EXPECT_GE(resolveSimThreads(0), 1u);

    // An explicit request never consults the environment, so even a
    // bogus value is ignored when a positive count is passed.
    ::setenv("PIM_SIM_THREADS", "zero", 1);
    EXPECT_EQ(resolveSimThreads(7), 7u);

    ::unsetenv("PIM_SIM_THREADS");
    EXPECT_GE(resolveSimThreads(0), 1u);
}

TEST(ParallelEngineDeath, InvalidEnvThreadCountIsFatal)
{
    // Garbage, zero, negative, and trailing-junk values must fail
    // loudly instead of silently selecting the hardware thread count.
    EXPECT_DEATH({
        ::setenv("PIM_SIM_THREADS", "zero", 1);
        resolveSimThreads(0);
    }, "PIM_SIM_THREADS must be a positive integer");
    EXPECT_DEATH({
        ::setenv("PIM_SIM_THREADS", "0", 1);
        resolveSimThreads(0);
    }, "PIM_SIM_THREADS must be a positive integer");
    EXPECT_DEATH({
        ::setenv("PIM_SIM_THREADS", "-2", 1);
        resolveSimThreads(0);
    }, "PIM_SIM_THREADS must be a positive integer");
    EXPECT_DEATH({
        ::setenv("PIM_SIM_THREADS", "4cores", 1);
        resolveSimThreads(0);
    }, "PIM_SIM_THREADS must be a positive integer");
    ::unsetenv("PIM_SIM_THREADS");
}

TEST(ParallelEngine, ForEachCoversEveryIndexExactlyOnce)
{
    const size_t n = 1000; // spans many chunks
    std::vector<std::atomic<unsigned>> hits(n);
    ParallelDpuEngine engine(8);
    engine.forEach(n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelEngine, ForEachHandlesEmptyAndTiny)
{
    ParallelDpuEngine engine(8);
    engine.forEach(0, [](size_t) { FAIL() << "must not be called"; });

    std::atomic<unsigned> calls{0};
    engine.forEach(1, [&](size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 1u);
}

TEST(ParallelEngine, ForEachPropagatesExceptions)
{
    ParallelDpuEngine engine(4);
    EXPECT_THROW(engine.forEach(256,
                                [](size_t i) {
                                    if (i == 200)
                                        throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
}

TEST(ParallelEngine, GraphUpdateDriverIsThreadCountInvariant)
{
    workloads::graph::GraphUpdateConfig sampled;
    sampled.numDpus = 32;
    sampled.sampleDpus = 8;
    sampled.tasklets = 4;
    sampled.gen.numNodes = 512;
    sampled.gen.numEdges = 2048;
    // The full-system, shipped, multi-round form the graph benchmark
    // runs: every build body races for the one-time dataset partition.
    workloads::graph::GraphUpdateConfig rounds = sampled;
    rounds.sampleDpus = 0;
    rounds.shipUpdates = true;
    rounds.updateRounds = 4;
    for (const auto &cfg : {sampled, rounds}) {
        SCOPED_TRACE(cfg.shipUpdates ? "full system, 4 shipped rounds"
                                     : "sampled, 1 resident round");
        auto run = [&cfg](unsigned threads) {
            workloads::graph::GraphUpdateConfig c = cfg;
            c.simThreads = threads;
            return workloads::graph::runGraphUpdate(c);
        };
        const auto a = run(1);
        const auto b = run(8);
        EXPECT_EQ(a.updateSeconds, b.updateSeconds);
        EXPECT_EQ(a.updateEdgesTotal, b.updateEdgesTotal);
        EXPECT_EQ(a.allocStats.mallocCalls, b.allocStats.mallocCalls);
        EXPECT_EQ(a.allocStats.freeCalls, b.allocStats.freeCalls);
        EXPECT_EQ(a.fragmentation, b.fragmentation);
        EXPECT_EQ(a.traffic.totalBytes(), b.traffic.totalBytes());
        for (size_t k = 0; k < sim::kNumCycleKinds; ++k)
            EXPECT_EQ(a.breakdown.cycles[k], b.breakdown.cycles[k]);
        EXPECT_GT(a.allocStats.mallocCalls, 0u);
    }
}

namespace {

/** Per-DPU program with real intra-DPU lock contention, so the mutex
 *  execution mode @p mode matters to the simulated timeline. */
Program
contendedProgram(sim::SimMutex::Mode mode)
{
    return [mode](sim::Dpu &dpu, unsigned idx) {
        sim::SimMutex mutex(mode);
        dpu.run(8, [&mutex, idx](sim::Tasklet &t) {
            for (unsigned i = 0; i < 6; ++i) {
                mutex.lock(t);
                t.execute(40 + idx % 5 + t.id());
                mutex.unlock(t);
                t.execute(10 + 3 * t.id());
                t.dmaRead(0, 64);
            }
        });
    };
}

} // namespace

TEST(ParallelEngine, PersistentPoolReusesThreadsAcrossCalls)
{
    ParallelDpuEngine engine(4);
    EXPECT_EQ(engine.liveWorkers(), 0u); // lazily spawned

    auto collectIds = [&]() {
        std::mutex m;
        std::set<std::thread::id> ids;
        engine.forEach(256, [&](size_t) {
            std::lock_guard<std::mutex> lock(m);
            ids.insert(std::this_thread::get_id());
        });
        return ids;
    };
    auto all_ids = collectIds();
    EXPECT_GT(engine.liveWorkers(), 0u);
    EXPECT_LE(engine.liveWorkers(), 4u);
    const unsigned live_after_first = engine.liveWorkers();

    // Later calls are served by the same parked workers: the pool does
    // not grow, and the union of executing threads across many calls
    // never exceeds it (per-call spawning would mint fresh ids every
    // round).
    for (int round = 0; round < 3; ++round) {
        const auto again = collectIds();
        all_ids.insert(again.begin(), again.end());
    }
    EXPECT_EQ(engine.liveWorkers(), live_after_first);
    EXPECT_LE(all_ids.size(), live_after_first);

    // The caller never executes indices itself (workers own the job).
    EXPECT_FALSE(all_ids.count(std::this_thread::get_id()));
}

TEST(ParallelEngine, NestedForEachRunsInline)
{
    ParallelDpuEngine engine(4);
    std::vector<std::atomic<unsigned>> hits(32);
    engine.forEach(4, [&](size_t outer) {
        // A nested call on the same engine must not dead-lock on the
        // dispatcher; it runs inline on the worker.
        engine.forEach(8, [&](size_t inner) {
            hits[outer * 8 + inner].fetch_add(
                1, std::memory_order_relaxed);
        });
    });
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ParallelEngine, AffinityFromEnvParsing)
{
    EXPECT_FALSE(ParallelDpuEngine::affinityFromEnv(nullptr));
    EXPECT_FALSE(ParallelDpuEngine::affinityFromEnv(""));
    EXPECT_FALSE(ParallelDpuEngine::affinityFromEnv("0"));
    EXPECT_TRUE(ParallelDpuEngine::affinityFromEnv("1"));
}

TEST(ParallelEngineDeath, InvalidAffinityEnvValueIsFatal)
{
    EXPECT_DEATH({
        ::setenv("PIM_SIM_AFFINITY", "yes", 1);
        ParallelDpuEngine engine(2);
    }, "PIM_SIM_AFFINITY");
    EXPECT_DEATH({
        ::setenv("PIM_SIM_AFFINITY", "2", 1);
        ParallelDpuEngine engine(2);
    }, "PIM_SIM_AFFINITY");
    ::unsetenv("PIM_SIM_AFFINITY");
}

TEST(ParallelEngine, PinnedPlacementIsDeterministicAndCovers)
{
    // Pinned mode switches to static contiguous slices; coverage and
    // determinism must be unaffected.
    ::setenv("PIM_SIM_AFFINITY", "1", 1);
    {
        ParallelDpuEngine engine(4);
        EXPECT_TRUE(engine.affinityEnabled());
        std::vector<std::atomic<unsigned>> hits(130);
        engine.forEach(130, [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1u) << "index " << i;

        // Slice ownership is a total, stable partition of the indices.
        unsigned prev = 0;
        for (size_t i = 0; i < 130; ++i) {
            const unsigned owner = engine.ownerOfIndex(i, 130);
            EXPECT_LT(owner, 4u);
            EXPECT_GE(owner, prev) << "owners must be non-decreasing";
            prev = owner;
        }

        const auto r = launchWithThreads(64, 4);
        ::unsetenv("PIM_SIM_AFFINITY");
        const auto ref = launchWithThreads(64, 4);
        expectIdentical(r, ref);
    }
    ::unsetenv("PIM_SIM_AFFINITY");
}

TEST(ParallelEngine, QueueMutexThreadCountInvariance)
{
    // The parked-waiter mutex must preserve the engine's bit-identity
    // guarantee across PIM_SIM_THREADS settings...
    const auto queue = sim::SimMutex::Mode::Queue;
    const auto r1 = launchWithThreads(130, 1, 0, contendedProgram(queue));
    const auto r4 = launchWithThreads(130, 4, 0, contendedProgram(queue));
    const auto r7 = launchWithThreads(130, 7, 0, contendedProgram(queue));
    expectIdentical(r1, r4);
    expectIdentical(r1, r7);
    EXPECT_GT(r1.breakdown[0].of(sim::CycleKind::BusyWait), 0u);

    // ...and matches the spin reference slot for slot (the cross-mode
    // fidelity contract, at system scale).
    const auto s4 = launchWithThreads(
        130, 4, 0, contendedProgram(sim::SimMutex::Mode::Spin));
    expectIdentical(r1, s4);
}
