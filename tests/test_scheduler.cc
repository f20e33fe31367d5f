/**
 * @file
 * Tests for the deterministic tasklet scheduler and the pipeline cost
 * model: min-clock scheduling, issue-interval scaling, and cycle
 * breakdown accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/dpu.hh"
#include "sim/mutex.hh"
#include "sim/scheduler.hh"

using namespace pim::sim;

TEST(Scheduler, SingleTaskletCost)
{
    Dpu dpu;
    // One active tasklet: each instruction takes the 11-cycle issue
    // interval.
    dpu.run(1, [](Tasklet &t) { t.execute(10); });
    EXPECT_EQ(dpu.lastElapsedCycles(), 10u * 11u);
}

TEST(Scheduler, PipelineSharingScalesCost)
{
    Dpu dpu;
    // 16 active tasklets > issue interval 11: each instruction costs 16
    // cycles while all 16 are active.
    dpu.run(16, [](Tasklet &t) { t.execute(10); });
    EXPECT_EQ(dpu.lastElapsedCycles(), 10u * 16u);
}

TEST(Scheduler, FewTaskletsBoundedByIssueInterval)
{
    Dpu dpu;
    // 4 active tasklets < 11: still the 11-cycle interval.
    dpu.run(4, [](Tasklet &t) { t.execute(10); });
    EXPECT_EQ(dpu.lastElapsedCycles(), 10u * 11u);
}

TEST(Scheduler, DeterministicInterleaving)
{
    auto run_once = [] {
        Dpu dpu;
        std::vector<unsigned> order;
        dpu.run(4, [&](Tasklet &t) {
            for (int i = 0; i < 3; ++i) {
                order.push_back(t.id());
                t.execute(1 + t.id());
            }
        });
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, MinClockFirst)
{
    Dpu dpu;
    std::vector<unsigned> order;
    dpu.run(2, [&](Tasklet &t) {
        if (t.id() == 0) {
            t.execute(100); // big first charge
            order.push_back(0);
        } else {
            t.execute(1); // small charges keep tasklet 1 behind
            order.push_back(1);
            t.execute(1);
            order.push_back(1);
        }
    });
    // Tasklet 1's cheap steps complete before tasklet 0's expensive one.
    EXPECT_EQ(order, (std::vector<unsigned>{1, 1, 0}));
}

TEST(Scheduler, StallChargesRawCycles)
{
    Dpu dpu;
    dpu.run(16, [](Tasklet &t) { t.stall(100, CycleKind::IdleEtc); });
    // No pipeline scaling for stalls.
    EXPECT_EQ(dpu.lastElapsedCycles(), 100u);
}

TEST(Scheduler, BreakdownAttribution)
{
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) {
        t.execute(10, CycleKind::Run);
        t.execute(5, CycleKind::BusyWait);
        t.stall(33, CycleKind::IdleMemory);
    });
    const auto &bd = dpu.lastBreakdown();
    EXPECT_EQ(bd.of(CycleKind::Run), 110u);
    EXPECT_EQ(bd.of(CycleKind::BusyWait), 55u);
    EXPECT_EQ(bd.of(CycleKind::IdleMemory), 33u);
    EXPECT_EQ(bd.total(), 110u + 55u + 33u);
}

TEST(Scheduler, IdlePaddingForEarlyFinishers)
{
    Dpu dpu;
    dpu.run(2, [](Tasklet &t) {
        t.execute(t.id() == 0 ? 1 : 100);
    });
    const auto &bd = dpu.lastBreakdown();
    // Tasklet 0 finished early; the gap shows up as Idle(Etc).
    EXPECT_GT(bd.of(CycleKind::IdleEtc), 0u);
    // Total accounting covers tasklets x makespan.
    EXPECT_EQ(bd.total(), 2 * dpu.lastElapsedCycles());
}

TEST(Scheduler, DistinctBodies)
{
    Dpu dpu;
    int a = 0, b = 0;
    std::vector<std::function<void(Tasklet &)>> bodies;
    bodies.emplace_back([&](Tasklet &t) { a = 1; t.execute(1); });
    bodies.emplace_back([&](Tasklet &t) { b = 2; t.execute(2); });
    dpu.runBodies(std::move(bodies));
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 2);
}

TEST(Scheduler, ActiveCountDropsAsTaskletsFinish)
{
    // The pipeline cost model sees fewer active tasklets once some
    // finish: a tasklet running alone at the end pays only the issue
    // interval.
    Dpu dpu;
    std::vector<uint64_t> clocks;
    dpu.run(16, [&](Tasklet &t) {
        t.execute(1);
        if (t.id() == 0) {
            // Keep running after everyone else is done.
            for (int i = 0; i < 100; ++i)
                t.execute(1);
            clocks.push_back(t.clock());
        }
    });
    ASSERT_EQ(clocks.size(), 1u);
    // If all 100 instructions had been charged at 16 cycles each the
    // clock would be >= 1616; running mostly alone it is far less.
    EXPECT_LT(clocks[0], 16 + 100 * 16);
    EXPECT_GE(clocks[0], 16 + 100 * 11);
}

TEST(Scheduler, SimEventsCountCharges)
{
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) {
        t.execute(10);
        t.stall(5, CycleKind::IdleEtc);
        t.dmaRead(0, 64);
        t.execute(0); // zero charges are elided, not events
    });
    EXPECT_EQ(dpu.lastSimEvents(), 3u);
}

TEST(Scheduler, HorizonRunAheadSkipsSwitchesNotEvents)
{
    // Same program under both policies: identical clocks and event
    // counts (the determinism suite checks this exhaustively; this is
    // the smoke version guarding the Dpu plumbing).
    auto run = [](TaskletScheduler::Policy policy) {
        Dpu dpu;
        TaskletScheduler sched(dpu, policy);
        for (int k = 0; k < 4; ++k)
            sched.spawn([](Tasklet &t) {
                for (int i = 0; i < 10; ++i)
                    t.execute(1 + t.id());
            });
        sched.runToCompletion();
        std::vector<uint64_t> out;
        for (size_t i = 0; i < sched.numTasklets(); ++i) {
            out.push_back(sched.tasklet(i).clock());
            out.push_back(sched.tasklet(i).simEvents());
        }
        return out;
    };
    EXPECT_EQ(run(TaskletScheduler::Policy::Horizon),
              run(TaskletScheduler::Policy::NaiveReference));
}

namespace {

/**
 * Check pipelineWidthAt() of a finished launch before the first finish,
 * at and just after every finish, and after the last one, through both
 * the one-shot query and one cursor walked over the same nondecreasing
 * keys.
 */
void
expectWidthsFollowFinishes(const TaskletScheduler &sched, uint64_t interval)
{
    std::vector<uint64_t> finishes;
    for (size_t i = 0; i < sched.numTasklets(); ++i)
        finishes.push_back((sched.tasklet(i).clock() << Tasklet::kIdBits)
                           | sched.tasklet(i).id());
    std::sort(finishes.begin(), finishes.end());
    const uint64_t n = finishes.size();
    // A finish at key K counts only for keys after K.
    auto width = [&](uint64_t finished) {
        return std::max<uint64_t>(interval, n - finished);
    };
    size_t cursor = 0;
    EXPECT_EQ(sched.pipelineWidthAt(0), width(0));
    EXPECT_EQ(sched.pipelineWidthAt(0, cursor), width(0));
    for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(sched.pipelineWidthAt(finishes[j]), width(j));
        EXPECT_EQ(sched.pipelineWidthAt(finishes[j], cursor), width(j));
        EXPECT_EQ(sched.pipelineWidthAt(finishes[j] + 1), width(j + 1));
        EXPECT_EQ(sched.pipelineWidthAt(finishes[j] + 1, cursor),
                  width(j + 1));
    }
    EXPECT_EQ(sched.pipelineWidthAt(UINT64_MAX), width(n));
    EXPECT_EQ(sched.pipelineWidthAt(UINT64_MAX, cursor), width(n));
}

} // namespace

TEST(Scheduler, PipelineWidthReplaysFinishHistory)
{
    for (const auto policy : {TaskletScheduler::Policy::Horizon,
                              TaskletScheduler::Policy::NaiveReference}) {
        SCOPED_TRACE(policy == TaskletScheduler::Policy::Horizon
                         ? "horizon" : "naive");
        Dpu dpu;
        const uint64_t interval = dpu.config().pipelineIssueInterval;
        TaskletScheduler sched(dpu, policy);
        uint64_t width_at_start = 0;
        uint64_t width_at_end = 0;
        for (int k = 0; k < 16; ++k)
            sched.spawn([&](Tasklet &t) {
                if (t.id() == 15) {
                    width_at_start = t.scheduler().pipelineWidthAt(
                        (t.clock() << Tasklet::kIdBits) | t.id());
                }
                // Tasklet i runs i + 1 blocks, so they finish one by
                // one in id order.
                for (unsigned i = 0; i <= t.id(); ++i)
                    t.execute(10);
                if (t.id() == 15) {
                    width_at_end = t.scheduler().pipelineWidthAt(
                        (t.clock() << Tasklet::kIdBits) | t.id());
                }
            });
        sched.runToCompletion();
        EXPECT_EQ(width_at_start, 16u);
        // Alone at the end: the other 15 finished at earlier keys.
        EXPECT_EQ(width_at_end, interval);
        expectWidthsFollowFinishes(sched, interval);
    }
}

TEST(Scheduler, PipelineWidthReplayInParkedMutexLaunch)
{
    // Tasklet 0 holds the lock for a long time; tasklets 1-7 park on it
    // and reach the backoff cap, and tasklets 8-15 finish one by one
    // meanwhile, so the replay at the release walks waiters' re-checks
    // across eight finishes (width 16 down to 11). Queue (parked) and
    // Spin runs must agree, and the finish history must replay the
    // width.
    auto run = [](TaskletScheduler::Policy policy, SimMutex::Mode mode) {
        Dpu dpu;
        SimMutex m(mode);
        TaskletScheduler sched(dpu, policy);
        for (int k = 0; k < 16; ++k)
            sched.spawn([&](Tasklet &t) {
                if (t.id() >= 8) {
                    t.execute(500 * (t.id() - 7));
                    return;
                }
                t.execute(10 * t.id());
                m.lock(t);
                t.execute(t.id() == 0 ? 20000 : 100);
                m.unlock(t);
            });
        sched.runToCompletion();
        expectWidthsFollowFinishes(sched,
                                   dpu.config().pipelineIssueInterval);
        if (mode == SimMutex::Mode::Queue) {
            EXPECT_GE(m.parkedCount(), 7u);
            EXPECT_GT(m.elidedSpinEvents(), 7u * 20);
        }
        std::vector<uint64_t> out;
        for (size_t i = 0; i < sched.numTasklets(); ++i) {
            out.push_back(sched.tasklet(i).clock());
            out.push_back(sched.tasklet(i).breakdown().of(
                CycleKind::BusyWait));
        }
        return out;
    };
    for (const auto policy : {TaskletScheduler::Policy::Horizon,
                              TaskletScheduler::Policy::NaiveReference}) {
        EXPECT_EQ(run(policy, SimMutex::Mode::Queue),
                  run(policy, SimMutex::Mode::Spin));
    }
}

TEST(SchedulerDeath, TooManyTaskletsPanics)
{
    Dpu dpu;
    EXPECT_DEATH(dpu.run(25, [](Tasklet &t) { t.execute(1); }),
                 "at most");
}
