/**
 * @file
 * The repository benchmark program: one process runs one thing and
 * prints it as a JSON object on stdout. run.py builds this program,
 * starts a fresh process per sample (so no sample inherits allocator,
 * page-cache or thread-pool state from an earlier one), aggregates the
 * samples into the benchmark's metrics, and checks the simulated
 * outputs against the recorded fingerprints.
 *
 *   pimbench --workload llm-serve|graph-ingest|queue-storm --seed N
 *            [--mode iteration|setup|probes] [--trace 0|1]
 *            [--size full|tiny] [--threads T] [--spans-out FILE]
 *
 * iteration: set the workload up and run it once, reporting the set-up
 *   wall, the timed-phase wall and CPU, the work done, every simulated
 *   output, and the invariants that broke. With --trace 1 it also
 *   records a span around every call the benchmark makes into the
 *   library (system and task construction, step(), enqueue bursts,
 *   sync(), result(), teardown), each carrying the
 *   CommandQueue::drainStats() deltas at its boundaries; the spans stay
 *   in memory, become the per-layer metrics, and are written to
 *   --spans-out at the end.
 * setup: only set the workload up (the set-up-time samples).
 * probes: the ladder of per-layer probes, each sized to at least 50 ms
 *   per repetition.
 *
 * Nothing is instrumented inside the library: every number comes from
 * timing public calls and reading public counters.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.hh"
#include "core/allocator_factory.hh"
#include "core/command_queue.hh"
#include "core/parallel_engine.hh"
#include "core/pim_system.hh"
#include "sim/dpu.hh"
#include "sim/fiber.hh"
#include "sim/mutex.hh"
#include "telemetry/registry.hh"
#include "trace/trace.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "workloads/graph/update_driver.hh"
#include "workloads/llm/serving_engine.hh"

using namespace pim;

namespace {

using DrainStats = core::CommandQueue::DrainStats;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** User + system CPU seconds of the whole process. */
double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
            + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
median(std::vector<double> v)
{
    PIM_ASSERT(!v.empty(), "median of nothing");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (0 < p <= 100). */
double
nearestRank(std::vector<double> v, double p)
{
    PIM_ASSERT(!v.empty(), "percentile of nothing");
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
    return v[std::min(rank, v.size()) - 1];
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::string
exact(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------
// Span trace of the benchmark's own calls into the library.
// ---------------------------------------------------------------------

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double t0 = 0.0;
        double t1 = 0.0;
        DrainStats d0{};
        DrainStats d1{};
    };

    /** The queue whose drainStats() the spans snapshot (nullptr =
     *  none exists yet; the spans then carry zero deltas). */
    void setQueue(const core::CommandQueue *q) { queue_ = q; }

    int
    open(const char *name)
    {
        Span s;
        s.name = name;
        s.parent = open_;
        s.d0 = stats();
        s.t0 = wallNow();
        spans_.push_back(std::move(s));
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }

    void
    close(int id)
    {
        Span &s = spans_[static_cast<size_t>(id)];
        s.t1 = wallNow();
        s.d1 = stats();
        open_ = s.parent;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    DrainStats stats() const
    {
        return queue_ != nullptr ? queue_->drainStats() : DrainStats{};
    }

    std::vector<Span> spans_;
    const core::CommandQueue *queue_ = nullptr;
    int open_ = -1;
};

/** RAII span, recorded only when tracing is on (log != nullptr). */
class Scope
{
  public:
    Scope(SpanLog *log, const char *name)
        : log_(log), id_(log != nullptr ? log->open(name) : -1),
          t0_(wallNow())
    {
    }
    ~Scope() { end(); }

    /** Close the span before the end of the enclosing block.
     *  @return seconds since the span opened. */
    double
    end()
    {
        if (log_ != nullptr && id_ >= 0)
            log_->close(id_);
        id_ = -1;
        return wallNow() - t0_;
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog *log_;
    int id_;
    double t0_;
};

// ---------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------

/** A named value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one iteration of a workload produced. */
struct IterResult
{
    double setupSystem = 0.0; ///< PimSystem construction wall
    double setupTask = 0.0;   ///< queue + task construction wall
    double timed = 0.0;       ///< timed-phase wall
    double cpu = 0.0;         ///< timed-phase user + sys CPU
    uint64_t ops = 0;         ///< work units done in the timed phase
    uint64_t steps = 0;       ///< workload step() calls
    /** drainStats() accumulated over the timed phases. */
    DrainStats drain{};
    /** Every simulated output, in emission order (fingerprinted). */
    std::vector<std::pair<std::string, std::string>> outputs;
    /** The model outputs the workload reports by name. */
    std::vector<Metric> model;
    /** The three simulated end-to-end metrics every workload has. */
    double simOpsPerSec = 0.0;
    double simP99Ms = 0.0;
    double simMakespanSec = 0.0;
    /** Broken invariants (empty = all hold). */
    std::vector<std::string> violations;

    void
    out(const std::string &k, double v)
    {
        outputs.emplace_back(k, exact(v));
    }
    void
    out(const std::string &k, uint64_t v)
    {
        outputs.emplace_back(k, std::to_string(v));
    }
    void
    require(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(what);
    }
    void
    addDrain(const DrainStats &a, const DrainStats &b)
    {
        drain.drains += b.drains - a.drains;
        drain.commands += b.commands - a.commands;
        drain.phase1Sec += b.phase1Sec - a.phase1Sec;
        drain.phase2Sec += b.phase2Sec - a.phase2Sec;
        drain.wallSec += b.wallSec - a.wallSec;
    }
};

/** Observers the llm-serve workload can run with (attached-cost probe). */
enum class Attach { None, Registry, Recorder };

struct Sizes
{
    unsigned llmRequests;
    unsigned graphDpus;
    uint32_t graphNodes;
    uint64_t graphEdges;
    unsigned graphRounds;
    unsigned stormRanks;
    unsigned stormWaves;
};

constexpr Sizes kFull{2000, 512, 196591, 950327, 16, 2048, 128};
constexpr Sizes kTiny{24, 64, 4000, 20000, 4, 64, 4};

/** Requests of the llm-serve run behind the attached-cost probe. */
constexpr unsigned kAttachProbeRequests = 300;

/**
 * llm-serve: the Fig 18 disaggregated trace (PIM-malloc-HW/SW) on 512
 * DPUs, one simulated DPU per rank, driven by step() plus a final
 * sync(). Work unit: decoded tokens.
 */
IterResult
runLlm(unsigned requests, uint64_t seed, unsigned threads, SpanLog *log,
       bool setup_only, Attach attach = Attach::None)
{
    IterResult r;
    workloads::llm::ServingEngineConfig ecfg;
    workloads::llm::ServingConfig &cfg = ecfg.base;
    cfg.numRequests = requests;
    cfg.arrivalRatePerSec = 10.0;
    cfg.promptTokens = 128;
    cfg.outputTokens = 256;
    cfg.numDpus = 512;
    cfg.seed = seed;
    ecfg.mode = workloads::llm::ServingMode::Disaggregated;
    ecfg.simThreads = threads;
    const workloads::llm::ServingScheme scheme{
        core::AllocatorKind::PimMallocHwSw};

    // Observers outlive the queue and task that feed them.
    telemetry::Registry registry;
    trace::Recorder recorder;
    if (attach == Attach::Registry)
        cfg.metrics = &registry;

    std::unique_ptr<core::PimSystem> sys;
    {
        Scope s(log, "setup.system");
        core::PimSystemConfig scfg;
        scfg.numDpus = cfg.numDpus;
        scfg.samplePerRank = true;
        scfg.simThreads = threads;
        sys = std::make_unique<core::PimSystem>(scfg);
        r.setupSystem = s.end();
    }
    std::unique_ptr<core::CommandQueue> queue;
    std::unique_ptr<workloads::llm::DisaggServingTask> task;
    {
        Scope s(log, "setup.task");
        queue = std::make_unique<core::CommandQueue>(*sys);
        if (attach == Attach::Registry)
            queue->attachMetrics(&registry);
        if (attach == Attach::Recorder)
            queue->attachRecorder(&recorder);
        task = std::make_unique<workloads::llm::DisaggServingTask>(
            scheme, ecfg, *queue, sys->all());
        r.setupTask = s.end();
    }
    if (setup_only)
        return r;
    if (log != nullptr)
        log->setQueue(queue.get());

    const DrainStats d0 = queue->drainStats();
    const double c0 = cpuNow();
    const double t0 = wallNow();
    while (!task->done()) {
        Scope s(log, "step");
        task->step();
        ++r.steps;
    }
    double makespan = 0.0;
    {
        Scope s(log, "sync");
        makespan = queue->sync();
    }
    r.timed = wallNow() - t0;
    r.cpu = cpuNow() - c0;
    r.addDrain(d0, queue->drainStats());

    Scope result_span(log, "result");
    const workloads::llm::ServingResult res = task->result();
    const uint64_t tokens = uint64_t{requests} * cfg.outputTokens;
    r.ops = tokens;
    r.require(res.completedRequests == requests,
              "llm-serve: " + std::to_string(res.completedRequests) + " of "
                  + std::to_string(requests) + " requests completed");
    r.require(res.lostRequests == 0 && res.lostSteps == 0,
              "llm-serve: requests or decode steps lost");
    r.require(queue->pendingCommands() == 0,
              "llm-serve: commands left unresolved after sync()");
    r.require(std::abs(res.throughputTokensPerSec * res.makespanSec
                       - static_cast<double>(tokens))
                  <= 1e-6 * static_cast<double>(tokens),
              "llm-serve: decoded tokens differ from requests x outputs");

    r.out("makespan_s", makespan);
    r.out("task_clock_s", res.makespanSec);
    r.out("tpot_p50_ms", res.tpotP50Ms);
    r.out("tpot_p95_ms", res.tpotP95Ms);
    r.out("tpot_p99_ms", res.tpotP99Ms);
    r.out("ttft_p50_ms", res.ttftP50Ms);
    r.out("ttft_p95_ms", res.ttftP95Ms);
    r.out("ttft_p99_ms", res.ttftP99Ms);
    r.out("max_batch", uint64_t{res.maxBatchLimit});
    r.out("peak_batch", uint64_t{res.peakBatchObserved});
    r.out("alloc_s_per_block", res.allocSecPerBlock);
    r.out("prefill_ranks", uint64_t{res.prefillRanks});
    r.out("decode_ranks", uint64_t{res.decodeRanks});
    r.out("prefill_waves", uint64_t{res.prefillWaves});
    r.out("kv_shipped_bytes", res.kvShippedBytes);
    r.out("completed_requests", uint64_t{res.completedRequests});
    r.out("queue_transferred_bytes", queue->transferredBytes());
    r.out("launch_work_s", queue->launchWorkSeconds());
    r.out("copy_work_s", queue->copyWorkSeconds());
    r.out("host_work_s", queue->hostWorkSeconds());

    const double tok_per_s = static_cast<double>(tokens) / makespan;
    r.model = {{"sim_tokens_per_s", tok_per_s, "tok/s"},
               {"sim_tpot_p99_ms", res.tpotP99Ms, "ms"},
               {"sim_ttft_p99_ms", res.ttftP99Ms, "ms"}};
    r.simOpsPerSec = tok_per_s;
    r.simP99Ms = res.tpotP99Ms;
    r.simMakespanSec = makespan;

    result_span.end();
    if (log != nullptr)
        log->setQueue(nullptr);
    Scope td(log, "teardown");
    task.reset();
    queue.reset();
    sys.reset();
    return r;
}

/**
 * graph-ingest: the Fig 17(a) LinkedList row, full system (every DPU
 * simulated), 16 shipped update rounds via GraphUpdateTask, once per
 * allocator. Work unit: update edges, summed over the three configs.
 */
IterResult
runGraph(const Sizes &sz, uint64_t seed, unsigned threads, SpanLog *log,
         bool setup_only)
{
    IterResult r;
    double p99_us_hwsw = 0.0;
    for (const core::AllocatorKind kind : core::kMainKinds) {
        const std::string tag =
            std::string(core::allocatorKindName(kind)) + ".";
        workloads::graph::GraphUpdateConfig cfg;
        cfg.structure = workloads::graph::StructureKind::LinkedList;
        cfg.allocator = kind;
        cfg.numDpus = sz.graphDpus;
        cfg.sampleDpus = 0;
        cfg.tasklets = 16;
        cfg.gen.numNodes = sz.graphNodes;
        cfg.gen.numEdges = sz.graphEdges;
        cfg.gen.seed = mix64(seed);
        cfg.seed = mix64(seed + 1);
        cfg.updateRounds = sz.graphRounds;
        cfg.shipUpdates = true;
        cfg.simThreads = threads;

        std::unique_ptr<core::PimSystem> sys;
        {
            Scope s(log, "setup.system");
            core::PimSystemConfig scfg;
            scfg.numDpus = cfg.numDpus;
            scfg.sampleDpus = cfg.sampleDpus;
            scfg.dpuCfg = cfg.dpuCfg;
            scfg.simThreads = threads;
            sys = std::make_unique<core::PimSystem>(scfg);
            r.setupSystem += s.end();
        }
        std::unique_ptr<core::CommandQueue> queue;
        std::unique_ptr<workloads::graph::GraphUpdateTask> task;
        {
            Scope s(log, "setup.task");
            queue = std::make_unique<core::CommandQueue>(*sys);
            task = std::make_unique<workloads::graph::GraphUpdateTask>(
                cfg, *queue, sys->all());
            r.setupTask += s.end();
        }
        if (setup_only)
            continue;
        if (log != nullptr)
            log->setQueue(queue.get());

        const DrainStats d0 = queue->drainStats();
        const double c0 = cpuNow();
        const double t0 = wallNow();
        unsigned steps = 0;
        while (!task->done()) {
            Scope s(log, "step");
            task->step();
            ++steps;
        }
        double makespan = 0.0;
        {
            Scope s(log, "sync");
            makespan = queue->sync();
        }
        r.timed += wallNow() - t0;
        r.cpu += cpuNow() - c0;
        r.steps += steps;
        r.addDrain(d0, queue->drainStats());

        Scope result_span(log, "result");
        const workloads::graph::GraphUpdateResult res = task->result();
        r.ops += res.updateEdgesTotal;
        const alloc::AllocStats &as = res.allocStats;
        r.require(steps == sz.graphRounds,
                  tag + " ran " + std::to_string(steps) + " of "
                      + std::to_string(sz.graphRounds) + " rounds");
        r.require(res.lostRounds == 0 && res.lostEdges == 0
                      && res.reExecutedRounds == 0,
                  tag + " update rounds lost or re-executed");
        r.require(as.mallocCalls == res.updateEdgesTotal,
                  tag + " inserted " + std::to_string(as.mallocCalls)
                      + " edges of "
                      + std::to_string(res.updateEdgesTotal));
        r.require(as.failures == 0, tag + " allocation failures");
        r.require(queue->pendingCommands() == 0,
                  tag + " commands left unresolved after sync()");

        const double p99_us =
            as.latency.p99() / (cfg.dpuCfg.clockGhz * 1e3);
        r.out(tag + "update_s", res.updateSeconds);
        r.out(tag + "medges_per_s", res.millionEdgesPerSec);
        r.out(tag + "update_edges", res.updateEdgesTotal);
        for (size_t k = 0; k < res.breakdown.cycles.size(); ++k)
            r.out(tag + "cycles." + std::to_string(k),
                  res.breakdown.cycles[k]);
        r.out(tag + "data_read_bytes", res.traffic.dataReadBytes);
        r.out(tag + "data_write_bytes", res.traffic.dataWriteBytes);
        r.out(tag + "meta_read_bytes", res.traffic.metadataReadBytes);
        r.out(tag + "meta_write_bytes", res.traffic.metadataWriteBytes);
        r.out(tag + "dma_transfers", res.traffic.dmaTransfers);
        r.out(tag + "malloc_calls", as.mallocCalls);
        r.out(tag + "free_calls", as.freeCalls);
        for (size_t k = 0; k < 3; ++k) {
            r.out(tag + "serviced." + std::to_string(k), as.serviced[k]);
            r.out(tag + "level_cycles." + std::to_string(k),
                  as.cyclesByLevel[k]);
        }
        r.out(tag + "malloc_p50_cycles", as.latency.p50());
        r.out(tag + "malloc_p99_cycles", as.latency.p99());
        r.out(tag + "fragmentation", res.fragmentation);
        r.out(tag + "metadata_bytes", res.metadataBytes);
        r.out(tag + "avg_alloc_us", res.avgAllocLatencyUs);
        r.out(tag + "wall_s", res.wallSeconds);
        r.out(tag + "makespan_s", makespan);
        r.out(tag + "transferred_bytes", queue->transferredBytes());

        if (kind == core::AllocatorKind::PimMallocHwSw) {
            r.model = {{"sim_medges_per_s", res.millionEdgesPerSec,
                        "Medges/s"},
                       {"sim_malloc_p99_us", p99_us, "us"}};
            r.simOpsPerSec = res.millionEdgesPerSec * 1e6;
            p99_us_hwsw = p99_us;
            r.simMakespanSec = res.updateSeconds;
        }

        result_span.end();
        if (log != nullptr)
            log->setQueue(nullptr);
        Scope td(log, "teardown");
        task.reset();
        queue.reset();
        sys.reset();
    }
    r.simP99Ms = p99_us_hwsw * 1e-3;
    return r;
}

/**
 * queue-storm: the queue-pressure script — per wave, 32 full-system
 * one-tasklet launches plus one tiny launch or copy per rank, then
 * sync(). The seed perturbs the launches' cycle counts and the copies'
 * sizes (32-96 B). Work unit: resolved commands.
 */
IterResult
runStorm(const Sizes &sz, uint64_t seed, unsigned threads, SpanLog *log,
         bool setup_only)
{
    IterResult r;
    const unsigned ranks = sz.stormRanks;

    std::unique_ptr<core::PimSystem> sys;
    {
        Scope s(log, "setup.system");
        core::PimSystemConfig cfg;
        cfg.numDpus = ranks * 64;
        cfg.dpusPerRank = 64;
        cfg.samplePerRank = true;
        // The launch bodies never touch DPU memory; small backing
        // stores keep thousands of materialized DPUs cheap.
        cfg.dpuCfg.mramBytes = 1u << 20;
        cfg.dpuCfg.wramBytes = 4u << 10;
        cfg.simThreads = threads;
        sys = std::make_unique<core::PimSystem>(cfg);
        r.setupSystem = s.end();
    }
    std::unique_ptr<core::CommandQueue> queue;
    std::vector<core::DpuSet> rank_sets;
    std::optional<core::DpuSet> all;
    {
        Scope s(log, "setup.task");
        queue = std::make_unique<core::CommandQueue>(*sys);
        all = sys->all();
        rank_sets.reserve(ranks);
        for (unsigned rk = 0; rk < ranks; ++rk)
            rank_sets.push_back(sys->rank(rk));
        r.setupTask = s.end();
    }
    if (setup_only)
        return r;
    if (log != nullptr)
        log->setQueue(queue.get());

    const DrainStats d0 = queue->drainStats();
    const double c0 = cpuNow();
    const double t0 = wallNow();
    uint64_t enqueued = 0;
    std::vector<double> wave_ends;
    wave_ends.reserve(sz.stormWaves);
    for (unsigned w = 0; w < sz.stormWaves; ++w) {
        const uint64_t wave_key = mix64(seed * 1000003u + w);
        {
            Scope s(log, "enqueue");
            const unsigned shift = static_cast<unsigned>(wave_key % 7);
            for (unsigned i = 0; i < 32; ++i) {
                queue->launch(*all, 1,
                              [i, shift](sim::Tasklet &t, unsigned global) {
                                  t.execute(16 + (global + i + shift) % 7);
                              });
            }
            for (unsigned rk = 0; rk < ranks; ++rk) {
                if (rk % 2 == 0) {
                    const uint64_t instrs =
                        20 + mix64(wave_key + rk) % 9;
                    queue->launch(rank_sets[rk], 1,
                                  [instrs](sim::Tasklet &t, unsigned) {
                                      t.execute(instrs);
                                  });
                } else {
                    const uint64_t bytes =
                        32 + 8 * (mix64(wave_key + rk) % 9);
                    queue->memcpyAsync(rank_sets[rk], bytes,
                                       core::CopyDirection::HostToPim);
                }
            }
            enqueued += 32 + ranks;
        }
        Scope s(log, "sync");
        wave_ends.push_back(queue->sync());
    }
    r.timed = wallNow() - t0;
    r.cpu = cpuNow() - c0;
    r.addDrain(d0, queue->drainStats());

    Scope result_span(log, "result");
    r.ops = r.drain.commands;
    r.require(r.drain.commands == enqueued,
              "queue-storm: resolved " + std::to_string(r.drain.commands)
                  + " of " + std::to_string(enqueued) + " commands");
    r.require(queue->pendingCommands() == 0,
              "queue-storm: commands left unresolved after sync()");

    std::vector<double> wave_lat;
    double prev = 0.0;
    for (size_t w = 0; w < wave_ends.size(); ++w) {
        r.out("wave_end_s." + std::to_string(w), wave_ends[w]);
        wave_lat.push_back(wave_ends[w] - prev);
        prev = wave_ends[w];
    }
    const double makespan = wave_ends.back();
    r.out("transferred_bytes", queue->transferredBytes());
    r.out("launch_work_s", queue->launchWorkSeconds());
    r.out("copy_work_s", queue->copyWorkSeconds());
    r.out("host_work_s", queue->hostWorkSeconds());
    for (unsigned rk = 0; rk < ranks; ++rk)
        r.out("rank_ready_s." + std::to_string(rk),
              queue->rankReadySeconds(rk));

    r.model = {{"sim_makespan_s", makespan, "s"}};
    r.simOpsPerSec = static_cast<double>(enqueued) / makespan;
    r.simP99Ms = nearestRank(wave_lat, 99.0) * 1e3;
    r.simMakespanSec = makespan;

    result_span.end();
    if (log != nullptr)
        log->setQueue(nullptr);
    Scope td(log, "teardown");
    rank_sets.clear();
    all.reset();
    queue.reset();
    sys.reset();
    return r;
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    bool trace = false;
    bool tiny = false;
    unsigned threads = 4;
    std::string spansOut;
};

IterResult
runWorkload(const Options &o, SpanLog *log, bool setup_only = false)
{
    const Sizes &sz = o.tiny ? kTiny : kFull;
    if (o.workload == "llm-serve")
        return runLlm(sz.llmRequests, o.seed, o.threads, log, setup_only);
    if (o.workload == "graph-ingest")
        return runGraph(sz, o.seed, o.threads, log, setup_only);
    return runStorm(sz, o.seed, o.threads, log, setup_only);
}

const char *
opsUnit(const std::string &workload)
{
    if (workload == "llm-serve")
        return "tokens";
    if (workload == "graph-ingest")
        return "edges";
    return "commands";
}

// ---------------------------------------------------------------------
// Per-layer probes (traced runs only).
// ---------------------------------------------------------------------

/** Wall seconds and work units of one probe repetition. */
struct ProbeRep
{
    double wall = 0.0;
    double work = 0.0;
};

/**
 * Seconds per work unit of @p rep(n): n doubles until one repetition
 * takes at least 50 ms, then three repetitions at that size; returns
 * the median per-unit cost.
 */
double
probe(const std::function<ProbeRep(uint64_t)> &rep, uint64_t n = 1)
{
    ProbeRep p = rep(n);
    while (p.wall < 0.05) {
        n *= 2;
        p = rep(n);
    }
    std::vector<double> per_unit;
    for (int i = 0; i < 3; ++i) {
        p = rep(n);
        per_unit.push_back(p.wall / p.work);
    }
    return median(per_unit);
}

sim::DpuConfig
smallDpu()
{
    sim::DpuConfig c;
    c.mramBytes = 1u << 20;
    c.wramBytes = 4u << 10;
    return c;
}

double
probeDispatchUs(unsigned threads)
{
    core::ParallelDpuEngine engine(threads);
    engine.forEach(threads, [](size_t) {}); // spawn the pool
    return 1e6 * probe([&](uint64_t n) {
        const double t0 = wallNow();
        for (uint64_t i = 0; i < n; ++i)
            engine.forEach(threads, [](size_t) {});
        return ProbeRep{wallNow() - t0, static_cast<double>(n)};
    });
}

double
probeLaunchNsPerTasklet()
{
    sim::Dpu dpu(smallDpu());
    return 1e9 * probe([&](uint64_t n) {
        const double t0 = wallNow();
        for (uint64_t i = 0; i < n; ++i)
            dpu.run(16, [](sim::Tasklet &) {});
        return ProbeRep{wallNow() - t0, 16.0 * static_cast<double>(n)};
    });
}

double
probeFiberSwitchNs()
{
    return 1e9 * probe([](uint64_t n) {
        sim::Fiber f([n] {
            for (uint64_t i = 0; i < n; ++i)
                sim::Fiber::yield();
        });
        const double t0 = wallNow();
        while (!f.finished())
            f.resume();
        // n yields plus n + 1 resumes.
        return ProbeRep{wallNow() - t0, 2.0 * static_cast<double>(n) + 1};
    }, 1024);
}

double
probeSchedulerNsPerEvent()
{
    sim::Dpu dpu(smallDpu());
    return 1e9 * probe([&](uint64_t n) {
        const double t0 = wallNow();
        dpu.run(16, [n](sim::Tasklet &t) {
            for (uint64_t i = 0; i < n; ++i)
                t.execute(1);
        });
        return ProbeRep{wallNow() - t0,
                        static_cast<double>(dpu.lastSimEvents())};
    }, 256);
}

/** 16 tasklets fighting over one lock (the default mutex mode). */
std::pair<double, double>
probeMutex()
{
    sim::Dpu dpu(smallDpu());
    double elided_frac = 0.0;
    const double sec = probe([&](uint64_t n) {
        sim::SimMutex mutex;
        const double t0 = wallNow();
        dpu.run(16, [&mutex, n](sim::Tasklet &t) {
            for (uint64_t i = 0; i < n; ++i) {
                mutex.lock(t);
                t.execute(3000 + 100 * (t.id() % 4));
                mutex.unlock(t);
                t.execute(60);
            }
        });
        const double wall = wallNow() - t0;
        const double model = static_cast<double>(
            dpu.lastSimEvents() + mutex.elidedSpinEvents());
        elided_frac =
            static_cast<double>(mutex.elidedSpinEvents()) / model;
        return ProbeRep{wall, model};
    }, 4);
    return {1e9 * sec, elided_frac};
}

/** 16 tasklets doing mixed 16 B - 512 B malloc/free on @p kind. */
std::pair<double, double>
probeAlloc(core::AllocatorKind kind)
{
    static constexpr uint32_t kSizes[] = {16, 48, 32, 512, 64, 256, 24,
                                          128, 96, 384, 16, 192};
    constexpr unsigned kLive = 8;
    double events_per_op = 0.0;
    const double sec = probe([&](uint64_t n) {
        core::PimSystem sys(core::singleDpuConfig());
        sim::Dpu &dpu = sys.dpu(0);
        core::AllocatorOverrides ov;
        ov.numTasklets = 16;
        auto allocator = core::makeAllocator(dpu, kind, ov);
        dpu.run(1, [&](sim::Tasklet &t) { allocator->init(t); });
        const double t0 = wallNow();
        dpu.run(16, [&](sim::Tasklet &t) {
            sim::MramAddr live[kLive];
            for (uint64_t i = 0; i < n; ++i) {
                const unsigned slot = static_cast<unsigned>(i % kLive);
                if (i >= kLive) {
                    const bool ok = allocator->free(t, live[slot]);
                    PIM_ASSERT(ok, "probe free failed");
                }
                live[slot] = allocator->malloc(
                    t, kSizes[(i + t.id()) % std::size(kSizes)]);
                PIM_ASSERT(live[slot] != sim::kNullAddr,
                           "probe heap exhausted");
            }
        });
        const double wall = wallNow() - t0;
        const uint64_t per_tasklet = 2 * n - std::min<uint64_t>(n, kLive);
        const double ops = 16.0 * static_cast<double>(per_tasklet);
        events_per_op = static_cast<double>(dpu.lastSimEvents()) / ops;
        return ProbeRep{wall, ops};
    }, 64);
    return {1e9 * sec, events_per_op};
}

/** Median llm-serve walls unattached / with a Registry / a Recorder,
 *  interleaved; returns {registry ratio, recorder ratio}. */
std::pair<double, double>
probeAttachedOverhead(unsigned requests, uint64_t seed, unsigned threads)
{
    std::vector<double> none, reg, rec;
    for (int i = 0; i < 3; ++i) {
        for (const Attach a :
             {Attach::None, Attach::Registry, Attach::Recorder}) {
            const IterResult r =
                runLlm(requests, seed, threads, nullptr,
                       false, a);
            (a == Attach::None ? none
                               : a == Attach::Registry ? reg : rec)
                .push_back(r.timed);
        }
    }
    const double base = median(none);
    return {median(reg) / base, median(rec) / base};
}

// ---------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------

/** Per-layer metrics of one traced iteration, from its spans. */
std::vector<Metric>
layerMetrics(const SpanLog &log, const IterResult &r)
{
    const auto &spans = log.spans();
    PIM_ASSERT(!spans.empty() && spans[0].parent == -1, "no root span");
    std::map<std::string, double> self; // leaf span wall minus drains
    double drain = 0.0, covered = 0.0;
    for (const auto &s : spans) {
        if (s.parent != 0)
            continue; // root's direct children are the layer calls
        const double d = s.d1.wallSec - s.d0.wallSec;
        covered += s.t1 - s.t0;
        drain += d;
        self[s.name] += s.t1 - s.t0 - d;
    }
    const double root = spans[0].t1 - spans[0].t0;
    const double drains = static_cast<double>(r.drain.drains);
    const double commands = static_cast<double>(r.drain.commands);
    const bool has_steps = r.steps > 0;
    return {
        {"setup.system_s", self["setup.system"], "s"},
        {"setup.task_s", self["setup.task"], "s"},
        {"workloads.steps", static_cast<double>(r.steps), "count"},
        {"workloads.step_self_s", has_steps ? self["step"] : 0.0, "s"},
        {"core.command_queue.drains", drains, "count"},
        {"core.command_queue.commands", commands, "count"},
        {"core.command_queue.commands_per_drain",
         drains > 0 ? commands / drains : 0.0, "count"},
        {"core.command_queue.enqueue_s", self["enqueue"], "s"},
        {"core.command_queue.drain_s", drain, "s"},
        {"core.command_queue.fold_s", r.drain.phase2Sec, "s"},
        {"core.command_queue.sync_self_s", self["sync"], "s"},
        {"core.parallel_engine.simulate_s", r.drain.phase1Sec, "s"},
        {"core.parallel_engine.cpu_per_wall", r.cpu / r.timed, "ratio"},
        {"bench.result_s", self["result"], "s"},
        {"bench.teardown_s", self["teardown"], "s"},
        {"bench.span_coverage", covered / root, "ratio"},
    };
}

void
writeSpans(const std::string &path, const SpanLog &log)
{
    std::ofstream out(path);
    if (!out)
        PIM_FATAL("cannot write ", path);
    util::JsonWriter j(out);
    j.beginArray();
    const double origin = log.spans().front().t0;
    for (const auto &s : log.spans()) {
        j.beginObject();
        j.key("name").value(s.name);
        j.key("parent").value(s.parent);
        j.key("t0_s").value(s.t0 - origin);
        j.key("t1_s").value(s.t1 - origin);
        j.key("drains").value(s.d1.drains - s.d0.drains);
        j.key("commands").value(s.d1.commands - s.d0.commands);
        j.key("drain_wall_s").value(s.d1.wallSec - s.d0.wallSec);
        j.key("phase1_s").value(s.d1.phase1Sec - s.d0.phase1Sec);
        j.key("phase2_s").value(s.d1.phase2Sec - s.d0.phase2Sec);
        j.endObject();
    }
    j.endArray();
    out << "\n";
}

void
writeMetrics(util::JsonWriter &j, const std::vector<Metric> &metrics)
{
    j.beginObject();
    for (const auto &m : metrics) {
        j.key(m.name).beginObject();
        j.key("value").value(m.value);
        j.key("unit").value(m.unit);
        j.endObject();
    }
    j.endObject();
}

/** One iteration (traced when o.trace), reported as one JSON object. */
void
runIteration(const Options &o, util::JsonWriter &j)
{
    SpanLog log;
    const double t0 = wallNow();
    IterResult r;
    {
        Scope root(o.trace ? &log : nullptr, "run");
        r = runWorkload(o, o.trace ? &log : nullptr);
    }
    const double wall = wallNow() - t0;

    j.key("ops_unit").value(opsUnit(o.workload));
    j.key("wall_s").value(wall);
    j.key("setup_s").value(r.setupSystem + r.setupTask);
    j.key("timed_s").value(r.timed);
    j.key("cpu_s").value(r.cpu);
    j.key("ops").value(r.ops);
    j.key("peak_rss_mb").value(peakRssMb());
    j.key("violations").beginArray();
    for (const auto &v : r.violations)
        j.value(v);
    j.endArray();
    j.key("outputs").beginObject();
    for (const auto &[k, v] : r.outputs)
        j.key(k).value(v);
    j.endObject();
    j.key("model");
    writeMetrics(j, r.model);
    j.key("sim_ops_per_s").value(r.simOpsPerSec);
    j.key("sim_p99_ms").value(r.simP99Ms);
    j.key("sim_makespan_s").value(r.simMakespanSec);
    if (o.trace) {
        j.key("layers");
        writeMetrics(j, layerMetrics(log, r));
        if (!o.spansOut.empty())
            writeSpans(o.spansOut, log);
    }
}

/** The ladder of per-layer probes. */
void
runProbes(const Options &o, util::JsonWriter &j)
{
    std::vector<Metric> layers;
    layers.push_back({"core.parallel_engine.dispatch_us",
                      probeDispatchUs(o.threads), "us"});
    layers.push_back({"sim.dpu.launch_ns_per_tasklet",
                      probeLaunchNsPerTasklet(), "ns"});
    layers.push_back({"sim.fiber.switch_ns", probeFiberSwitchNs(), "ns"});
    layers.push_back({"sim.scheduler.ns_per_event",
                      probeSchedulerNsPerEvent(), "ns"});
    const auto [mutex_ns, elided] = probeMutex();
    layers.push_back({"sim.mutex.ns_per_model_event", mutex_ns, "ns"});
    layers.push_back({"sim.mutex.elided_frac", elided, "ratio"});
    const std::pair<core::AllocatorKind, const char *> kinds[] = {
        {core::AllocatorKind::StrawMan, "straw_man"},
        {core::AllocatorKind::PimMallocSw, "sw"},
        {core::AllocatorKind::PimMallocHwSw, "hw_sw"}};
    for (const auto &[kind, name] : kinds) {
        const auto [ns, events] = probeAlloc(kind);
        layers.push_back(
            {std::string("alloc.") + name + ".ns_per_op", ns, "ns"});
        layers.push_back({std::string("alloc.") + name
                              + ".sim_events_per_op",
                          events, "count"});
    }
    const auto [reg, rec] = probeAttachedOverhead(
        o.tiny ? kTiny.llmRequests : kAttachProbeRequests, o.seed,
        o.threads);
    layers.push_back({"telemetry.attached_overhead", reg, "ratio"});
    layers.push_back({"trace.attached_overhead", rec, "ratio"});
    j.key("layers");
    writeMetrics(j, layers);
}

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv,
                  "workload,seed,trace,size,threads,spans-out,mode");
    Options o;
    o.workload = cli.get("workload", "");
    if (o.workload != "llm-serve" && o.workload != "graph-ingest"
        && o.workload != "queue-storm")
        PIM_FATAL("--workload must be llm-serve, graph-ingest or "
                  "queue-storm");
    o.seed = static_cast<uint64_t>(cli.getInt("seed", 1));
    o.trace = cli.getInt("trace", 0) != 0;
    const std::string size = cli.get("size", "full");
    if (size != "full" && size != "tiny")
        PIM_FATAL("--size must be full or tiny");
    o.tiny = size == "tiny";
    const int64_t threads = cli.getInt("threads", 4);
    if (threads < 1 || threads > 1024)
        PIM_FATAL("--threads must be in [1, 1024]");
    o.threads = static_cast<unsigned>(threads);
    o.spansOut = cli.get("spans-out", "");
    const std::string mode = cli.get("mode", "iteration");

    util::JsonWriter j(std::cout);
    j.beginObject();
    j.key("workload").value(o.workload);
    j.key("seed").value(o.seed);
    j.key("size").value(size);
    j.key("threads").value(o.threads);
    if (mode == "iteration") {
        runIteration(o, j);
    } else if (mode == "setup") {
        const IterResult r = runWorkload(o, nullptr, true);
        j.key("setup_s").value(r.setupSystem + r.setupTask);
    } else if (mode == "probes") {
        runProbes(o, j);
    } else {
        PIM_FATAL("--mode must be iteration, setup or probes");
    }
    j.endObject();
    std::cout << "\n";
    return 0;
}
