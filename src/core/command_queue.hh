/**
 * @file
 * Asynchronous command-queue runtime (the unified execution path of the
 * Fig 5 host programming model). Every way the repo drives DPUs — the
 * microbenchmarks, the design-space replays, the graph/LLM workload
 * drivers — funnels through this queue: commands are enqueued against a
 * DpuSet and resolved against three kinds of timelines:
 *
 *   host      — one issue timeline per *tenant* (see below; a single-
 *               tenant queue has exactly one, the classic host thread)
 *               carrying hostCompute, blocking transfers, and
 *               launch-issue overhead;
 *   bus       — the shared host<->PIM transfer engine (memcpy commands
 *               serialize here, costed by the transfer model);
 *   per-rank  — each rank executes launches and receives transfers
 *               independently, so launches on disjoint ranks overlap,
 *               and host compute overlaps in-flight launches.
 *
 * Multi-tenancy: addTenant() registers an independent host issue
 * timeline, and every command names its tenant via CommandOptions. Two
 * drivers (e.g. an LLM serving engine and a graph update driver) can
 * then share one queue and one PimSystem: each tenant's commands
 * serialize on its own host lane and on the ranks it targets (rank
 * ownership is arbitrated by core::RankScheduler), while the bus stays
 * the single shared resource both contend on — exactly the interference
 * structure of a shared PIM serving host. With zero registered tenants
 * the fold is identical to the historical single-host queue.
 *
 * Submission API: every command takes a trailing CommandOptions{after,
 * label, tenant}.
 *
 * Completion callbacks: onComplete(event, fn) registers a host-side
 * callback on a pending event; the next drain dispatches due callbacks
 * deterministically in timeline order (completion time, then event id),
 * after the fold. Callbacks may enqueue follow-up commands (they resolve
 * at the next drain) but must not force a drain themselves.
 *
 * Launch bodies run on the ParallelDpuEngine host pool when the queue
 * drains (sync(), a blocking transfer, or elapsed-time queries force a
 * drain); once every launch chain has finished, the timeline fold runs
 * sequentially in enqueue order, so every result is bit-identical for
 * any worker-thread count. sync()
 * joins all timelines and returns the makespan — overlapped host and
 * PIM work is costed as max-of-timelines, not sum.
 *
 * Sampling: launches simulate only the materialized sample slots inside
 * the target set. A touched rank's launch time is the max over its
 * sampled members; ranks with no sampled member are charged the max
 * over all sampled members of the launch (the sample is assumed
 * representative).
 *
 * Observation: the fold reports what it computes through one private
 * pair. emit() takes each lane interval it charges (a launch's issue on
 * the host lane, its slice on each rank, a copy on the bus and on its
 * ranks, the host's wait on a blocking copy, idle-until gaps, host
 * compute, and a rank's death marker); finish() takes each resolved
 * command (its completion, in-flight window, and outcome: failed,
 * poisoned, delivered bytes, retries, simulation events). Both feed
 * whichever sinks are attached. attachRecorder() turns each interval
 * into a trace::Span carrying bytes/cycles and the Event
 * id/dependency, so the exact interval arithmetic above becomes visible
 * in chrome://tracing and analyzable as per-lane occupancy; spans of a
 * registered tenant carry the tenant's name (the key of
 * trace::analyzeOccupancy's per-tenant attribution) and its host lane
 * is a dedicated "host:<name>" lane. attachMetrics() turns busy
 * intervals into utilization series and outcomes into counters (see
 * there). With nothing attached, each emission point costs one flag
 * test and builds no string.
 *
 * Fault injection: attachFaultInjector() routes every fold decision
 * through a deterministic fault::FaultInjector. Commands then gain a
 * failure state — eventFailed(e) reports it, and onComplete callbacks
 * of failed events are dropped. Semantics: a launch or transfer
 * touching a rank that is dead at its start time fails immediately
 * without charging that rank (a transfer still holds the bus for the
 * erroring attempt); a rank dying mid-launch truncates the launch at
 * the death and fails the command; transient transfer faults are retried with capped
 * exponential backoff costed on the bus (permanent failure once the
 * attempt budget is exhausted); launches exceeding the timeout knob
 * are reaped at start + timeout; and a command whose `after`
 * dependency failed is *poisoned* — it fails at the time the failure
 * was known, charges nothing to any timeline, and propagates failure
 * to its own dependents, so a dead rank poisons exactly the dependent
 * chain, never the whole drain. Note that phase 1 still executes the
 * launch bodies of doomed commands (failure is decided in the fold):
 * recovery layers must stage simulation-state effects and commit only
 * on event success, or be idempotent. With no injector attached every
 * path is bit-identical to the fault-free queue.
 */

#ifndef PIM_CORE_COMMAND_QUEUE_HH
#define PIM_CORE_COMMAND_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pim_system.hh"
#include "util/small_function.hh"

namespace pim::trace {
class Recorder;
}

namespace pim::fault {
class FaultInjector;
}

namespace pim::telemetry {
class Counter;
class Gauge;
class Registry;
}

namespace pim::core {

/** Direction of a memcpy command. */
enum class CopyDirection {
    HostToPim,
    PimToHost,
};

/**
 * Completion handle of an enqueued command; pass as `after` to order a
 * later command behind it explicitly (program order already serializes
 * each tenant's host lane and each rank).
 */
using Event = int;

/** "No dependency" — the command orders only by its timelines. */
inline constexpr Event kNoEvent = -1;

/**
 * Tenant handle: index of a host issue timeline. Tenant 0 is the
 * default (anonymous) host every queue starts with; addTenant()
 * registers further ones.
 */
using TenantId = unsigned;

/** The implicit host timeline of a single-tenant queue. */
inline constexpr TenantId kDefaultTenant = 0;

/**
 * Per-command submission options, the trailing argument of every
 * command. Designated initializers read best at call sites:
 *
 *   queue.launchTimed(ranks, sec, {.after = ev, .label = "attn"});
 *   queue.memcpyAsync(set, bytes, dir, {.tenant = serving});
 */
struct CommandOptions
{
    /** Explicit dependency (kNoEvent = timeline order only). */
    Event after = kNoEvent;
    /** Trace span name (used only while a recorder is attached). */
    std::string label{};
    /** Host issue timeline the command runs on (see addTenant). */
    TenantId tenant = kDefaultTenant;
};

/**
 * A launch-body callable. SmallFunction with 64 bytes of inline
 * storage: the composed closure launch() builds (a tasklet count plus a
 * moved std::function body) fits without the per-enqueue heap
 * allocation std::function's 16-byte buffer would force; larger
 * closures still work via the heap fallback.
 */
using LaunchFn = util::SmallFunction<void(sim::Dpu &, unsigned), 64>;

/** The co-processor command queue of one PimSystem. */
class CommandQueue
{
  public:
    /**
     * Cumulative host-wall cost of this queue's drains — the real time
     * the simulator spent orchestrating, as opposed to the simulated
     * time the fold computes. phase1Sec spans launch-body execution
     * (dispatch to pool join), phase2Sec the sequential fold that
     * follows it. Zeroed by resetTimeline() alongside the work
     * counters.
     */
    struct DrainStats
    {
        /** Drains that resolved at least one command. */
        uint64_t drains = 0;
        /** Commands resolved across those drains. */
        uint64_t commands = 0;
        double phase1Sec = 0.0;
        double phase2Sec = 0.0;
        double wallSec = 0.0;
    };

    explicit CommandQueue(PimSystem &sys);

    /** Host-wall drain cost accumulated so far (see DrainStats). */
    const DrainStats &drainStats() const { return stats_; }

    /**
     * Register a tenant: an independent host issue timeline named
     * @p name (shown as lane "host:<name>" in traces, and the key of
     * per-tenant occupancy attribution). Register tenants before
     * issuing their commands; the new timeline starts at 0.
     */
    TenantId addTenant(const std::string &name);

    /** Registered tenants, including the implicit tenant 0. */
    unsigned tenantCount() const
    {
        return static_cast<unsigned>(hostT_.size());
    }

    /**
     * Blocking bulk transfer of @p bytes_per_dpu to/from every DPU of
     * @p set in one batched call: drains the queue, then occupies the
     * issuing tenant's host lane, the bus, and the target ranks.
     * @return seconds of the copy itself (the modeled duration,
     * excluding any wait).
     */
    double memcpy(const DpuSet &set, uint64_t bytes_per_dpu,
                  CopyDirection dir, const CommandOptions &opts = {});

    /**
     * Asynchronous bulk transfer: enqueues the copy and returns
     * immediately; the copy occupies the bus and the target ranks but
     * not the host. @return completion event.
     */
    Event memcpyAsync(const DpuSet &set, uint64_t bytes_per_dpu,
                      CopyDirection dir, const CommandOptions &opts = {});

    /**
     * Double-buffered asynchronous transfer of @p bytes_per_dpu to/from
     * every DPU of @p set: the DMA lands in the inactive half of a
     * double-buffered region, so it occupies the bus (serializing with
     * other transfers) but does NOT stall the target ranks' compute
     * timeline — in-flight launches on those ranks keep running. The
     * caller is responsible for only reading the shipped data after the
     * returned event (the double-buffer swap). @return completion event.
     */
    Event memcpyBufferedAsync(const DpuSet &set, uint64_t bytes_per_dpu,
                              CopyDirection dir,
                              const CommandOptions &opts = {});

    /**
     * Double-buffered scatter/gather: like memcpyBufferedAsync, with
     * one byte count per DPU of @p set (indexed by position in the set;
     * must match set.size()), costed as one batched call moving the
     * summed payload at the set-wide bandwidth. @return completion
     * event.
     */
    Event memcpyScatterBufferedAsync(const DpuSet &set,
                                     std::vector<uint64_t> bytes_per_dpu,
                                     CopyDirection dir,
                                     const CommandOptions &opts = {});

    /**
     * Asynchronously launch @p tasklets tasklets running @p body on
     * every DPU of @p set; the body receives the tasklet context and
     * the DPU's global index, and must not touch state shared between
     * DPUs. The host pays only the launch-issue overhead; the target
     * ranks are busy for their slowest member's makespan. @return
     * completion event.
     */
    Event launch(const DpuSet &set, unsigned tasklets,
                 std::function<void(sim::Tasklet &, unsigned)> body,
                 const CommandOptions &opts = {});

    /**
     * Asynchronously launch heterogeneous per-DPU work: @p program
     * receives each materialized DPU of @p set and its global index,
     * and drives it directly (Dpu::run / runBodies, any number of
     * phases). The launch's cost on a rank is the max over its members'
     * final Dpu::lastElapsedCycles() — phases before the last run are
     * setup and not charged. @return completion event.
     */
    Event launchProgram(const DpuSet &set, LaunchFn program,
                        const CommandOptions &opts = {});

    /**
     * Asynchronously occupy every rank of @p set for @p seconds of
     * modeled kernel time — a bandwidth-costed launch whose duration
     * the caller computed analytically (e.g. a streaming attention
     * kernel bounded by MRAM bandwidth) instead of simulating tasklets.
     * Costed exactly like launchProgram: the host pays the launch-issue
     * overhead and moves on; each target rank is busy for @p seconds
     * starting when the issue, the rank, and the dependency allow.
     * @return completion event.
     */
    Event launchTimed(const DpuSet &set, double seconds,
                      const CommandOptions &opts = {});

    /**
     * Host-side compute of @p tasks independent tasks of
     * @p instrs_per_task instructions (the pthreads parallel-for of
     * Fig 5); occupies only the issuing tenant's host timeline,
     * overlapping in-flight launches and async transfers.
     * @return modeled seconds.
     */
    double hostCompute(uint64_t tasks, uint64_t instrs_per_task,
                       const CommandOptions &opts = {});

    /** Occupy the host for a fixed @p seconds (driver bookkeeping). */
    double hostBusy(double seconds, const CommandOptions &opts = {});

    /**
     * Idle the host until at least absolute time @p seconds on the
     * timeline (wait for an external event such as a request arrival);
     * no-op if the host is already past it.
     */
    void hostIdleUntil(double seconds, const CommandOptions &opts = {});

    /**
     * Register a host-side completion callback on pending event @p e:
     * the drain that resolves @p e invokes fn(e, completion_seconds)
     * after the timeline fold. Dispatch is deterministic — due
     * callbacks run in timeline order (completion time, ties by event
     * id) regardless of registration order or worker-thread count.
     * Callbacks may enqueue follow-up commands on the queue (resolved
     * at the next drain) but must not force a drain themselves
     * (sync()/eventSeconds/blocking transfers are fatal inside one).
     * Fatal if @p e is not pending (kNoEvent, already resolved, or
     * never enqueued): register immediately after enqueuing. A
     * callback on an event that FAILED is dropped (see eventFailed).
     */
    void onComplete(Event e, std::function<void(Event, double)> fn);

    /**
     * Failure state of event @p e: true if the command failed (dead
     * rank, exhausted transfer retries, timeout, hang, or a failed
     * `after` dependency). Drains like eventSeconds, with the same
     * validity rules (fatal for kNoEvent / never-enqueued / compacted
     * events). Always false when no fault injector is attached.
     */
    bool eventFailed(Event e);

    /**
     * Start routing fold decisions through @p inj (nullptr detaches).
     * Drains pending commands first — already-enqueued commands
     * resolve under the previous injector (if any). The injector's
     * schedule is interpreted against this queue's timeline origin.
     */
    void attachFaultInjector(fault::FaultInjector *inj);

    /** The attached fault injector (nullptr = fault-free). */
    fault::FaultInjector *faultInjector() const { return inj_; }

    /**
     * Drain the queue and join every timeline. @return the makespan:
     * wall-clock seconds from the timeline origin until every host
     * lane, the bus, and all ranks are idle.
     */
    double sync();

    /**
     * Completion timestamp of event @p e on the timeline: drains
     * pending commands (without joining the timelines, unlike sync())
     * and returns the absolute second the command finished at — the
     * primitive completion-driven drivers (TPOT accounting, admission
     * control) are built on. Fatal for kNoEvent / never-enqueued
     * events, and for events compacted away by a sync()/resetTimeline
     * that happened after the event was enqueued: query timestamps
     * before syncing.
     */
    double eventSeconds(Event e);

    /**
     * Tenant 0's host timeline as of the last drain (sync() first for
     * a makespan that includes pending commands).
     */
    double elapsedSeconds() const { return hostT_[0]; }

    /** Tenant @p t's host timeline as of the last drain. */
    double hostSeconds(TenantId t) const;

    /** Rank @p r's timeline as of the last drain. */
    double rankReadySeconds(unsigned r) const;

    /** Bus timeline as of the last drain. */
    double busReadySeconds() const { return busT_; }

    /** Cumulative host<->PIM bytes moved by resolved copies. */
    uint64_t transferredBytes() const { return transferredBytes_; }

    /** Seconds of launch work resolved so far (sum, not makespan). */
    double launchWorkSeconds() const { return launchWork_; }

    /** Seconds of transfer work resolved so far (sum, not makespan). */
    double copyWorkSeconds() const { return copyWork_; }

    /** Seconds of host work resolved so far (sum, not makespan). */
    double hostWorkSeconds() const { return hostWork_; }

    /** Commands enqueued but not yet resolved. */
    size_t pendingCommands() const { return pending_.size(); }

    /** The system this queue executes against. */
    PimSystem &system() const { return sys_; }

    /**
     * Zero every timeline and work/traffic counter (DPU state and
     * registered tenants are kept). Pending commands are drained first
     * so simulation state stays consistent. An attached recorder is NOT
     * cleared: its trace origin advances past everything recorded so
     * far, so spans resolved after the reset land strictly later on the
     * trace timeline and pre-reset history stays readable (mirroring
     * how pre-reset Events are rebased to resolve at the new epoch's
     * origin).
     */
    void resetTimeline();

    /**
     * Start recording every interval the fold emits as a span in
     * @p rec (nullptr detaches): busy slices, host waits (idle spans),
     * and rank-death markers. Drains pending commands first —
     * already-enqueued commands resolve under the previous recorder
     * (if any) — and restarts the trace origin at zero.
     */
    void attachRecorder(trace::Recorder *rec);

    /** The attached recorder (nullptr when tracing is off). */
    trace::Recorder *recorder() const { return rec_; }

    /**
     * Start feeding metrics to @p met (nullptr detaches). Drains
     * pending commands first — already-enqueued commands resolve under
     * the previous registry (if any). The same intervals and outcomes
     * a recorder sees then drive the registry: each busy interval
     * lands in its lane's utilization series ("util:host[:<tenant>]",
     * "util:bus", "util:rank<r>" plus the "ranks_busy" and
     * "ranks_busy:<tenant>" averages), each resolved command's
     * in-flight window in the "depth:queue" level series, and its
     * outcome in the queue.* counters — one set of totals and one
     * ":<tenant>" set per named tenant (commands issued, resolved,
     * failed, poisoned dependencies, delivered bus bytes, transfer
     * retries; simulation events as a total only). All of it is in
     * *simulated* time from the sequential fold, so every metric is
     * bit-identical for any worker-thread count.
     */
    void attachMetrics(telemetry::Registry *met);

    /** The attached metrics registry (nullptr when metrics are off). */
    telemetry::Registry *metricsRegistry() const { return met_; }

  private:
    /** "Not in an arena" sentinel for Command offsets below. */
    static constexpr size_t kNoArena = ~static_cast<size_t>(0);

    struct Command
    {
        enum class Type { Launch, Copy, HostCompute };

        Type type;
        Event after = kNoEvent;
        /** Host issue timeline the command runs on. */
        TenantId tenant = kDefaultTenant;
        /** Trace span name; empty = the command-kind default. Only
         *  populated while a recorder is attached (makeCommand). */
        std::string label;
        /** Copy direction (trace naming only; the cost is symmetric). */
        CopyDirection dir = CopyDirection::HostToPim;

        // Launch
        LaunchFn program;
        /** >= 0: analytic launch duration (launchTimed); no program. */
        double launchSeconds = -1.0;
        // Copy
        uint64_t totalBytes = 0;
        double copySeconds = 0.0;
        bool blocking = false;
        /** False for double-buffered copies: the transfer holds the bus
         *  but leaves the target ranks' compute timeline untouched. */
        bool occupyRanks = true;
        // HostCompute
        double hostSeconds = 0.0;
        /** >= 0: idle the host until this absolute time instead. */
        double hostUntil = -1.0;

        /** Target ranks/slots of a Launch or Copy: the memoized
         *  slot→rank partition of the addressed DpuSet, borrowed by
         *  shared_ptr — commands on the same set (every full-system
         *  command in particular) share one instance instead of each
         *  copying rank and slot vectors. */
        std::shared_ptr<const SlotPartition> part;
        /** Per-slot launch makespans live in the queue's drain arena
         *  at [cyclesOff, cyclesOff + part->slots.size()); filled in
         *  phase 1 (Launch with a program only). */
        size_t cyclesOff = 0;
        /** Per-slot simulation-event counts in the events arena;
         *  kNoArena unless a metrics registry was attached at enqueue,
         *  so the phase-1 check needs no met_ read. */
        size_t eventsOff = kNoArena;
    };

    /** One (command, slot-position) link of a per-slot phase-1 chain:
     *  the position of the slot inside cmd->part->slots is recorded at
     *  chain build, so workers index the arenas directly instead of
     *  re-deriving it by binary search per (command, slot). */
    struct ChainEntry
    {
        Command *cmd;
        unsigned pos;
    };

    Event enqueue(Command cmd);
    /** A command of @p type with the options' dependency, tenant, and
     *  (while a recorder is attached) label. */
    Command makeCommand(Command::Type type,
                        const CommandOptions &opts) const;
    double copyDuration(const DpuSet &set, uint64_t total_bytes) const;
    Command makeCopy(const DpuSet &set, uint64_t total_bytes,
                     bool blocking, const CommandOptions &opts,
                     CopyDirection dir) const;
    /** Execute pending launch bodies and fold every pending command
     *  into the timelines, in enqueue order; then dispatch due
     *  completion callbacks in timeline order. */
    void drain();

    /** The joined time of all timelines (no drain). */
    double joinedTime() const;

    /** Completion time of event @p e (0.0 for compacted history). */
    double eventTime(Event e) const;

    /** Failure state of resolved event @p e (false for compacted
     *  history: sync() is a recovery barrier). */
    bool eventFailedInternal(Event e) const;

    /** What an emitted lane interval was. */
    enum class Obs : uint8_t {
        Busy,   ///< the lane did the command's work
        Wait,   ///< the host lane stalled (blocking copy, idle-until)
        Marker, ///< zero-width rank-death marker
    };

    /** How one command resolved (see finish). */
    struct Outcome
    {
        bool failed = false;
        /** Failed because its `after` dependency had failed. */
        bool poisoned = false;
        /** Payload that landed (successful copies only). */
        uint64_t deliveredBytes = 0;
        uint64_t retries = 0;
        uint64_t simEvents = 0;
    };

    /** finish()'s in-flight start for commands with no window
     *  (poisoned, idle-until). */
    static constexpr double kNoWindow = -1.0;

    /**
     * Report the interval [t0, t1) the fold charged on @p lane
     * (kHostLane means the issuing tenant's host lane) for command
     * @p cmd / event @p id: a span for the recorder and, for Busy
     * kinds, the lane's utilization series. @p fault marks a slice cut
     * by a fault; @p cycles is a launch slice's DPU makespan. With
     * nothing attached this is one flag test.
     */
    void emit(int lane, double t0, double t1, Obs kind,
              const Command &cmd, Event id, bool fault = false,
              uint64_t cycles = 0)
    {
        if (observed_)
            emitObserved(lane, t0, t1, kind, cmd, id, fault, cycles);
    }
    void emitObserved(int lane, double t0, double t1, Obs kind,
                      const Command &cmd, Event id, bool fault,
                      uint64_t cycles);

    /**
     * Resolve @p cmd at @p end with @p out: record its completion and
     * failure state and delivered bytes and, with metrics attached, its
     * in-flight window [@p inflight_t0, @p end) (kNoWindow: none) and
     * its counters. Called exactly once per command, in enqueue order.
     */
    void finish(const Command &cmd, double inflight_t0, double end,
                const Outcome &out);

    /** Emit rank @p r's death marker, once per rank. */
    void traceRankDeath(unsigned r, double failAtSec, const Command &cmd);

    /** Trace lane of tenant @p t's host timeline. */
    int hostLane(TenantId t) const;

    /** The tenant's display name for span tagging ("" for tenant 0). */
    const std::string &tenantTag(TenantId t) const
    {
        return tenantNames_[t];
    }

    PimSystem &sys_;
    std::vector<Command> pending_;
    /**
     * Completion times of resolved commands, indexed by
     * Event - resolvedBase_. Compacted at every sync(): once all
     * timelines are joined, the host time dominates every earlier
     * completion, so the history collapses to the base offset and the
     * queue's memory stays bounded no matter how many commands ran.
     */
    std::vector<double> resolved_;
    /** Failure flags parallel to resolved_ (same indexing/compaction).
     *  Stays all-zero with no injector attached. */
    std::vector<uint8_t> resolvedFailed_;
    size_t resolvedBase_ = 0;
    /** Host issue timelines, one per tenant (index = TenantId). */
    std::vector<double> hostT_{0.0};
    /** Tenant display names; tenant 0's is empty (untagged spans). */
    std::vector<std::string> tenantNames_{std::string()};
    double busT_ = 0.0;
    std::vector<double> rankT_;
    uint64_t transferredBytes_ = 0;
    double launchWork_ = 0.0;
    double copyWork_ = 0.0;
    double hostWork_ = 0.0;
    /** One registered completion callback on a pending event. */
    struct Callback
    {
        Event event;
        std::function<void(Event, double)> fn;
    };
    /** Registered completion callbacks (pending events only). */
    std::vector<Callback> callbacks_;
    /** True while completion callbacks run (drain re-entry guard). */
    bool inCallbacks_ = false;
    /** The queue.* counters, in the order of their names. */
    enum Ctr : unsigned {
        kIssued,
        kResolved,
        kFailed,
        kPoisoned,
        kBusBytes,
        kRetries,
        kSimEvents, ///< last: counted as a total only
        kNumCtrs,
    };
    /** One counter per Ctr; nullptr where the scope has none. */
    using CounterSet = std::array<telemetry::Counter *, kNumCtrs>;

    /** Add @p n to counter @p c's total and to tenant @p t's own. */
    void count(TenantId t, Ctr c, uint64_t n);

    /** Bind counters and series of tenants registered since. */
    void ensureTenantMetrics();

    /** Span sink; nullptr = tracing off. */
    trace::Recorder *rec_ = nullptr;
    /** Metrics sink; nullptr = metrics off. */
    telemetry::Registry *met_ = nullptr;
    /** rec_ or met_ attached: the one test emit() makes. */
    bool observed_ = false;
    /** Bound while met_ != nullptr: the queue-wide totals, and one
     *  set per tenant (tenant 0's all null: it owns only the totals). */
    CounterSet total_{};
    std::vector<CounterSet> tenantCounters_;
    /** Host-wall drain gauges (Registry::hostGauge — exported but
     *  excluded from the deterministic snapshot). */
    telemetry::Gauge *drainPhase1_ = nullptr;
    telemetry::Gauge *drainPhase2_ = nullptr;
    telemetry::Gauge *drainCps_ = nullptr;
    /** Sampler series ids (valid while met_ != nullptr); the per-tenant
     *  ones are indexed by TenantId. */
    int busSid_ = -1;
    int depthSid_ = -1;
    int ranksBusySid_ = -1;
    std::vector<int> rankSid_;
    std::vector<int> hostSid_;
    std::vector<int> tenantRanksBusySid_;
    /** Fault source; nullptr = fault-free fold. */
    fault::FaultInjector *inj_ = nullptr;
    /** Ranks whose death marker span was already emitted. */
    std::vector<bool> rankDeathTraced_;
    /** Trace-time origin of the current timeline epoch: resetTimeline
     *  advances it so post-reset spans never overlap pre-reset ones. */
    double traceEpoch_ = 0.0;

    // ------------------------------------------------------------------
    // Drain machinery. Everything below is scratch reused across
    // drains (capacity survives clear()) so a steady stream of small
    // drains allocates nothing.
    // ------------------------------------------------------------------

    /** Cumulative host-wall drain cost (see drainStats()). */
    DrainStats stats_;
    /** Per-slot ordered launch chains, indexed by sample slot; only
     *  the slots in activeSlots_ are populated (and cleared at the
     *  next drain), so a drain touches O(active) chain vectors, not
     *  O(sampleCount). */
    std::vector<std::vector<ChainEntry>> chains_;
    /** Sample slots with a non-empty chain this drain, ascending. */
    std::vector<unsigned> activeSlots_;
    /** Per-slot launch makespans of the current drain: one span per
     *  launch command (see Command::cyclesOff), written by phase-1
     *  workers at disjoint offsets, read by the fold. */
    std::vector<uint64_t> slotCyclesArena_;
    /** Per-slot simulation-event counts (metrics attached only). */
    std::vector<uint64_t> slotEventsArena_;
};

} // namespace pim::core

#endif // PIM_CORE_COMMAND_QUEUE_HH
