#include "alloc/pim_malloc.hh"

#include <algorithm>

#include "alloc/cost_model.hh"
#include "util/logging.hh"

namespace pim::alloc {

PimMallocAllocator::PimMallocAllocator(sim::Dpu &dpu,
                                       const PimMallocConfig &cfg)
    : dpu_(dpu), cfg_(cfg)
{
    PIM_ASSERT(cfg.numTasklets >= 1
                   && cfg.numTasklets <= dpu.config().maxTasklets,
               "invalid tasklet count ", cfg.numTasklets);
    const uint32_t nodes = BuddyTree::nodesFor(cfg.heapBytes, cfg.spanBytes);
    store_ = makeMetadataStore(dpu, cfg.metadata, cfg.base, nodes,
                               cfg.swBufferBytes);
    const sim::MramAddr heap_base = cfg.base + store_->bytes();
    PIM_ASSERT(static_cast<uint64_t>(heap_base) + cfg.heapBytes
                   <= dpu.mram().size(),
               "PIM-malloc heap does not fit in MRAM");
    tree_ = std::make_unique<BuddyTree>(*store_, heap_base, cfg.heapBytes,
                                        cfg.spanBytes);

    // Size the per-tasklet span-record arenas from the remaining WRAM.
    ThreadCacheConfig tc_cfg;
    tc_cfg.spanBytes = cfg.spanBytes;
    tc_cfg.sizeClasses = cfg.sizeClasses;
    if (cfg.maxSpansPerTasklet > 0) {
        tc_cfg.maxSpans = cfg.maxSpansPerTasklet;
    } else {
        // Span records are MRAM-resident (the paper's Section VI-E
        // accounts them per request, e.g. 5.2 KB for LLM attention,
        // which far exceeds the scratchpad); only the list heads live
        // in WRAM. Cap records at one per heap span.
        tc_cfg.maxSpans = cfg.heapBytes / cfg.spanBytes;
    }
    // WRAM holds one list head per size class per tasklet.
    dpu.wramReserve(cfg.numTasklets
                    * static_cast<uint32_t>(tc_cfg.sizeClasses.size()) * 8);
    tcCfg_ = tc_cfg;
    for (unsigned i = 0; i < cfg.numTasklets; ++i)
        caches_.push_back(std::make_unique<ThreadCache>(i, tc_cfg));
}

std::string
PimMallocAllocator::name() const
{
    std::string n = cfg_.metadata == MetadataMode::HwCache
        ? "PIM-malloc-HW/SW" : "PIM-malloc-SW";
    if (cfg_.metadata == MetadataMode::Direct)
        n = "PIM-malloc-direct";
    if (!cfg_.prePopulate)
        n += "-lazy";
    return n;
}

void
PimMallocAllocator::init(sim::Tasklet &t)
{
    // Table II initAllocator(): reset metadata; pre-populate each thread
    // cache with one free span per size class (eager variants only).
    // Executed by a single designated tasklet.
    tree_->reset(t);
    const bool trace = stats_.traceEvents;
    stats_ = AllocStats{};
    stats_.traceEvents = trace;
    live_.clear();
    // Rebuild the thread caches so a re-init starts from a clean slate
    // (the WRAM arena is already reserved; no new reservation needed).
    caches_.clear();
    for (unsigned i = 0; i < cfg_.numTasklets; ++i)
        caches_.push_back(std::make_unique<ThreadCache>(i, tcCfg_));
    if (cfg_.prePopulate) {
        for (auto &cache : caches_) {
            for (unsigned cls = 0; cls < cache->numClasses(); ++cls) {
                const sim::MramAddr span = tree_->alloc(t, cfg_.spanBytes);
                PIM_ASSERT(span != sim::kNullAddr,
                           "heap too small to pre-populate thread caches");
                const bool ok = cache->installSpan(t, cls, span);
                PIM_ASSERT(ok, "WRAM arena too small for pre-population");
                stats_.adjustReserved(cfg_.spanBytes);
            }
        }
    }
    initialized_ = true;
}

sim::MramAddr
PimMallocAllocator::backendAlloc(sim::Tasklet &t, uint32_t size)
{
    mutex_.lock(t);
    const sim::MramAddr addr = tree_->alloc(t, size);
    mutex_.unlock(t);
    return addr;
}

uint32_t
PimMallocAllocator::backendFree(sim::Tasklet &t, sim::MramAddr addr)
{
    mutex_.lock(t);
    const uint32_t freed = tree_->free(t, addr);
    mutex_.unlock(t);
    return freed;
}

sim::MramAddr
PimMallocAllocator::malloc(sim::Tasklet &t, uint32_t size)
{
    PIM_ASSERT(initialized_, "pimMalloc before initAllocator");
    PIM_ASSERT(size > 0, "zero-byte allocation");
    const uint64_t start = t.clock();
    t.execute(cost::kApiOverheadInstrs + cost::kSizeClassLookupInstrs);

    // Tasklets beyond the configured count share caches round-robin;
    // the block records the cache it came from, which free() returns
    // it to.
    const auto owner = static_cast<uint8_t>(t.id() % caches_.size());
    ThreadCache &cache = *caches_[owner];
    const int cls = cache.classFor(size);

    if (cls < 0) {
        // Case #3 (Fig 10(c)): thread cache bypass.
        const sim::MramAddr addr = backendAlloc(t, size);
        if (addr == sim::kNullAddr) {
            ++stats_.failures;
            return sim::kNullAddr;
        }
        live_.insert(addr, LiveBlock{size, 0, owner, true});
        stats_.adjustReserved(static_cast<int64_t>(tree_->roundSize(size)));
        stats_.adjustRequested(static_cast<int64_t>(size));
        stats_.recordMalloc(ServiceLevel::Bypass, start, t.clock() - start,
                            size, t.id());
        return addr;
    }

    // Case #1 (Fig 10(a)): thread cache hit.
    sim::MramAddr addr = cache.tryAlloc(t, static_cast<unsigned>(cls));
    ServiceLevel level = ServiceLevel::Frontend;

    if (addr == sim::kNullAddr) {
        // Case #2 (Fig 10(b)): miss — refill with a span from the buddy.
        level = ServiceLevel::Backend;
        const sim::MramAddr span = backendAlloc(t, cfg_.spanBytes);
        if (span != sim::kNullAddr) {
            if (cache.installSpan(t, static_cast<unsigned>(cls), span)) {
                stats_.adjustReserved(cfg_.spanBytes);
                addr = cache.tryAlloc(t, static_cast<unsigned>(cls));
                PIM_ASSERT(addr != sim::kNullAddr,
                           "fresh span failed to service a request");
            } else {
                // WRAM record budget exhausted: serve the request from
                // the whole 4 KB block (degenerates to bypass).
                addr = span;
                live_.insert(addr, LiveBlock{size, 0, owner, true});
                stats_.adjustReserved(cfg_.spanBytes);
                stats_.adjustRequested(static_cast<int64_t>(size));
                stats_.recordMalloc(ServiceLevel::Bypass, start,
                                    t.clock() - start, size, t.id());
                return addr;
            }
        }
    }

    if (addr == sim::kNullAddr) {
        ++stats_.failures;
        return sim::kNullAddr;
    }

    live_.insert(addr, LiveBlock{size, static_cast<uint8_t>(cls),
                                 owner, false});
    stats_.adjustRequested(static_cast<int64_t>(size));
    stats_.recordMalloc(level, start, t.clock() - start, size, t.id());
    return addr;
}

bool
PimMallocAllocator::free(sim::Tasklet &t, sim::MramAddr addr)
{
    PIM_ASSERT(initialized_, "pimFree before initAllocator");
    t.execute(cost::kApiOverheadInstrs);
    const LiveBlock *found = live_.find(addr);
    if (found == nullptr)
        return false;
    const LiveBlock block = *found;

    if (block.bypass) {
        const uint32_t freed = backendFree(t, addr);
        if (freed == 0)
            return false;
        stats_.adjustReserved(-static_cast<int64_t>(freed));
    } else {
        ThreadCache &cache = *caches_.at(block.taskletId);
        const sim::MramAddr heap_base = tree_->heapBase();
        const sim::MramAddr span_base =
            heap_base + (addr - heap_base) / cfg_.spanBytes * cfg_.spanBytes;
        const auto res = cache.free(t, block.cls, span_base, addr);
        if (!res.ok)
            return false;
        if (res.spanReleased) {
            const uint32_t freed = backendFree(t, res.spanBase);
            PIM_ASSERT(freed == cfg_.spanBytes,
                       "span return freed unexpected size ", freed);
            stats_.adjustReserved(-static_cast<int64_t>(freed));
        }
    }
    stats_.adjustRequested(-static_cast<int64_t>(block.requested));
    ++stats_.freeCalls;
    live_.erase(addr);
    return true;
}

uint64_t
PimMallocAllocator::metadataBytes() const
{
    return backendMetadataBytes() + threadCacheMetadataBytes();
}

uint64_t
PimMallocAllocator::threadCacheMetadataBytes() const
{
    uint64_t n = 0;
    for (const auto &c : caches_)
        n += c->totalSpans() * ThreadCache::kSpanRecordBytes;
    return n;
}

} // namespace pim::alloc
