/**
 * @file
 * Per-layer host costs of a traced run. The workload's own record
 * stream (its specs, its design) is replayed through each module's
 * public entry point in isolation:
 *
 *   trace     WorkloadGenerator::nextBatch
 *   cpu       CoreModel::stepN behind a fixed-latency memory
 *   mem       Cache::access / Cache::fill down L1D -> L2C -> LLC, and
 *             Dram::serve for the LLC misses
 *   prefetch  Prefetcher::observe for every slot of the design
 *   ocp       OffChipPredictor::predictDemand + trainDemand
 *   coord     CoordinationPolicy::onEpochEnd
 *
 * Each is timed per batch of calls with one span around the batch.
 * These are isolated-call estimates, not self time inside a
 * simulation: the modules run here without the simulator's
 * interleaving, so caches and branch predictors of the host see a
 * friendlier pattern.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "athena/agent.hh"
#include "bench.hh"
#include "coord/simple.hh"
#include "cpu/core_model.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "ocp/ocp.hh"
#include "prefetch/prefetcher.hh"

namespace perfbench
{

using namespace athena;

namespace
{

/** Replays a recorded stream as a finite workload. */
class RecordedStream : public WorkloadGenerator
{
  public:
    explicit RecordedStream(const std::vector<TraceRecord> &records)
        : recs(records)
    {}

    void reset() override { pos = 0; }

    TraceRecord
    next() override
    {
        if (pos >= recs.size())
            throw std::out_of_range("recorded stream exhausted");
        return recs[pos++];
    }

    std::size_t
    nextBatch(TraceRecord *out, std::size_t n) override
    {
        const std::size_t k = std::min(n, recs.size() - pos);
        std::memcpy(out, recs.data() + pos, k * sizeof(TraceRecord));
        pos += k;
        return k;
    }

  private:
    const std::vector<TraceRecord> &recs;
    std::size_t pos = 0;
};

/** Every load misses the L1D and returns after a fixed latency. */
class FixedLatencyMemory : public MemoryInterface
{
  public:
    Cycle
    load(std::uint64_t, Addr, Cycle issue, bool &l1_miss) override
    {
        l1_miss = true;
        return issue + 40;
    }

    void store(std::uint64_t, Addr, Cycle) override {}
};

/** One demand load's outcome in the cache walk. */
struct LoadEvent
{
    std::uint64_t pc;
    Addr addr;
    Cycle cycle;
    bool l1Hit;
    bool l2Hit;   ///< Meaningful only on an L1D miss.
    bool offChip; ///< Missed the LLC.
};

std::unique_ptr<CoordinationPolicy>
policyFor(const SystemConfig &cfg)
{
    switch (cfg.policy) {
      case PolicyKind::kAthena:
        return std::make_unique<AthenaAgent>(cfg.athena);
      case PolicyKind::kNaive:
        return makeNaivePolicy();
      case PolicyKind::kAllOff:
        return makeAllOffPolicy();
      case PolicyKind::kPfOnly:
        return makePfOnlyPolicy();
      default:
        throw std::invalid_argument("no replay for this policy");
    }
}

/** Accumulates replay time and call counts of one layer. */
struct Meter
{
    double sec = 0.0;
    std::uint64_t calls = 0;

    double
    nsPerCall() const
    {
        return calls ? sec * 1e9 / static_cast<double>(calls) : 0.0;
    }
};

} // namespace

LayerCosts
replayLayers(const Plan &plan, Tracer *tracer, int job)
{
    const SystemConfig &cfg = plan.config;
    const bool shared = cfg.cores > 1;
    const std::uint64_t n = plan.layerRecordsPerSpec;
    // Bus cycles one 64 B line occupies at the configured bandwidth
    // (4 GHz core clock), for the synthetic epoch telemetry.
    const double bus_cycles_per_line = 64.0 / (cfg.bandwidthGBps / 4.0);

    Meter gen, step, cache, dram, observe, ocp, decide;
    std::unique_ptr<Cache> llc;
    std::unique_ptr<Dram> mem;
    Cycle clock = 0;

    for (std::size_t si = 0; si < plan.layerSpecs.size(); ++si) {
        const WorkloadSpec &spec = plan.layerSpecs[si];
        const auto core = static_cast<unsigned>(si);

        // trace: generate the stream once, in the core's batch size.
        std::vector<TraceRecord> recs(n);
        {
            Tracer::Scope s(tracer, "WorkloadGenerator::nextBatch", job, n);
            auto w = makeWorkload(spec);
            const double t0 = wallNow();
            for (std::uint64_t i = 0; i < n;
                 i += CoreModel::kBatchCapacity) {
                const std::uint64_t k =
                    std::min<std::uint64_t>(CoreModel::kBatchCapacity, n - i);
                if (w->nextBatch(recs.data() + i, k) != k)
                    throw std::runtime_error("synthetic stream ended");
            }
            gen.sec += wallNow() - t0;
            gen.calls += n;
        }

        // cpu: the same records through the core model.
        {
            Tracer::Scope s(tracer, "CoreModel::stepN", job, n);
            RecordedStream stream(recs);
            FixedLatencyMemory fixed;
            CoreModel cm(cfg.core, stream, fixed);
            const double t0 = wallNow();
            const std::uint64_t done = cm.stepN(n);
            step.sec += wallNow() - t0;
            step.calls += done;
        }

        // mem: the demand walk. Private L1D/L2C per core; the LLC
        // and DRAM are shared across cores of a multi-core design.
        if (!shared || !llc) {
            llc = std::make_unique<Cache>(llcParams(cfg.cores));
            mem = std::make_unique<Dram>(dramParams(cfg));
        }
        Cache l1(l1dParams());
        Cache l2(l2cParams());
        std::vector<LoadEvent> loads;
        std::vector<std::pair<Cycle, Addr>> misses;
        std::vector<EpochStats> epochs(1);
        {
            Tracer::Scope s(tracer, "Cache::access+fill", job);
            const std::uint64_t ops0 = cache.calls;
            const double t0 = wallNow();
            for (std::uint64_t i = 0; i < n; ++i) {
                const TraceRecord &r = recs[i];
                ++clock;
                EpochStats &ep = epochs.back();
                ++ep.instructions;
                if (r.kind == InstrKind::kBranch)
                    ++ep.branches;
                if (r.kind == InstrKind::kLoad ||
                    r.kind == InstrKind::kStore) {
                    const Addr line = r.addr >> 6;
                    LoadEvent ev{r.pc, r.addr, clock, true, false, false};
                    ++cache.calls;
                    if (!l1.access(line, clock).hit) {
                        ev.l1Hit = false;
                        ++cache.calls;
                        ev.l2Hit = l2.access(line, clock).hit;
                        if (!ev.l2Hit) {
                            ++cache.calls;
                            ++ep.llcDemandAccesses;
                            if (!llc->access(line, clock).hit) {
                                ev.offChip = true;
                                misses.emplace_back(clock, line);
                                llc->fill(line, clock, clock, false);
                                ++cache.calls;
                                ++ep.llcMisses;
                                ++ep.dramDemand;
                            }
                            l2.fill(line, clock, clock, false);
                            ++cache.calls;
                        }
                        l1.fill(line, clock, clock, false);
                        ++cache.calls;
                    }
                    if (r.kind == InstrKind::kLoad) {
                        ++ep.loads;
                        loads.push_back(ev);
                    }
                }
                if (ep.instructions == cfg.epochInstructions)
                    epochs.emplace_back();
            }
            cache.sec += wallNow() - t0;
            s.setCount(cache.calls - ops0);
        }
        {
            Tracer::Scope s(tracer, "Dram::serve", job, misses.size());
            const double t0 = wallNow();
            for (const auto &[arrival, line] : misses)
                mem->serve(arrival, line, AccessType::kDemandLoad);
            dram.sec += wallNow() - t0;
            dram.calls += misses.size();
        }

        // prefetch: each slot of the design sees the demand loads of
        // its level (L1D: all loads; L2C: the L1D misses).
        const struct
        {
            PrefetcherKind kind;
            CacheLevel level;
            std::uint64_t seed;
        } slots[] = {
            {cfg.l1dPf, CacheLevel::kL1D, cfg.seed + core},
            {cfg.l2cPf, CacheLevel::kL2C, cfg.seed + 17 * (core + 1)},
            {cfg.l2cPf2, CacheLevel::kL2C, cfg.seed + 31 * (core + 1)},
        };
        for (const auto &slot : slots) {
            if (slot.kind == PrefetcherKind::kNone)
                continue;
            auto pf = makePrefetcher(slot.kind, slot.seed, slot.level);
            const bool l1 = pf->level() == CacheLevel::kL1D;
            Tracer::Scope s(tracer, "Prefetcher::observe", job);
            CandidateVec out;
            std::uint64_t calls = 0;
            const double t0 = wallNow();
            for (const LoadEvent &ev : loads) {
                if (!l1 && ev.l1Hit)
                    continue;
                out.clear();
                pf->observe({ev.pc, ev.addr, l1 ? ev.l1Hit : ev.l2Hit,
                             ev.cycle},
                            out);
                ++calls;
            }
            observe.sec += wallNow() - t0;
            observe.calls += calls;
            s.setCount(calls);
        }

        // ocp: predict then train on every demand load.
        if (auto pred = makeOcp(cfg.ocp)) {
            Tracer::Scope s(tracer, "OffChipPredictor::predictDemand+trainDemand",
                            job, loads.size());
            const double t0 = wallNow();
            for (const LoadEvent &ev : loads) {
                (void)pred->predictDemand(ev.pc, ev.addr);
                pred->trainDemand(ev.pc, ev.addr, ev.offChip);
            }
            ocp.sec += wallNow() - t0;
            ocp.calls += loads.size();
        }

        // coord: the design's policy over synthetic epoch telemetry
        // built from this replay's own counts; the list is cycled
        // until enough decisions are timed.
        for (EpochStats &ep : epochs) {
            ep.cycles = ep.instructions / 2 + ep.llcMisses * 50 + 1;
            ep.bandwidthUsage = std::min(
                1.0, static_cast<double>(ep.dramDemand) *
                         bus_cycles_per_line /
                         static_cast<double>(ep.cycles));
        }
        {
            auto policy = policyFor(cfg);
            const std::uint64_t calls =
                std::max<std::uint64_t>(epochs.size(), 4000);
            Tracer::Scope s(tracer, "CoordinationPolicy::onEpochEnd", job,
                            calls);
            const double t0 = wallNow();
            for (std::uint64_t i = 0; i < calls; ++i)
                (void)policy->onEpochEnd(epochs[i % epochs.size()]);
            decide.sec += wallNow() - t0;
            decide.calls += calls;
        }
    }

    LayerCosts lc;
    lc.records = gen.calls;
    lc.genNsPerInstr = gen.nsPerCall();
    lc.stepNsPerInstr = step.nsPerCall();
    lc.cacheOps = cache.calls;
    lc.cacheNsPerAccess = cache.nsPerCall();
    lc.dramNsPerReq = dram.nsPerCall();
    lc.observes = observe.calls;
    lc.observeNs = observe.nsPerCall();
    lc.ocpNs = ocp.nsPerCall();
    lc.decideNs = decide.nsPerCall();
    return lc;
}

} // namespace perfbench
