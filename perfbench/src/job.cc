/**
 * @file
 * One closed-loop job of a workload, the output checks applied to
 * every simulation it runs, and the re-runs a traced run compares it
 * against (no-speculation baseline, runner replay).
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/runner.hh"
#include "sim/thread_pool.hh"

namespace perfbench
{

using namespace athena;

namespace
{

/** FNV-1a accumulator. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        for (char c : s)
            u64(static_cast<unsigned char>(c));
    }
};

std::uint64_t
digestIpc(double ipc)
{
    Fnv f;
    f.f64(ipc);
    return f.h;
}

std::string
joinNames(const std::vector<WorkloadSpec> &specs)
{
    std::string s;
    for (const WorkloadSpec &w : specs)
        s += (s.empty() ? "" : "+") + w.name;
    return s;
}

RunBudget
sweepBudget(const Plan &plan)
{
    RunBudget b;
    b.simInstructions = plan.measured;
    b.warmupInstructions = plan.warmup;
    return b;
}

/** A result's outcome: digest plus the identity checks. */
SimOutcome
outcomeOf(const std::string &label, const SimResult &r,
          std::uint64_t measured, std::size_t cores)
{
    SimOutcome o;
    o.label = label;
    o.digest = digest(r);
    o.error = checkResult(r, measured, cores);
    return o;
}

std::uint64_t
retired(const SimResult &r)
{
    std::uint64_t n = 0;
    for (const SimResult::PerCore &c : r.cores)
        n += c.completedInstructions;
    return n;
}

/** A job's set-up: its inputs and the systems built from them. */
struct Setup
{
    Plan plan;
    std::vector<std::unique_ptr<Simulator>> sims;
    /** Per entry of sims: why construction failed, or "". */
    std::vector<std::string> ctorErrors;
    std::unique_ptr<ExperimentRunner> runner;
};

Setup
setUp(const std::string &workload, std::uint64_t seed, Tracer *tracer,
      int job)
{
    Tracer::Scope span(tracer, "setup", job);
    Setup s;
    s.plan = makePlan(workload, seed);
    if (s.plan.sweep) {
        s.runner = std::make_unique<ExperimentRunner>(sweepBudget(s.plan));
        ThreadPool::instance();
    }
    for (const std::vector<WorkloadSpec> &group : s.plan.simGroups) {
        try {
            Tracer::Scope c(tracer, "Simulator::Simulator", job);
            s.sims.push_back(std::make_unique<Simulator>(s.plan.config, group));
            s.ctorErrors.emplace_back();
        } catch (const std::exception &e) {
            s.sims.emplace_back();
            s.ctorErrors.push_back(std::string("construction threw: ") +
                                   e.what());
        }
    }
    return s;
}

/** Run the set-up Simulators one after another. */
void
runSims(Setup &setup, Tracer *tracer, int job, unsigned step_threads,
        JobResult &jr)
{
    const Plan &plan = setup.plan;
    for (std::size_t i = 0; i < setup.sims.size(); ++i) {
        const std::vector<WorkloadSpec> &group = plan.simGroups[i];
        SimOutcome o;
        o.label = joinNames(group);
        if (!setup.sims[i]) {
            o.error = setup.ctorErrors[i];
            jr.sims.push_back(o);
            continue;
        }
        const double t0 = wallNow();
        try {
            RunPlan rp(plan.measured, plan.warmup);
            rp.stepThreads = step_threads;
            SimResult r;
            {
                Tracer::Scope span(tracer, "Simulator::run", job,
                                   (plan.warmup + plan.measured) *
                                       group.size());
                r = setup.sims[i]->run(rp);
            }
            o = outcomeOf(o.label, r, plan.measured, group.size());
            jr.instructions += retired(r);
            jr.results.push_back(std::move(r));
        } catch (const std::exception &e) {
            o.error = std::string("threw: ") + e.what();
        }
        jr.taskSec.push_back(wallNow() - t0);
        setup.sims[i].reset();
        jr.sims.push_back(o);
    }
}

/**
 * The reduced Fig. 7 through ExperimentRunner. Outcomes are listed
 * per member as [baseline, pf-only, naive, athena].
 */
void
runSweep(const Plan &plan, ExperimentRunner &runner, Tracer *tracer,
         int job, JobResult &jr)
{
    const std::size_t n = plan.specs.size();
    std::vector<SpeedupRow> cls, nv, ath;
    std::string error;
    try {
        {
            Tracer::Scope s(tracer, "ExperimentRunner::speedups(pf-only)",
                            job, 2 * n);
            cls = runner.speedups(plan.classify, plan.specs);
        }
        {
            Tracer::Scope s(tracer, "ExperimentRunner::speedups(naive)",
                            job, n);
            nv = runner.speedups(plan.naive, plan.specs);
        }
        {
            Tracer::Scope s(tracer, "ExperimentRunner::speedups(athena)",
                            job, n);
            ath = runner.speedups(plan.config, plan.specs);
        }
    } catch (const std::exception &e) {
        error = std::string("sweep threw: ") + e.what();
    }
    if (!error.empty() || cls.size() != n || nv.size() != n ||
        ath.size() != n) {
        for (std::size_t i = 0; i < 4 * n; ++i)
            jr.sims.push_back({plan.specs[i / 4].name, 0,
                               error.empty() ? "missing rows" : error});
        return;
    }

    // The Fig. 1 split, by the rule ExperimentRunner::adverseSet
    // applies: Pythia-only slower than the baseline.
    std::set<std::string> adverse;
    for (const SpeedupRow &row : cls) {
        if (row.speedup < 1.0)
            adverse.insert(row.workload);
    }
    jr.speedup = ExperimentRunner::summarize(ath, adverse).overall;

    const std::uint64_t per_sim = plan.warmup + plan.measured;
    for (std::size_t i = 0; i < n; ++i) {
        const std::string &name = plan.specs[i].name;
        SimOutcome base{"baseline:" + name, digestIpc(cls[i].baselineIpc),
                        ""};
        if (!(std::isfinite(cls[i].baselineIpc) && cls[i].baselineIpc > 0))
            base.error = "baseline IPC not positive";
        else if (nv[i].baselineIpc != cls[i].baselineIpc ||
                 ath[i].baselineIpc != cls[i].baselineIpc)
            base.error = "cached baseline IPC differs between sweeps";
        jr.sims.push_back(base);
        jr.instructions += per_sim;
        const SpeedupRow *rows[] = {&cls[i], &nv[i], &ath[i]};
        const char *tags[] = {"pf-only:", "naive:", "athena:"};
        for (unsigned k = 0; k < 3; ++k) {
            jr.sims.push_back(outcomeOf(tags[k] + name, rows[k]->result,
                                        plan.measured, 1));
            jr.instructions += retired(rows[k]->result);
            jr.results.push_back(rows[k]->result);
        }
    }
}

} // namespace

std::uint64_t
digest(const SimResult &r)
{
    Fnv f;
    f.u64(r.cores.size());
    for (const SimResult::PerCore &c : r.cores) {
        f.str(c.workload);
        f.f64(c.ipc);
        f.u64(c.instructions);
        f.u64(c.cycles);
        f.u64(c.completedInstructions);
        f.u64(c.streamExhausted ? 1 : 0);
        f.u64(c.loads);
        f.u64(c.stores);
        f.u64(c.branchMispredicts);
        f.u64(c.llcMisses);
        f.u64(c.llcMissLatency);
        for (const PrefetcherSlotStats &s : c.pf) {
            f.u64(s.issued);
            f.u64(s.used);
            f.u64(s.usedTimely);
            f.u64(s.uselessEvictions);
            f.u64(s.fillsFromDram);
            f.u64(s.fillsFromDramUnused);
        }
        f.u64(c.ocpPredictions);
        f.u64(c.ocpCorrect);
        for (std::uint64_t a : c.actionHistogram)
            f.u64(a);
    }
    f.u64(r.dram.demandRequests);
    f.u64(r.dram.prefetchRequests);
    f.u64(r.dram.ocpRequests);
    f.u64(r.dram.rowHits);
    f.u64(r.dram.rowMisses);
    f.u64(r.dram.busBusyCycles);
    f.f64(r.busUtilization);
    return f.h;
}

std::string
checkResult(const SimResult &r, std::uint64_t measured,
            std::size_t cores)
{
    if (r.cores.size() != cores)
        return "result has " + std::to_string(r.cores.size()) +
               " cores, expected " + std::to_string(cores);
    for (std::size_t i = 0; i < r.cores.size(); ++i) {
        const SimResult::PerCore &c = r.cores[i];
        const std::string at = "core " + std::to_string(i) + ": ";
        if (c.streamExhausted)
            return at + "synthetic stream reported exhausted";
        if (c.instructions != measured)
            return at + "measured " + std::to_string(c.instructions) +
                   " instructions, budget " + std::to_string(measured);
        if (!(std::isfinite(c.ipc) && c.ipc > 0))
            return at + "IPC not positive";
        if (c.ocpCorrect > c.ocpPredictions)
            return at + "ocpCorrect > ocpPredictions";
        for (unsigned s = 0; s < c.pf.size(); ++s) {
            const PrefetcherSlotStats &p = c.pf[s];
            const std::string slot = at + "slot " + std::to_string(s) + ": ";
            if (p.usedTimely > p.used)
                return slot + "usedTimely > used";
            if (p.used > p.issued)
                return slot + "used > issued";
            if (p.fillsFromDramUnused > p.fillsFromDram)
                return slot + "fillsFromDramUnused > fillsFromDram";
        }
    }
    if (!(r.busUtilization >= 0.0 && r.busUtilization <= 1.0))
        return "bus utilization outside [0, 1]";
    return "";
}

std::uint64_t
JobResult::digest() const
{
    Fnv f;
    for (const SimOutcome &o : sims)
        f.u64(o.digest);
    return f.h;
}

JobResult
runJob(const std::string &workload, std::uint64_t seed, Tracer *tracer,
       int job, unsigned step_threads)
{
    JobResult jr;
    const Usage u0 = usageNow();
    const double t0 = wallNow();
    Setup setup = setUp(workload, seed, tracer, job);
    const double t1 = wallNow();
    jr.setupSec = t1 - t0;

    if (setup.plan.sweep)
        runSweep(setup.plan, *setup.runner, tracer, job, jr);
    else
        runSims(setup, tracer, job, step_threads, jr);

    jr.wallSec = wallNow() - t1;
    const Usage u1 = usageNow();
    jr.usage.user = u1.user - u0.user;
    jr.usage.sys = u1.sys - u0.sys;
    jr.usage.ctxsw = u1.ctxsw - u0.ctxsw;
    return jr;
}

double
setupOnly(const std::string &workload, std::uint64_t seed)
{
    const double t0 = wallNow();
    const Setup setup = setUp(workload, seed, nullptr, 0);
    return wallNow() - t0;
}

double
baselineSpeedup(const Plan &plan, const JobResult &job,
                std::vector<SimOutcome> &baseline_sims)
{
    SystemConfig base = plan.config;
    base.policy = PolicyKind::kAllOff;
    double log_sum = 0.0;
    std::size_t terms = 0;
    for (std::size_t g = 0; g < plan.simGroups.size(); ++g) {
        const std::vector<WorkloadSpec> &group = plan.simGroups[g];
        SimOutcome o;
        o.label = "baseline:" + joinNames(group);
        try {
            Simulator sim(base, group);
            const SimResult r = sim.run({plan.measured, plan.warmup});
            o = outcomeOf(o.label, r, plan.measured, group.size());
            if (g < job.results.size()) {
                const SimResult &pol = job.results[g];
                for (std::size_t c = 0; c < r.cores.size(); ++c) {
                    log_sum += std::log(pol.cores[c].ipc / r.cores[c].ipc);
                    ++terms;
                }
            }
        } catch (const std::exception &e) {
            o.error = std::string("threw: ") + e.what();
        }
        baseline_sims.push_back(o);
    }
    return terms ? std::exp(log_sum / static_cast<double>(terms)) : 0.0;
}

RunnerReplay
replayRunner(const Plan &plan, const JobResult &sweep, Tracer *tracer,
             int job)
{
    const std::size_t n = plan.specs.size();
    SystemConfig base = plan.classify;
    base.policy = PolicyKind::kAllOff;
    const SystemConfig *configs[] = {&base, &plan.classify, &plan.naive,
                                     &plan.config};

    ExperimentRunner runner(sweepBudget(plan));
    std::vector<SimResult> out(4 * n);
    std::vector<std::string> errors(4 * n);
    RunnerReplay rr;
    rr.taskSec.assign(4 * n, 0.0);

    const Usage u0 = usageNow();
    const double t0 = wallNow();
    parallelFor(4 * n, [&](std::size_t k) {
        Tracer::Scope span(tracer, "ExperimentRunner::runOne", job,
                           plan.warmup + plan.measured);
        const double ts = wallNow();
        try {
            out[k] = runner.runOne(*configs[k % 4], plan.specs[k / 4]);
        } catch (const std::exception &e) {
            errors[k] = std::string("threw: ") + e.what();
        }
        rr.taskSec[k] = wallNow() - ts;
    });
    rr.wallSec = wallNow() - t0;
    const Usage u1 = usageNow();
    rr.usage.user = u1.user - u0.user;
    rr.usage.sys = u1.sys - u0.sys;
    rr.usage.ctxsw = u1.ctxsw - u0.ctxsw;

    for (std::size_t k = 0; k < 4 * n; ++k) {
        SimOutcome o;
        o.label = "runOne:" + plan.specs[k / 4].name;
        if (!errors[k].empty()) {
            o.error = errors[k];
        } else if (k % 4 == 0) {
            o.digest = digestIpc(out[k].ipc());
            o.error = checkResult(out[k], plan.measured, 1);
        } else {
            o = outcomeOf(o.label, out[k], plan.measured, 1);
        }
        if (o.error.empty() &&
            (k >= sweep.sims.size() || sweep.sims[k].digest != o.digest))
            o.error = "runOne result differs from the sweep's";
        rr.sims.push_back(o);
    }
    return rr;
}

} // namespace perfbench
