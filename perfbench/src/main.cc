/**
 * @file
 * The repository benchmark program.
 *
 *   perfbench --workload <athena_1c|shared_4c|fig_sweep> --seed <n>
 *             --seconds <s> --trace <0|1> [--out <dir>]
 *
 * An untraced run (--trace 0) repeats closed-loop jobs of the
 * workload for the given seconds and reports the end-to-end metrics
 * over those jobs. A traced run (--trace 1) reports per-layer
 * metrics instead: spans around the benchmark's own calls into each
 * module, isolated replays of the workload's record stream through
 * each layer, counts read from the SimResults, and the wall-time
 * difference between traced and untraced jobs. End-to-end numbers
 * never come from a traced run.
 *
 * Every simulation's result is checked (see checkResult), digested,
 * and compared across the run's repeated jobs; the last line of
 * standard output is one JSON object with the verdict and metrics.
 */

#include <sys/stat.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "common/simd.hh"
#include "sim/system_config.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string out;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Parse the command line; returns false (with a message) on error. */
bool
parseArgs(int argc, char **argv, Options &o, std::string &err)
{
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) {
            err = "missing value for " + key;
            return false;
        }
        const std::string val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = val;
            have_workload = true;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0') {
                err = "--seed takes a non-negative integer";
                return false;
            }
            have_seed = true;
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(o.seconds > 0) ||
                o.seconds > 120) {
                err = "--seconds takes a number in (0, 120]";
                return false;
            }
        } else if (key == "--trace") {
            if (val != "0" && val != "1") {
                err = "--trace takes 0 or 1";
                return false;
            }
            o.trace = val == "1";
        } else if (key == "--out") {
            o.out = val;
        } else {
            err = "unknown option " + key;
            return false;
        }
    }
    if (!have_workload || !have_seed) {
        err = "--workload and --seed are required";
        return false;
    }
    for (const std::string &w : workloadNames()) {
        if (w == o.workload)
            return true;
    }
    err = "unknown workload " + o.workload;
    return false;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
metricJson(const Metric &m)
{
    return "\"" + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(" \t", colon + 1));
        }
    }
    return "unknown";
}

/** The stepping engine RunPlan's auto setting resolves to here. */
std::string
engineFor(const Plan &plan)
{
    if (plan.sweep)
        return "sequential (single-core simulations on pool workers)";
    if (plan.config.cores < 2)
        return "sequential (single core)";
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= plan.config.cores
               ? "parallel (" + std::to_string(plan.config.cores) +
                     " stepping threads)"
               : "sequential (fewer host threads than cores)";
}

std::vector<std::pair<std::string, std::string>>
disclosure(const Plan &plan)
{
    const athena::SystemConfig &c = plan.config;
    return {
        {"host_cpu", cpuModel()},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"compiler", PERFBENCH_COMPILER},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"stepping_engine", engineFor(plan)},
        {"simd_backend",
         athena::simd::backendName(athena::simd::activeBackend())},
        {"design", plan.sweep ? "CD1 (pf-only, naive, athena vs all-off)"
                              : c.label + " " +
                                    athena::policyKindName(c.policy)},
        {"cores", std::to_string(c.cores)},
        {"bandwidth_gbps", std::to_string(c.bandwidthGBps)},
        {"epoch_instructions", std::to_string(c.epochInstructions)},
        {"warmup_per_core", std::to_string(plan.warmup)},
        {"measured_per_core", std::to_string(plan.measured)},
        {"host_threads", std::to_string(plan.threads)},
        {"model_validation",
         "unvalidated against hardware; no reference results, no error figure"},
    };
}

/** Shared state of one run: verdict counters and the record file. */
struct Run
{
    Options opt;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<SimOutcome> failures;
    std::vector<Metric> metrics;
    std::vector<Metric> extra; ///< Printed and recorded, not in the verdict.
    std::ostringstream jobs;   ///< Per-job JSON records.
    int jobCount = 0;

    /** Count a job's simulations; a digest that differs from the
     *  reference job's fails every simulation of the job. */
    void
    account(const JobResult &j, std::uint64_t ref_digest,
            const char *kind)
    {
        const bool same = j.digest() == ref_digest;
        for (const SimOutcome &o : j.sims) {
            ++attempted;
            SimOutcome f = o;
            if (f.error.empty() && !same)
                f.error = "job digest differs from the first job's";
            if (!f.error.empty()) {
                ++failed;
                failures.push_back(f);
            }
        }
        jobs << (jobCount++ ? ",\n    " : "    ") << "{\"kind\": \"" << kind
             << "\", \"setup_s\": " << num(j.setupSec)
             << ", \"wall_s\": " << num(j.wallSec)
             << ", \"cpu_s\": " << num(j.usage.user + j.usage.sys)
             << ", \"instructions\": " << j.instructions
             << ", \"sims\": " << j.sims.size() << ", \"digest\": \""
             << hex(j.digest()) << "\"}";
    }

    void
    accountSims(const std::vector<SimOutcome> &sims)
    {
        for (const SimOutcome &o : sims) {
            ++attempted;
            if (!o.error.empty()) {
                ++failed;
                failures.push_back(o);
            }
        }
    }
};

double
cpuOf(const JobResult &j)
{
    return j.usage.user + j.usage.sys;
}

void
measureEndToEnd(Run &run)
{
    const Options &o = run.opt;
    const double t0 = wallNow();
    // Set-up alone, several times: it is milliseconds, so one sample
    // would be mostly noise.
    std::vector<double> setups;
    for (int i = 0; i < 15; ++i)
        setups.push_back(setupOnly(o.workload, o.seed));

    std::vector<JobResult> jobs;
    while (jobs.size() < 3 || wallNow() - t0 < o.seconds)
        jobs.push_back(runJob(o.workload, o.seed, nullptr,
                              static_cast<int>(jobs.size())));

    std::vector<double> mips, cpu;
    for (const JobResult &j : jobs) {
        run.account(j, jobs.front().digest(), "untraced");
        setups.push_back(j.setupSec);
        mips.push_back(static_cast<double>(j.instructions) / j.wallSec / 1e6);
        cpu.push_back(cpuOf(j));
    }
    // Jobs are reported by the best of the run: interference from
    // other tenants of a shared host only ever slows a job, and it
    // comes in phases of seconds, so the fastest job is a far
    // steadier estimate of the program's own cost than the median
    // (see README.md). The medians are recorded alongside.
    run.metrics = {
        {"sim_mips", quantile(mips, 1.0), "Minstr/s"},
        {"cpu_s", quantile(cpu, 0.0), "s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    run.extra.push_back({"sim_mips_median", median(mips), "Minstr/s"});
    run.extra.push_back({"cpu_s_median", median(cpu), "s"});
    run.extra.push_back({"failed_frac",
                         static_cast<double>(run.failed) /
                             static_cast<double>(run.attempted),
                         "ratio"});
    if (jobs.front().speedup > 0)
        run.extra.push_back({"athena_speedup", jobs.front().speedup, "ratio"});
    run.extra.push_back({"jobs", static_cast<double>(jobs.size()), "count"});
}

/** Counts over every SimResult of a job. */
struct Counts
{
    double instr = 0, cycles = 0, loads = 0, stores = 0, mispredicts = 0;
    double llcMisses = 0, llcMissLatency = 0;
    double dramReq = 0, dramPf = 0, rowHits = 0, rowMisses = 0;
    double busUtilSum = 0, results = 0;
    double pfIssued = 0, pfUsed = 0, pfTimely = 0;
    double ocpPred = 0, ocpCorrect = 0, decisions = 0;

    explicit Counts(const JobResult &j)
    {
        for (const athena::SimResult &r : j.results) {
            for (const auto &c : r.cores) {
                instr += static_cast<double>(c.instructions);
                cycles += static_cast<double>(c.cycles);
                loads += static_cast<double>(c.loads);
                stores += static_cast<double>(c.stores);
                mispredicts += static_cast<double>(c.branchMispredicts);
                llcMisses += static_cast<double>(c.llcMisses);
                llcMissLatency += static_cast<double>(c.llcMissLatency);
                for (const auto &p : c.pf) {
                    pfIssued += static_cast<double>(p.issued);
                    pfUsed += static_cast<double>(p.used);
                    pfTimely += static_cast<double>(p.usedTimely);
                }
                ocpPred += static_cast<double>(c.ocpPredictions);
                ocpCorrect += static_cast<double>(c.ocpCorrect);
                for (std::uint64_t a : c.actionHistogram)
                    decisions += static_cast<double>(a);
            }
            dramReq += static_cast<double>(r.dram.totalRequests());
            dramPf += static_cast<double>(r.dram.prefetchRequests);
            rowHits += static_cast<double>(r.dram.rowHits);
            rowMisses += static_cast<double>(r.dram.rowMisses);
            busUtilSum += r.busUtilization;
            results += 1;
        }
    }

    double pki(double v) const { return instr > 0 ? 1000.0 * v / instr : 0; }
    static double ratio(double a, double b) { return b > 0 ? a / b : 0; }
};

void
measureLayers(Run &run, Tracer &tracer)
{
    const Options &o = run.opt;
    int id = 0;
    const JobResult ref = runJob(o.workload, o.seed, nullptr, id++);
    run.account(ref, ref.digest(), "untraced");
    const std::uint64_t ref_digest = ref.digest();

    // Tracing overhead: traced and untraced jobs alternate.
    std::vector<JobResult> traced, untraced;
    const double t0 = wallNow();
    while (traced.size() < 2 || wallNow() - t0 < o.seconds / 2) {
        traced.push_back(runJob(o.workload, o.seed, &tracer, id++));
        run.account(traced.back(), ref_digest, "traced");
        untraced.push_back(runJob(o.workload, o.seed, nullptr, id++));
        run.account(untraced.back(), ref_digest, "untraced");
    }
    std::vector<double> tw, uw, ucpu, ucpw, usys, uctx;
    for (const JobResult &j : traced)
        tw.push_back(j.wallSec);
    for (const JobResult &j : untraced) {
        uw.push_back(j.wallSec);
        ucpu.push_back(cpuOf(j) * 1e9 / static_cast<double>(j.instructions));
        ucpw.push_back(cpuOf(j) / (j.setupSec + j.wallSec));
        usys.push_back(j.usage.sys / cpuOf(j));
        uctx.push_back(static_cast<double>(j.usage.ctxsw) * 1e6 /
                       static_cast<double>(j.instructions));
    }
    const double u_wall = median(uw);

    // Engine invariance: the sequential engine must reproduce the
    // auto engine's results bit for bit.
    const JobResult seq = runJob(o.workload, o.seed, nullptr, id++, 1);
    run.account(seq, ref_digest, "step_threads_1");

    const Plan plan = makePlan(o.workload, o.seed);
    double speedup = ref.speedup;
    if (!plan.sweep) {
        std::vector<SimOutcome> base;
        speedup = baselineSpeedup(plan, ref, base);
        run.accountSims(base);
    }

    // Runner layer: per-simulation task times. The sweep's
    // simulations share the pool; the other workloads run theirs one
    // after another on the main thread.
    std::vector<double> tasks = ref.taskSec;
    double r_wall = ref.setupSec + ref.wallSec, r_cpu = cpuOf(ref);
    double r_threads = 1.0;
    if (plan.sweep) {
        const RunnerReplay rr = replayRunner(plan, ref, &tracer, id++);
        run.accountSims(rr.sims);
        tasks = rr.taskSec;
        r_wall = rr.wallSec;
        r_cpu = rr.usage.user + rr.usage.sys;
        r_threads = static_cast<double>(plan.threads);
    }
    double task_sum = 0;
    for (double t : tasks)
        task_sum += t;

    const LayerCosts lc = replayLayers(plan, &tracer, id++);
    const Counts k(ref);
    const double records = static_cast<double>(lc.records);
    const double run_ns = median(ucpu);
    const double replay_ns =
        lc.genNsPerInstr + lc.stepNsPerInstr +
        lc.cacheNsPerAccess * static_cast<double>(lc.cacheOps) / records +
        lc.dramNsPerReq * Counts::ratio(k.dramReq, k.instr) +
        lc.observeNs * static_cast<double>(lc.observes) / records +
        lc.ocpNs * Counts::ratio(k.ocpPred, k.instr) +
        lc.decideNs / static_cast<double>(plan.config.epochInstructions);

    run.metrics = {
        {"trace.gen_ns_per_instr", lc.genNsPerInstr, "ns"},
        {"cpu.step_ns_per_instr", lc.stepNsPerInstr, "ns"},
        {"cpu.ipc", Counts::ratio(k.instr, k.cycles), "instr/cycle"},
        {"cpu.loads_pki", k.pki(k.loads), "1/kinstr"},
        {"cpu.stores_pki", k.pki(k.stores), "1/kinstr"},
        {"cpu.branch_mpki", k.pki(k.mispredicts), "1/kinstr"},
        {"mem.cache_ns_per_access", lc.cacheNsPerAccess, "ns"},
        {"mem.dram_ns_per_req", lc.dramNsPerReq, "ns"},
        {"mem.llc_mpki", k.pki(k.llcMisses), "1/kinstr"},
        {"mem.llc_miss_latency_cyc",
         Counts::ratio(k.llcMissLatency, k.llcMisses), "cycles"},
        {"mem.dram_req_pki", k.pki(k.dramReq), "1/kinstr"},
        {"mem.dram_prefetch_share", Counts::ratio(k.dramPf, k.dramReq),
         "ratio"},
        {"mem.dram_row_hit_ratio",
         Counts::ratio(k.rowHits, k.rowHits + k.rowMisses), "ratio"},
        {"mem.bus_util", Counts::ratio(k.busUtilSum, k.results), "ratio"},
        {"prefetch.observe_ns", lc.observeNs, "ns"},
        {"prefetch.issued_pki", k.pki(k.pfIssued), "1/kinstr"},
        {"prefetch.accuracy", Counts::ratio(k.pfUsed, k.pfIssued), "ratio"},
        {"prefetch.timely_ratio", Counts::ratio(k.pfTimely, k.pfUsed),
         "ratio"},
        {"ocp.call_ns", lc.ocpNs, "ns"},
        {"ocp.pred_pki", k.pki(k.ocpPred), "1/kinstr"},
        {"ocp.accuracy", Counts::ratio(k.ocpCorrect, k.ocpPred), "ratio"},
        {"athena.decide_ns", lc.decideNs, "ns"},
        {"athena.decisions_pki", k.pki(k.decisions), "1/kinstr"},
        {"sim.run_ns_per_instr", run_ns, "ns"},
        {"sim.glue_ns_per_instr", run_ns - replay_ns, "ns"},
        {"sim.cpu_per_wall", median(ucpw), "ratio"},
        {"sim.sys_share", median(usys), "ratio"},
        {"sim.ctxsw_per_minstr", median(uctx), "1/Minstr"},
        {"sim.par_speedup", seq.wallSec / u_wall, "ratio"},
        {"sim.speedup_vs_baseline", speedup, "ratio"},
        {"runner.sims", static_cast<double>(tasks.size()), "count"},
        {"runner.pool_util", r_cpu / (r_wall * r_threads), "ratio"},
        {"runner.task_p50_s", quantile(tasks, 0.5), "s"},
        {"runner.task_p90_s", quantile(tasks, 0.9), "s"},
        {"runner.tail_idle_s", r_wall - task_sum / r_threads, "s"},
        {"bench.trace_overhead_s", median(tw) - u_wall, "s"},
        {"bench.trace_spans", static_cast<double>(tracer.spans().size()),
         "count"},
    };
    run.extra.push_back({"traced_job_wall_s", median(tw), "s"});
    run.extra.push_back({"untraced_job_wall_s", u_wall, "s"});
}

void
writeRecord(const Run &run, const Plan &plan, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "{\n  \"workload\": \"" << run.opt.workload << "\",\n"
        << "  \"seed\": " << run.opt.seed << ",\n"
        << "  \"trace\": " << (run.opt.trace ? 1 : 0) << ",\n"
        << "  \"members\": [";
    for (std::size_t i = 0; i < plan.specs.size(); ++i)
        out << (i ? ", " : "") << "{\"name\": \"" << plan.specs[i].name
            << "\", \"spec_seed\": " << plan.specs[i].seed << "}";
    out << "],\n  \"disclosure\": {";
    const auto d = disclosure(plan);
    for (std::size_t i = 0; i < d.size(); ++i)
        out << (i ? ", " : "") << "\"" << d[i].first << "\": \""
            << jsonEscape(d[i].second) << "\"";
    out << "},\n  \"jobs\": [\n" << run.jobs.str() << "\n  ],\n"
        << "  \"attempted\": " << run.attempted << ",\n"
        << "  \"failed\": " << run.failed << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < run.failures.size(); ++i)
        out << (i ? ", " : "") << "{\"sim\": \""
            << jsonEscape(run.failures[i].label) << "\", \"error\": \""
            << jsonEscape(run.failures[i].error) << "\"}";
    out << "],\n  \"metrics\": {";
    bool first = true;
    for (const auto *list : {&run.metrics, &run.extra}) {
        for (const Metric &m : *list) {
            out << (first ? "" : ", ") << metricJson(m);
            first = false;
        }
    }
    out << "}\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Run run;
    std::string err;
    if (!parseArgs(argc, argv, run.opt, err)) {
        std::cerr << "perfbench: " << err << "\n"
                  << "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--out <dir>]\n";
        return 2;
    }
    const Options &o = run.opt;
    try {
        const Plan plan = makePlan(o.workload, o.seed);
        std::cout << "perfbench " << o.workload << " seed=" << o.seed
                  << " trace=" << (o.trace ? 1 : 0)
                  << " seconds=" << o.seconds << "\n";
        for (const auto &[k, v] : disclosure(plan))
            std::cout << "  " << k << ": " << v << "\n";
        std::cout << "  members:";
        for (const athena::WorkloadSpec &s : plan.specs)
            std::cout << " " << s.name;
        std::cout << "\n";

        Tracer tracer(o.trace);
        if (o.trace)
            measureLayers(run, tracer);
        else
            measureEndToEnd(run);

        for (const auto *list : {&run.metrics, &run.extra}) {
            for (const Metric &m : *list) {
                std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                            m.unit.c_str());
            }
        }
        std::cout << "  simulations: attempted=" << run.attempted
                  << " failed=" << run.failed << "\n";
        for (const SimOutcome &f : run.failures)
            std::cout << "  FAILED " << f.label << ": " << f.error << "\n";

        if (!o.out.empty()) {
            ::mkdir(o.out.c_str(), 0755);
            const std::string stem = o.out + "/" + o.workload + "-seed" +
                                     std::to_string(o.seed) + "-trace" +
                                     (o.trace ? "1" : "0");
            writeRecord(run, plan, stem + ".json");
            if (o.trace)
                tracer.write(stem + "-spans.json");
            std::cout << "  record: " << stem << ".json\n";
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }

    std::cout << "{\"correct\": " << (run.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << run.attempted
              << ", \"failed\": " << run.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < run.metrics.size(); ++i)
        std::cout << (i ? ", " : "") << metricJson(run.metrics[i]);
    std::cout << "}}" << std::endl;
    return 0;
}
