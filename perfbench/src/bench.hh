/**
 * @file
 * Shared declarations of the benchmark program: the seed-generated
 * workload plans, one closed-loop job of a workload, the output
 * checks, the span recorder of traced runs and the per-layer replays.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "trace/workload.hh"

namespace perfbench
{

// ------------------------------------------------------------ clocks

/** Monotonic wall clock in seconds. */
inline double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Process resource usage (getrusage RUSAGE_SELF). */
struct Usage
{
    double user = 0.0;  ///< User CPU seconds.
    double sys = 0.0;   ///< System CPU seconds.
    long ctxsw = 0;     ///< Voluntary + involuntary context switches.
};

Usage usageNow();

/** Peak resident set of this process in MB. */
double peakRssMb();

/** Median of a sample (0 for an empty sample). */
double median(std::vector<double> v);

/** The q-quantile (0..1) of a sample by linear interpolation. */
double quantile(std::vector<double> v, double q);

// ------------------------------------------------------------- spans

/** One recorded span: a named interval around a call into a layer. */
struct Span
{
    std::string name;
    int job = 0;        ///< Shared by the spans of one job.
    int parent = -1;    ///< Index of the enclosing span, or -1.
    double start = 0.0; ///< Seconds since the tracer was created.
    double end = 0.0;
    std::uint64_t count = 0; ///< Calls or records the span covers.
};

/**
 * In-memory span recorder. Spans are kept until the run ends and
 * then written out as JSON; a disabled tracer records nothing and
 * costs one branch per scope.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled), origin(wallNow()) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** RAII span around one call (or one batch of calls). */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name, int job,
              std::uint64_t count = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        void setCount(std::uint64_t c) { count = c; }

      private:
        Tracer *tr;
        int index = -1;
        int savedParent = -1;
        std::uint64_t count;
    };

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write the spans as a JSON array. */
    void write(const std::string &path) const;

  private:
    bool on;
    double origin;
    mutable std::mutex mtx; ///< Guards spanList.
    std::vector<Span> spanList;
};

// ------------------------------------------------------------ inputs

/**
 * The generated inputs of one workload: everything the simulator is
 * given, derived from the workload name and the seed alone.
 */
struct Plan
{
    /** Chosen zoo members, salted, in run order. */
    std::vector<athena::WorkloadSpec> specs;
    /** The design under test. */
    athena::SystemConfig config;
    /** Per-core instruction budget of every simulation. */
    std::uint64_t warmup = 0;
    std::uint64_t measured = 0;
    /** Host threads the job may use. */
    unsigned threads = 1;
    /** fig_sweep: run through ExperimentRunner, else one Simulator
     *  per entry of simGroups. */
    bool sweep = false;
    /** Per-simulation per-core spec lists (non-sweep workloads). */
    std::vector<std::vector<athena::WorkloadSpec>> simGroups;
    /** fig_sweep configurations. */
    athena::SystemConfig classify; ///< Pythia-only CD1 (Fig. 1 split).
    athena::SystemConfig naive;    ///< CD1 under kNaive.
    /** Specs the per-layer replays stream through the modules. */
    std::vector<athena::WorkloadSpec> layerSpecs;
    std::uint64_t layerRecordsPerSpec = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Generate a workload's inputs; throws std::invalid_argument on an
 *  unknown name. */
Plan makePlan(const std::string &workload, std::uint64_t seed);

// ------------------------------------------------------------- checks

/** FNV-1a digest over every counter of a SimResult. */
std::uint64_t digest(const athena::SimResult &r);

/**
 * Identities a correct SimResult satisfies, checked from outside;
 * returns "" when all hold, else the first violated one.
 */
std::string checkResult(const athena::SimResult &r,
                        std::uint64_t measured, std::size_t cores);

// --------------------------------------------------------------- jobs

/** One simulation of a job and its outcome. */
struct SimOutcome
{
    std::string label;
    std::uint64_t digest = 0;
    std::string error; ///< Empty when the simulation passed its checks.
};

/** Everything one closed-loop job measured and produced. */
struct JobResult
{
    double setupSec = 0.0; ///< Inputs + construction, before simulating.
    double wallSec = 0.0;  ///< First simulated instruction to the end.
    Usage usage;           ///< CPU and context switches of the job.
    std::uint64_t instructions = 0; ///< Warmup + measured, all cores.
    std::vector<SimOutcome> sims;
    /** Full results of the simulations that return one. */
    std::vector<athena::SimResult> results;
    /** Geomean IPC ratio to the no-speculation baseline (fig_sweep:
     *  Athena CD1, the paper's headline), or 0 when not computed. */
    double speedup = 0.0;
    /** Per-simulation seconds (non-sweep jobs). */
    std::vector<double> taskSec;

    /** Order-sensitive combination of the per-simulation digests. */
    std::uint64_t digest() const;
};

/**
 * Set up and run one job of @p plan's workload from its seed.
 * @param step_threads RunPlan::stepThreads for the simulations
 *        (0 = the default auto engine).
 */
JobResult runJob(const std::string &workload, std::uint64_t seed,
                 Tracer *tracer, int job, unsigned step_threads = 0);

/** Set up one job (inputs and construction) and tear it down;
 *  returns the set-up seconds. */
double setupOnly(const std::string &workload, std::uint64_t seed);

/**
 * The no-speculation (kAllOff) baseline of a non-sweep plan: the
 * geomean over simulations and cores of the plan's IPC over the
 * baseline IPC. Counts its simulations into @p baseline_sims.
 */
double baselineSpeedup(const Plan &plan, const JobResult &job,
                       std::vector<SimOutcome> &baseline_sims);

/**
 * fig_sweep's runner layer: every simulation of the sweep re-run
 * through ExperimentRunner::runOne on the thread pool, one span per
 * simulation; each result must equal the sweep's.
 */
struct RunnerReplay
{
    double wallSec = 0.0;
    Usage usage;
    std::vector<double> taskSec;
    std::vector<SimOutcome> sims;
};
RunnerReplay replayRunner(const Plan &plan, const JobResult &sweep,
                          Tracer *tracer, int job);

// ------------------------------------------------------------- layers

/** Isolated-call host costs of each layer, from replaying the
 *  workload's own record stream through each module. */
struct LayerCosts
{
    std::uint64_t records = 0;
    double genNsPerInstr = 0.0;
    double stepNsPerInstr = 0.0;
    std::uint64_t cacheOps = 0;
    double cacheNsPerAccess = 0.0;
    double dramNsPerReq = 0.0;
    std::uint64_t observes = 0;
    double observeNs = 0.0;
    double ocpNs = 0.0;
    double decideNs = 0.0;
};

LayerCosts replayLayers(const Plan &plan, Tracer *tracer, int job);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
