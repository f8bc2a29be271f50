/**
 * @file
 * Snapshot-resume equivalence: resuming from a post-warmup snapshot
 * must reproduce the straight-through run bit-identically — the
 * full SimResult, every counter — across the five pinned golden
 * configurations, finite trace replay that exhausts mid-stream, and
 * a 4-core mix combining synthetic and trace-replay cores.
 */

#include <cstdint>
#include <cstdio>
#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "sim_test_util.hh"
#include "trace/trace_file.hh"
#include "trace/workload.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace
{

constexpr std::uint64_t kInstr = 60000;
constexpr std::uint64_t kWarmup = 15000;

using testutil::dataPath;
using testutil::expectResultsIdentical;
using testutil::pickWorkload;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "resume_" + name + ".asnp";
}

/**
 * The contract under test: straight-through run vs. snapshot at the
 * warmup boundary + resume of the measured window.
 */
void
checkResumeEquivalence(const SystemConfig &cfg,
                       const std::vector<WorkloadSpec> &specs,
                       std::uint64_t measured, std::uint64_t warmup,
                       const char *ctx)
{
    RunPlan plan;
    plan.measured = measured;
    plan.warmup = warmup;

    Simulator straight(cfg, specs);
    SimResult want = straight.run(plan);

    const std::string path = tmpPath(ctx);
    RunPlan snap_plan = plan;
    snap_plan.snapshotAfterWarmup = path;
    Simulator source(cfg, specs);
    SimResult via_snapshot = source.run(snap_plan);
    // Taking the snapshot must not perturb the run that takes it.
    expectResultsIdentical(want, via_snapshot, ctx);

    Simulator resumed(cfg, specs, path);
    SimResult got = resumed.run(plan);
    expectResultsIdentical(want, got, ctx);
    std::remove(path.c_str());
}

void
checkGoldenConfig(CacheDesign design, PolicyKind policy,
                  const char *wl, const char *ctx)
{
    SystemConfig cfg = makeDesignConfig(design, policy);
    checkResumeEquivalence(cfg, {pickWorkload(wl)}, kInstr, kWarmup,
                           ctx);
}

// The same five pinned configurations as test_golden.cc.

TEST(SnapshotResume, Cd1NaiveStream)
{
    checkGoldenConfig(CacheDesign::kCd1, PolicyKind::kNaive,
                      "bwaves", "cd1_naive_stream");
}

TEST(SnapshotResume, Cd1NaiveChase)
{
    checkGoldenConfig(CacheDesign::kCd1, PolicyKind::kNaive, "mcf",
                      "cd1_naive_chase");
}

TEST(SnapshotResume, Cd1AthenaStream)
{
    checkGoldenConfig(CacheDesign::kCd1, PolicyKind::kAthena,
                      "bwaves", "cd1_athena_stream");
}

TEST(SnapshotResume, Cd4AthenaChase)
{
    checkGoldenConfig(CacheDesign::kCd4, PolicyKind::kAthena, "mcf",
                      "cd4_athena_chase");
}

TEST(SnapshotResume, Cd3TlpStream)
{
    checkGoldenConfig(CacheDesign::kCd3, PolicyKind::kTlp, "bwaves",
                      "cd3_tlp_stream");
}

// --------------------------------------------- finite trace replay

TEST(SnapshotResume, FiniteTraceExhaustsMidMeasurement)
{
    // Two looped passes over the checked-in sample: the stream
    // exhausts after the warmup boundary but before the measured
    // budget, so the resumed run must replay the partial window and
    // the exact completed-instruction count.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    WorkloadSpec spec = traceWorkloadSpec(
        "sample_loop.x2", dataPath("sample_loop.txt"), 2);
    checkResumeEquivalence(cfg, {spec}, 1000000, 100,
                           "finite_mid_stream");
}

TEST(SnapshotResume, FiniteTraceExhaustsBeforeWarmup)
{
    // The stream ends inside the warmup span: the snapshot is taken
    // at the terminal state and the resumed run is a no-op that
    // must still report identical results.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    WorkloadSpec spec = traceWorkloadSpec(
        "sample_loop.x1", dataPath("sample_loop.txt"), 1);
    checkResumeEquivalence(cfg, {spec}, 1000, 5000,
                           "finite_pre_warmup");
}

// --------------------------------------------------- 4-core mixes

TEST(SnapshotResume, FourCoreSyntheticMix)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = 4;
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> mix = {
        pickWorkload("bwaves"), pickWorkload("mcf"),
        workloads[2 % workloads.size()],
        workloads[5 % workloads.size()]};
    checkResumeEquivalence(cfg, mix, 20000, 6000, "mc_synth");
}

TEST(SnapshotResume, FourCoreMixWithFiniteTraces)
{
    // Mixed synthetic + finite trace-replay cores: two cores
    // exhaust their streams at different times (one before, one
    // after its warmup crossing), exercising the picker-rebuild
    // path for already-retired cores.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.cores = 4;
    std::vector<WorkloadSpec> mix = {
        traceWorkloadSpec("t.a", dataPath("sample_loop.txt"), 1),
        pickWorkload("bwaves"),
        traceWorkloadSpec("t.c", dataPath("sample_mix.bin"), 3),
        pickWorkload("mcf")};
    checkResumeEquivalence(cfg, mix, 20000, 1000, "mc_traces");
}

} // namespace
} // namespace athena
