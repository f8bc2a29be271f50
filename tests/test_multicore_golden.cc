/**
 * @file
 * Multi-core golden pins: for fixed configs, mixes and budgets the
 * multi-core stepping engine's SimResult must stay bit-identical
 * across engine refactors, exactly as test_golden.cc pins the
 * single-core path. Each case pins an FNV-1a digest over every
 * SimResult counter plus a few aggregate counters (ResultPin in
 * sim_test_util.hh).
 *
 * The cases cover what the multi-core schedule can observe: 2-, 4-
 * and 8-core Athena mixes, an OCP-heavy chase pair, a bandwidth-
 * starved CD3 mix, short epochs (every epoch end reads the shared
 * DRAM counters), staggered finite-trace exhaustion (the pick set
 * shrinks mid-run), the 16-core sharded preset, and a
 * snapshot-at-warmup resume.
 *
 * The pins were captured from the one-instruction-per-pick
 * sequential engine. To regenerate after an *intentional* semantic
 * change, run with ATHENA_GOLDEN_PRINT=1 and paste the printed
 * values.
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

namespace athena
{
namespace
{

using testutil::checkPin;
using testutil::dataPath;
using testutil::pickWorkload;
using testutil::ResultPin;
using testutil::runMix;
using testutil::stridedMix;

SystemConfig
cd1Athena(unsigned cores)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = cores;
    return cfg;
}

// Expected pins: {digest, sum cycles, sum llcMisses, dram demand,
// dram prefetch, dram ocp}.
constexpr ResultPin kTwoCoreAthena =
    {0xd218f13fcecffbcbull, 532514u, 1064u, 395u, 5163u, 1285u};
constexpr ResultPin kFourCoreAthena =
    {0x6d9b4f6c00b3f735ull, 692495u, 1107u, 1678u, 7079u, 1138u};
constexpr ResultPin kEightCoreAthena =
    {0x635518106a2bf7e2ull, 2645089u, 2016u, 1894u, 10548u, 2977u};
constexpr ResultPin kTwoCoreNaiveChase =
    {0xb66d4fcc17460c3aull, 730516u, 662u, 147u, 3157u, 666u};
constexpr ResultPin kFourCoreCd3Naive1p6 =
    {0x569012ef35338f56ull, 4331393u, 1714u, 868u, 12813u, 1970u};
constexpr ResultPin kFourCoreEpoch500 =
    {0x3c82c1e65dc1b435ull, 702651u, 2211u, 2799u, 2939u, 1283u};
constexpr ResultPin kStaggeredExhaustion =
    {0x92c84377ad20341dull, 95542u, 367u, 4u, 0u, 26u};
constexpr ResultPin kSixteenCorePreset =
    {0xf4c993d9d3e12944ull, 8029880u, 4960u, 3225u, 21915u, 8151u};
constexpr ResultPin kSnapshotResume =
    {0x53baa2600c42ed4dull, 699613u, 1125u, 1435u, 6418u, 1147u};

TEST(MulticoreGolden, TwoCoreAthenaMix)
{
    checkPin("kTwoCoreAthena",
             runMix(cd1Athena(2),
                    {pickWorkload("bwaves"), pickWorkload("mcf")},
                    20000, 6000),
             kTwoCoreAthena);
}

TEST(MulticoreGolden, FourCoreAthenaMix)
{
    checkPin("kFourCoreAthena",
             runMix(cd1Athena(4), stridedMix(4), 20000, 6000),
             kFourCoreAthena);
}

TEST(MulticoreGolden, EightCoreAthenaMix)
{
    // The Fig. 16 shape; smaller budget.
    checkPin("kEightCoreAthena",
             runMix(cd1Athena(8), stridedMix(8), 8000, 2000),
             kEightCoreAthena);
}

TEST(MulticoreGolden, TwoCoreNaiveChaseOcpHeavy)
{
    // Chase workloads under the naive policy maximize OCP traffic:
    // every OCP false positive takes the shared DRAM path.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.cores = 2;
    checkPin("kTwoCoreNaiveChase",
             runMix(cfg, {pickWorkload("mcf"), pickWorkload("mcf")},
                    12000, 3000),
             kTwoCoreNaiveChase);
}

TEST(MulticoreGolden, FourCoreCd3NaiveAt1p6GBps)
{
    // A bandwidth-starved memory-bound mix (stream, stride, chase,
    // irregular) under SMS+Pythia+POPET: the shape of the shared
    // plane's heaviest contention.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd3, PolicyKind::kNaive);
    cfg.cores = 4;
    cfg.bandwidthGBps = 1.6;
    checkPin("kFourCoreCd3Naive1p6",
             runMix(cfg,
                    {pickWorkload("bwaves"), pickWorkload("cactusADM"),
                     pickWorkload("mcf"), pickWorkload("xalancbmk")},
                    16000, 4000),
             kFourCoreCd3Naive1p6);
}

TEST(MulticoreGolden, FourCoreEpoch500)
{
    // Every epoch end samples the aggregate DRAM counters; a short
    // epoch makes that happen hundreds of times per run.
    SystemConfig cfg = cd1Athena(4);
    cfg.epochInstructions = 500;
    checkPin("kFourCoreEpoch500",
             runMix(cfg, stridedMix(4), 16000, 4000),
             kFourCoreEpoch500);
}

TEST(MulticoreGolden, StaggeredFiniteTraceExhaustion)
{
    // Four trace-replay cores with staggered loop counts: streams
    // exhaust one after another while the pick set shrinks.
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kNaive);
    cfg.cores = 4;
    std::vector<WorkloadSpec> mix = {
        traceWorkloadSpec("t.a", dataPath("sample_loop.txt"), 1),
        traceWorkloadSpec("t.b", dataPath("sample_loop.txt"), 3),
        traceWorkloadSpec("t.c", dataPath("sample_mix.bin"), 1),
        traceWorkloadSpec("t.d", dataPath("sample_mix.bin"), 4)};
    SimResult res = runMix(cfg, mix, 50000, 1000);
    checkPin("kStaggeredExhaustion", res, kStaggeredExhaustion);

    // The case is only meaningful if exhaustion actually staggers.
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_TRUE(res.cores[c].streamExhausted) << "c" << c;
    EXPECT_NE(res.cores[0].completedInstructions,
              res.cores[1].completedInstructions);
    EXPECT_NE(res.cores[2].completedInstructions,
              res.cores[3].completedInstructions);
}

TEST(MulticoreGolden, SixteenCoreShardedPreset)
{
    // The 16-core Fig. 16-style preset: 4 LLC banks, 2 channels.
    SystemConfig cfg = makeManyCoreConfig(16);
    ASSERT_GE(cfg.llcBanks, 2u);
    ASSERT_GE(cfg.dramChannels, 2u);
    checkPin("kSixteenCorePreset",
             runMix(cfg, stridedMix(16), 5000, 1200),
             kSixteenCorePreset);
}

TEST(MulticoreGolden, SnapshotAtWarmupResume)
{
    // The straight run, the run that takes the warmup snapshot, and
    // the resume of that snapshot all land on one pin.
    SystemConfig cfg = cd1Athena(4);
    std::vector<WorkloadSpec> mix = stridedMix(4);
    constexpr std::uint64_t kMeasured = 16000;
    constexpr std::uint64_t kWarm = 4000;

    checkPin("kSnapshotResume", runMix(cfg, mix, kMeasured, kWarm),
             kSnapshotResume);

    const std::string path =
        testing::TempDir() + "mcgolden_resume.asnp";
    RunPlan snap_plan(kMeasured, kWarm);
    snap_plan.snapshotAfterWarmup = path;
    Simulator source(cfg, mix);
    checkPin("kSnapshotResume(source)", source.run(snap_plan),
             kSnapshotResume);

    Simulator resumed(cfg, mix, path);
    checkPin("kSnapshotResume(resumed)",
             resumed.run({kMeasured, kWarm}), kSnapshotResume);
    std::remove(path.c_str());
}

} // namespace
} // namespace athena
