/**
 * @file
 * Sharded shared-memory plane: banked LLC + channeled DRAM.
 *
 * Four contracts are pinned here:
 *
 *  1. Golden results on sharded geometries. Every {1,2,4,8} banks x
 *     {1,2,4} channels geometry, odd (non-power-of-two) shard counts
 *     and the 32-core preset each pin a whole-SimResult digest
 *     (ResultPin in sim_test_util.hh); the 16-core preset is pinned
 *     in test_multicore_golden.cc. Regenerate with
 *     ATHENA_GOLDEN_PRINT=1 after an intentional semantic change.
 *
 *  2. Bank-count bit-invariance. With a power-of-two bank count the
 *     interleave is a pure re-labeling of the monolithic set index
 *     (bank bits + bank-local set bits = monolithic set index, tags
 *     coincide), so {1, 2, 4, 8} banks produce the same SimResult to
 *     the last counter. Note there is NO analogous invariance across
 *     channel counts: bandwidthGBps is per channel, so adding
 *     channels adds aggregate bandwidth by design.
 *
 *  3. Exact decode for any shard count: odd / non-power-of-two bank
 *     and channel counts run through the reciprocal-division path.
 *
 *  4. Snapshot/resume on sharded geometry, including the named
 *     geometry-mismatch errors a wrong-shaped restore must raise.
 */

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/shard.hh"
#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "sim_test_util.hh"
#include "snapshot/snapshot.hh"
#include "trace/workload.hh"

namespace athena
{
namespace
{

using testutil::checkPin;
using testutil::expectResultsIdentical;
using testutil::ResultPin;
using testutil::runMix;
using testutil::stridedMix;

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "shardord_" + name + ".asnp";
}

/** CD1 Athena on @p cores cores with the given shard geometry. */
SystemConfig
shardedConfig(unsigned cores, unsigned banks, unsigned channels)
{
    SystemConfig cfg =
        makeDesignConfig(CacheDesign::kCd1, PolicyKind::kAthena);
    cfg.cores = cores;
    cfg.llcBanks = banks;
    cfg.dramChannels = channels;
    return cfg;
}

// Expected pins: {digest, sum cycles, sum llcMisses, dram demand,
// dram prefetch, dram ocp}.
constexpr ResultPin kFourCoreB2Ch2 =
    {0x30103be449d15a2bull, 456667u, 1125u, 1406u, 6331u, 1137u};
constexpr ResultPin kEightCoreB4Ch2 =
    {0x057bc34a72653354ull, 1496913u, 2016u, 1872u, 10546u, 2854u};
constexpr ResultPin kThirtyTwoCorePreset =
    {0xb32f021d269b3378ull, 14741251u, 8598u, 4030u, 28801u, 14938u};
constexpr ResultPin kFourCoreB3Ch3 =
    {0x68a5ce8e19053a4full, 318839u, 1049u, 1183u, 6015u, 1169u};
/** Geometry matrix, per channel count {1, 2, 4}; the bank count
 *  does not move the result (contract 2). */
constexpr ResultPin kMatrixCh[3] = {
    {0xbc411a0ffee7180cull, 769062u, 1040u, 739u, 5376u, 1421u},
    {0x413f1e971ac787b4ull, 470173u, 1040u, 735u, 5376u, 1405u},
    {0xdf56af7cbc87a5a9ull, 303180u, 1040u, 740u, 5345u, 1423u},
};
/** Equals kFourCoreB2Ch2: the bank count does not move results. */
constexpr ResultPin kFourCoreB4Ch2Resume =
    {0x30103be449d15a2bull, 456667u, 1125u, 1406u, 6331u, 1137u};

// ----------------------------------------------- decode algebra

TEST(ShardDecode, DivisionMatchesShiftOnPow2Counts)
{
    // The reciprocal-division path must agree with the shift/mask
    // path everywhere it can be cross-checked: every pow2 count.
    const std::uint64_t lines[] = {
        0,       1,        2,          3,          63,
        64,      65,       1000003,    (1ull << 32) - 1,
        1ull << 32,        (1ull << 52) + 12345,
        ~std::uint64_t{0} >> 6};
    for (std::uint64_t count : {1u, 2u, 4u, 8u, 16u, 64u}) {
        ShardDecode fast(count);
        ShardDecode slow(count, /*force_division=*/true);
        for (std::uint64_t line : lines) {
            EXPECT_EQ(fast.shardOf(line), slow.shardOf(line))
                << "count=" << count << " line=" << line;
            EXPECT_EQ(fast.localLine(line), slow.localLine(line))
                << "count=" << count << " line=" << line;
        }
    }
}

TEST(ShardDecode, ExactPartitionForAnyCount)
{
    // shardOf/localLine must be a true divmod (exact partition of
    // the line space) and globalLine its exact inverse — including
    // odd and composite non-pow2 counts.
    const std::uint64_t lines[] = {
        0,  1,  2,  6,  7,  8,  41, 97, 1000000007ull,
        (1ull << 40) + 17, ~std::uint64_t{0} >> 8};
    for (std::uint64_t count : {1u, 3u, 5u, 6u, 7u, 12u, 33u}) {
        ShardDecode d(count);
        for (std::uint64_t line : lines) {
            const std::uint64_t shard = d.shardOf(line);
            const std::uint64_t local = d.localLine(line);
            EXPECT_LT(shard, count) << "count=" << count;
            EXPECT_EQ(local * count + shard, line)
                << "count=" << count << " line=" << line;
            EXPECT_EQ(d.globalLine(local, shard), line)
                << "count=" << count << " line=" << line;
        }
    }
}

// ------------------------------------------ sharded golden pins

TEST(ShardOrder, FourCoreShardedGeometry)
{
    // Small sharded geometry at 4 cores: 2 banks, 2 channels, so
    // every shard class has more than one member.
    checkPin("kFourCoreB2Ch2",
             runMix(shardedConfig(4, 2, 2), stridedMix(4), 16000,
                    4000),
             kFourCoreB2Ch2);
}

TEST(ShardOrder, EightCoreShardedGeometry)
{
    checkPin("kEightCoreB4Ch2",
             runMix(shardedConfig(8, 4, 2), stridedMix(8), 8000, 2000),
             kEightCoreB4Ch2);
}

TEST(ShardOrder, ThirtyTwoCorePreset)
{
    // The 32-core preset (8 banks / 4 channels). Small budget: this
    // is the widest configuration in the test tree.
    SystemConfig cfg = makeManyCoreConfig(32);
    ASSERT_GE(cfg.llcBanks, 2u);
    ASSERT_GE(cfg.dramChannels, 2u);
    checkPin("kThirtyTwoCorePreset",
             runMix(cfg, stridedMix(32), 3000, 800),
             kThirtyTwoCorePreset);
}

TEST(ShardOrder, OddShardCountsDivisionDecode)
{
    // Non-pow2 bank and channel counts exercise the reciprocal
    // division decode on every shared access.
    checkPin("kFourCoreB3Ch3",
             runMix(shardedConfig(4, 3, 3), stridedMix(4), 12000,
                    3000),
             kFourCoreB3Ch3);
}

TEST(ShardOrder, GeometryMatrixPinned)
{
    // Every geometry in {1,2,4,8} banks x {1,2,4} channels. Results
    // differ across channel counts (bandwidth is per channel) but
    // not across pow2 bank counts, so one pin per channel count.
    std::vector<WorkloadSpec> mix = stridedMix(4);
    const unsigned channels[] = {1u, 2u, 4u};
    for (unsigned i = 0; i < 3; ++i) {
        for (unsigned banks : {1u, 2u, 4u, 8u}) {
            std::string ctx = "kMatrixCh[" + std::to_string(i) +
                              "] b" + std::to_string(banks) + "ch" +
                              std::to_string(channels[i]);
            checkPin(ctx.c_str(),
                     runMix(shardedConfig(4, banks, channels[i]), mix,
                            6000, 1500),
                     kMatrixCh[i]);
        }
    }
}

// ------------------------------------- bank-count bit-invariance

TEST(ShardOrder, Pow2BankCountIsBitInvariant)
{
    // With pow2 banks the interleave re-labels the monolithic set
    // index without changing any lookup/victim decision, so the
    // entire SimResult is invariant in the bank count. Channels are
    // held fixed (channel count changes aggregate bandwidth).
    std::vector<WorkloadSpec> mix = stridedMix(4);
    SimResult want = runMix(shardedConfig(4, 1, 2), mix, 16000, 4000);
    for (unsigned banks : {2u, 4u, 8u}) {
        std::string ctx = "banks=" + std::to_string(banks);
        expectResultsIdentical(
            want, runMix(shardedConfig(4, banks, 2), mix, 16000, 4000),
            ctx.c_str());
    }
}

// ------------------------------------------- snapshot / resume

TEST(ShardOrder, SnapshotResumeOnShardedGeometry)
{
    // Snapshot-at-warmup on a sharded geometry, then a resume: the
    // straight run, the snapshotting run and the resume all land on
    // one pin.
    SystemConfig cfg = shardedConfig(4, 4, 2);
    std::vector<WorkloadSpec> mix = stridedMix(4);
    constexpr std::uint64_t kMeasured = 16000;
    constexpr std::uint64_t kWarm = 4000;

    checkPin("kFourCoreB4Ch2Resume",
             runMix(cfg, mix, kMeasured, kWarm), kFourCoreB4Ch2Resume);

    const std::string path = tmpPath("b4ch2");
    RunPlan snap_plan(kMeasured, kWarm);
    snap_plan.snapshotAfterWarmup = path;
    Simulator source(cfg, mix);
    checkPin("kFourCoreB4Ch2Resume(source)", source.run(snap_plan),
             kFourCoreB4Ch2Resume);

    Simulator resumed(cfg, mix, path);
    checkPin("kFourCoreB4Ch2Resume(resumed)",
             resumed.run({kMeasured, kWarm}), kFourCoreB4Ch2Resume);
    std::remove(path.c_str());
}

TEST(ShardOrder, GeometryMismatchRestoreIsNamedError)
{
    // Restoring a snapshot into a configuration with a different
    // shard geometry must fail with an error that names the
    // mismatched dimension, not a generic config-key complaint.
    SystemConfig cfg = shardedConfig(2, 2, 2);
    std::vector<WorkloadSpec> mix = stridedMix(2);

    const std::string path = tmpPath("geom_mismatch");
    RunPlan plan(4000, 1000);
    plan.snapshotAfterWarmup = path;
    Simulator source(cfg, mix);
    source.run(plan);

    SystemConfig wrong_banks = cfg;
    wrong_banks.llcBanks = 4;
    try {
        Simulator bad(wrong_banks, mix, path);
        FAIL() << "restore with wrong bank count did not throw";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "LLC bank count mismatch"),
                  std::string::npos)
            << e.what();
    }

    SystemConfig wrong_channels = cfg;
    wrong_channels.dramChannels = 4;
    try {
        Simulator bad(wrong_channels, mix, path);
        FAIL() << "restore with wrong channel count did not throw";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "DRAM channel count mismatch"),
                  std::string::npos)
            << e.what();
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace athena
