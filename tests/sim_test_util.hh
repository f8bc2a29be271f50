/**
 * @file
 * Shared fixtures for the whole-simulator suites: workload mixes,
 * exact SimResult comparison, and the golden-pin digest.
 */

#ifndef ATHENA_TESTS_SIM_TEST_UTIL_HH
#define ATHENA_TESTS_SIM_TEST_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hh"
#include "sim/system_config.hh"
#include "trace/workload.hh"
#include "trace/zoo.hh"

namespace athena
{
namespace testutil
{

inline std::string
dataPath(const std::string &name)
{
    return std::string(ATHENA_TEST_DATA_DIR) + "/" + name;
}

/** The first zoo workload whose name contains @p substr. */
inline WorkloadSpec
pickWorkload(const char *substr)
{
    auto workloads = evalWorkloads();
    for (const WorkloadSpec &w : workloads) {
        if (w.name.find(substr) != std::string::npos)
            return w;
    }
    return workloads.front();
}

/** An n-core mix striding across the synthetic workload zoo. */
inline std::vector<WorkloadSpec>
stridedMix(unsigned n)
{
    auto workloads = evalWorkloads();
    std::vector<WorkloadSpec> mix;
    for (unsigned i = 0; i < n; ++i)
        mix.push_back(workloads[(i * workloads.size()) / n]);
    return mix;
}

/** One straight-through run of @p specs on @p cfg. */
inline SimResult
runMix(const SystemConfig &cfg, const std::vector<WorkloadSpec> &specs,
       std::uint64_t measured, std::uint64_t warmup)
{
    Simulator sim(cfg, specs);
    return sim.run({measured, warmup});
}

inline void
expectSlotEqual(const PrefetcherSlotStats &a,
                const PrefetcherSlotStats &b, const char *ctx,
                unsigned core, unsigned slot)
{
    EXPECT_EQ(a.issued, b.issued)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.used, b.used) << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.usedTimely, b.usedTimely)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.uselessEvictions, b.uselessEvictions)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.fillsFromDram, b.fillsFromDram)
        << ctx << " c" << core << " pf" << slot;
    EXPECT_EQ(a.fillsFromDramUnused, b.fillsFromDramUnused)
        << ctx << " c" << core << " pf" << slot;
}

/** Full-SimResult equality: every counter, every core, exact. */
inline void
expectResultsIdentical(const SimResult &a, const SimResult &b,
                       const char *ctx)
{
    ASSERT_EQ(a.cores.size(), b.cores.size()) << ctx;
    for (unsigned c = 0; c < a.cores.size(); ++c) {
        const SimResult::PerCore &x = a.cores[c];
        const SimResult::PerCore &y = b.cores[c];
        EXPECT_EQ(x.workload, y.workload) << ctx << " c" << c;
        EXPECT_EQ(x.instructions, y.instructions) << ctx << " c" << c;
        EXPECT_EQ(x.cycles, y.cycles) << ctx << " c" << c;
        EXPECT_EQ(x.completedInstructions, y.completedInstructions)
            << ctx << " c" << c;
        EXPECT_EQ(x.streamExhausted, y.streamExhausted)
            << ctx << " c" << c;
        EXPECT_EQ(x.ipc, y.ipc) << ctx << " c" << c;
        EXPECT_EQ(x.loads, y.loads) << ctx << " c" << c;
        EXPECT_EQ(x.stores, y.stores) << ctx << " c" << c;
        EXPECT_EQ(x.branchMispredicts, y.branchMispredicts)
            << ctx << " c" << c;
        EXPECT_EQ(x.llcMisses, y.llcMisses) << ctx << " c" << c;
        EXPECT_EQ(x.llcMissLatency, y.llcMissLatency)
            << ctx << " c" << c;
        for (unsigned s = 0; s < x.pf.size(); ++s)
            expectSlotEqual(x.pf[s], y.pf[s], ctx, c, s);
        EXPECT_EQ(x.ocpPredictions, y.ocpPredictions)
            << ctx << " c" << c;
        EXPECT_EQ(x.ocpCorrect, y.ocpCorrect) << ctx << " c" << c;
        EXPECT_EQ(x.actionHistogram, y.actionHistogram)
            << ctx << " c" << c;
    }
    EXPECT_EQ(a.dram.demandRequests, b.dram.demandRequests) << ctx;
    EXPECT_EQ(a.dram.prefetchRequests, b.dram.prefetchRequests) << ctx;
    EXPECT_EQ(a.dram.ocpRequests, b.dram.ocpRequests) << ctx;
    EXPECT_EQ(a.dram.rowHits, b.dram.rowHits) << ctx;
    EXPECT_EQ(a.dram.rowMisses, b.dram.rowMisses) << ctx;
    EXPECT_EQ(a.dram.busBusyCycles, b.dram.busBusyCycles) << ctx;
    EXPECT_EQ(a.busUtilization, b.busUtilization) << ctx;
}

/**
 * FNV-1a over every SimResult field, in declaration order; doubles
 * by bit pattern. One 64-bit value pins a whole multi-core result.
 */
inline std::uint64_t
resultDigest(const SimResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto u64 = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    auto f64 = [&u64](double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    };
    u64(r.cores.size());
    for (const SimResult::PerCore &c : r.cores) {
        u64(c.workload.size());
        for (char ch : c.workload)
            u64(static_cast<unsigned char>(ch));
        f64(c.ipc);
        u64(c.instructions);
        u64(c.cycles);
        u64(c.completedInstructions);
        u64(c.streamExhausted ? 1 : 0);
        u64(c.loads);
        u64(c.stores);
        u64(c.branchMispredicts);
        u64(c.llcMisses);
        u64(c.llcMissLatency);
        for (const PrefetcherSlotStats &s : c.pf) {
            u64(s.issued);
            u64(s.used);
            u64(s.usedTimely);
            u64(s.uselessEvictions);
            u64(s.fillsFromDram);
            u64(s.fillsFromDramUnused);
        }
        u64(c.ocpPredictions);
        u64(c.ocpCorrect);
        for (std::uint64_t a : c.actionHistogram)
            u64(a);
    }
    u64(r.dram.demandRequests);
    u64(r.dram.prefetchRequests);
    u64(r.dram.ocpRequests);
    u64(r.dram.rowHits);
    u64(r.dram.rowMisses);
    u64(r.dram.busBusyCycles);
    f64(r.busUtilization);
    return h;
}

/**
 * A multi-core golden pin: the whole-result digest plus a few
 * aggregate counters, so a drift also says roughly where it is.
 */
struct ResultPin
{
    std::uint64_t digest;
    std::uint64_t cycles;     ///< Measured cycles, summed over cores.
    std::uint64_t llcMisses;  ///< Summed over cores.
    std::uint64_t dramDemand;
    std::uint64_t dramPrefetch;
    std::uint64_t dramOcp;
};

inline ResultPin
pinOf(const SimResult &r)
{
    ResultPin p{resultDigest(r), 0, 0, r.dram.demandRequests,
                r.dram.prefetchRequests, r.dram.ocpRequests};
    for (const SimResult::PerCore &c : r.cores) {
        p.cycles += c.cycles;
        p.llcMisses += c.llcMisses;
    }
    return p;
}

/** ATHENA_GOLDEN_PRINT=1: print pins instead of checking them. */
inline bool
goldenPrintMode()
{
    const char *v = std::getenv("ATHENA_GOLDEN_PRINT");
    return v && *v && *v != '0';
}

/**
 * Check @p got against the pin @p want, or (print mode) print it in
 * initializer form for pasting over a deliberately changed pin.
 */
inline void
checkPin(const char *name, const SimResult &got, const ResultPin &want)
{
    const ResultPin p = pinOf(got);
    if (goldenPrintMode()) {
        std::printf("    // %s\n    {0x%016llxull, %lluu, %lluu, "
                    "%lluu, %lluu, %lluu},\n",
                    name, static_cast<unsigned long long>(p.digest),
                    static_cast<unsigned long long>(p.cycles),
                    static_cast<unsigned long long>(p.llcMisses),
                    static_cast<unsigned long long>(p.dramDemand),
                    static_cast<unsigned long long>(p.dramPrefetch),
                    static_cast<unsigned long long>(p.dramOcp));
        return;
    }
    EXPECT_EQ(p.cycles, want.cycles) << name;
    EXPECT_EQ(p.llcMisses, want.llcMisses) << name;
    EXPECT_EQ(p.dramDemand, want.dramDemand) << name;
    EXPECT_EQ(p.dramPrefetch, want.dramPrefetch) << name;
    EXPECT_EQ(p.dramOcp, want.dramOcp) << name;
    EXPECT_EQ(p.digest, want.digest)
        << name << ": SimResult digest drifted";
}

} // namespace testutil
} // namespace athena

#endif // ATHENA_TESTS_SIM_TEST_UTIL_HH
