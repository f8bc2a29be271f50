/**
 * @file
 * Workload inputs generated from the seed. The seed picks each
 * workload's zoo members and their order and salts every chosen
 * WorkloadSpec::seed; the simulator only ever sees the resulting
 * specs. All members come from evalWorkloads(), which is disjoint
 * from the tuningWorkloads() design-space-exploration set.
 *
 * Members are drawn per archetype with fixed quotas, so every seed
 * yields the same kind of mix and host-time figures stay comparable
 * across seeds.
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hh"
#include "trace/zoo.hh"

namespace perfbench
{

using namespace athena;

namespace
{

/** splitmix64: the benchmark's own generator, so the drawn inputs do
 *  not change when the simulator's RNG does. */
std::uint64_t
splitmix(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Zoo archetypes, recovered from a spec's phase program. */
enum Arch : unsigned
{
    kStreamA,
    kStrideA,
    kChaseA,
    kIrregularA,
    kGraphA,
    kComputeA,
    kRegionA,
    kPhasedA,
    kNumArch,
};

Arch
archOf(const WorkloadSpec &s)
{
    if (s.phases.size() != 1)
        return kPhasedA;
    switch (s.phases[0].pattern) {
      case Pattern::kStream: return kStreamA;
      case Pattern::kStride: return kStrideA;
      case Pattern::kChase: return kChaseA;
      case Pattern::kIrregular: return kIrregularA;
      case Pattern::kGraph: return kGraphA;
      case Pattern::kCompute: return kComputeA;
      case Pattern::kRegionSpatial: return kRegionA;
    }
    return kPhasedA;
}

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T> &v, std::uint64_t &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[splitmix(rng) % i]);
}

/** Draw @p quota[a] members of each archetype a, then shuffle the
 *  union into run order and salt every member's seed. */
std::vector<WorkloadSpec>
draw(const std::vector<WorkloadSpec> &zoo,
     const std::array<unsigned, kNumArch> &quota, std::uint64_t seed)
{
    std::array<std::vector<WorkloadSpec>, kNumArch> pools;
    for (const WorkloadSpec &s : zoo)
        pools[archOf(s)].push_back(s);

    std::uint64_t rng = seed;
    std::vector<WorkloadSpec> out;
    for (unsigned a = 0; a < kNumArch; ++a) {
        if (quota[a] > pools[a].size())
            throw std::logic_error("archetype quota exceeds the zoo");
        shuffle(pools[a], rng);
        out.insert(out.end(), pools[a].begin(),
                   pools[a].begin() + quota[a]);
    }
    shuffle(out, rng);
    for (WorkloadSpec &s : out) {
        std::uint64_t salt = seed ^ s.seed;
        s.seed = splitmix(salt) | 1;
    }
    return out;
}

/** Quotas proportional to the zoo's archetype mix (largest
 *  remainder), for a stratified sample of @p n members. */
std::array<unsigned, kNumArch>
proportionalQuota(const std::vector<WorkloadSpec> &zoo, unsigned n)
{
    std::array<unsigned, kNumArch> count{};
    for (const WorkloadSpec &s : zoo)
        ++count[archOf(s)];
    std::array<unsigned, kNumArch> quota{};
    std::array<std::pair<std::size_t, unsigned>, kNumArch> rem{};
    unsigned given = 0;
    for (unsigned a = 0; a < kNumArch; ++a) {
        const std::size_t scaled = std::size_t{count[a]} * n;
        quota[a] = static_cast<unsigned>(scaled / zoo.size());
        rem[a] = {scaled % zoo.size(), a};
        given += quota[a];
    }
    std::sort(rem.begin(), rem.end(), [](const auto &x, const auto &y) {
        return x.first != y.first ? x.first > y.first
                                  : x.second < y.second;
    });
    for (unsigned i = 0; given < n; ++i, ++given)
        ++quota[rem[i].second];
    return quota;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "athena_1c", "shared_4c", "fig_sweep"};
    return names;
}

Plan
makePlan(const std::string &workload, std::uint64_t seed)
{
    Plan p;
    // Mix the workload name in, so the three workloads draw
    // independently from one seed.
    std::uint64_t wseed = seed;
    for (char c : workload)
        wseed = (wseed ^ static_cast<unsigned char>(c)) *
                1099511628211ull;
    const std::vector<WorkloadSpec> zoo = evalWorkloads();

    if (workload == "athena_1c") {
        // The learning stack on one core: IPCP@L1D + Pythia@L2C +
        // POPET coordinated by Athena every 500 instructions.
        std::array<unsigned, kNumArch> quota{};
        quota[kChaseA] = 2;
        quota[kStreamA] = 2;
        p.specs = draw(zoo, quota, wseed);
        p.config = makeDesignConfig(CacheDesign::kCd4,
                                    PolicyKind::kAthena);
        p.config.epochInstructions = 500;
        p.warmup = 1000000;
        p.measured = 1500000;
        p.threads = 1;
        for (const WorkloadSpec &s : p.specs)
            p.simGroups.push_back({s});
        p.layerSpecs = p.specs;
        p.layerRecordsPerSpec = 250000;
    } else if (workload == "shared_4c") {
        // The shared LLC/DRAM plane under bandwidth pressure: one
        // 4-core SMS+Pythia+POPET system at 1.6 GB/s, everything
        // always on.
        std::array<unsigned, kNumArch> quota{};
        quota[kStreamA] = 1;
        quota[kStrideA] = 1;
        quota[kChaseA] = 1;
        quota[kIrregularA] = 1;
        p.specs = draw(zoo, quota, wseed);
        p.config = makeDesignConfig(CacheDesign::kCd3,
                                    PolicyKind::kNaive);
        p.config.cores = 4;
        p.config.bandwidthGBps = 1.6;
        p.warmup = 500000;
        p.measured = 1500000;
        p.threads = p.config.cores;
        p.simGroups.push_back(p.specs);
        p.layerSpecs = p.specs;
        p.layerRecordsPerSpec = 250000;
    } else if (workload == "fig_sweep") {
        // A reduced Fig. 7: classification, Naive and Athena CD1
        // against the cached no-speculation baseline, on a
        // stratified quarter of the eval zoo.
        p.specs = draw(zoo, proportionalQuota(zoo, 25), wseed);
        p.sweep = true;
        p.classify = makeDesignConfig(CacheDesign::kCd1,
                                      PolicyKind::kPfOnly);
        p.naive = makeDesignConfig(CacheDesign::kCd1,
                                   PolicyKind::kNaive);
        p.config = makeDesignConfig(CacheDesign::kCd1,
                                    PolicyKind::kAthena);
        p.warmup = 150000;
        p.measured = 450000;
        p.threads = std::max(1u, std::thread::hardware_concurrency());
        p.layerSpecs.assign(p.specs.begin(), p.specs.begin() + 8);
        p.layerRecordsPerSpec = 125000;
    } else {
        throw std::invalid_argument("unknown workload: " + workload);
    }
    return p;
}

} // namespace perfbench
