/**
 * @file
 * The benchmark's workloads: each is a fixed config space, and a seed
 * draws one config set from it.
 *
 * A space is a list of slots (model, cluster, layout and its training
 * options) crossed with 2^kVariantBits environment variants per slot
 * (chassis preheat and NIC bandwidth). A draw takes one variant per
 * slot and sets each bit in a seeded random half of the slots, so every
 * seed runs the same shapes with the knobs spread evenly: different
 * seeds give different config sets whose host cost stays close, which
 * keeps the figures steady from seed to seed.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace perfbench {

/** One experiment of a workload; @c key names its reference row. */
struct Entry
{
    std::string key;
    charllm::core::ExperimentConfig cfg;
};

struct Workload
{
    std::string name;
    /** SweepRunner workers for the timed pass; 0 runs the configs
     *  serially through sim::makeBackend on the calling thread. */
    int sweepThreads = 0;
    /** Fewest timed passes in a run, so the tail percentile always
     *  has at least ten experiments beyond it. */
    int minPasses = 1;
    /** Rerun the first drawn config with critical-path tracing in
     *  every pass (its outputs must stay identical). */
    bool critPathPair = false;
    int slots = 0;
};

/** Environment variants per slot: 2^kVariantBits. */
constexpr int kVariantBits = 3;

/** Every workload, in a fixed order. */
const std::vector<Workload>& workloads();

/** nullptr when @p name is not a workload. */
const Workload* findWorkload(const std::string& name);

/** Seed used when --seed is absent. The hold-out seed is 2; the
 *  committed reference covers every seed's draw. */
constexpr std::uint64_t kDefaultSeed = 1;

/** The config of @p slot in @p variant. */
Entry makeEntry(const Workload& w, int slot, unsigned variant);

/** The whole space, one entry per (slot, variant), for the reference. */
std::vector<Entry> space(const Workload& w);

/** The config set @p seed draws, one entry per slot. */
std::vector<Entry> draw(const Workload& w, std::uint64_t seed);

/**
 * The config whose DES output is the reference for @p e: the config
 * itself on the DES backend, with symmetry collapse requested where
 * the workload folds (analytical_sweep's reference is DES on the same
 * configs, collapsed where symmetric).
 */
charllm::core::ExperimentConfig referenceConfig(const Entry& e);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
