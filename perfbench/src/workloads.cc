#include "workloads.hh"

#include <algorithm>
#include <cmath>

#include "common/strings.hh"
#include "faults/scenarios.hh"
#include "net/topology.hh"

namespace perfbench {

using namespace charllm;

namespace {

// The variant bits pick environment knobs, which move the simulated
// thermal and network state but hardly the host cost: bits 0-1 the
// chassis preheat scale (airflow quality, Fig. 16), bit 2 the scale-out
// NIC bandwidth (Fig. 22's interconnect axis). resil_long uses preheat
// alone; see resilEntry.

const double kPreheat[] = {0.8, 0.93, 1.07, 1.2};

std::string
applyEnvironment(core::ExperimentConfig& cfg, unsigned v)
{
    double preheat = kPreheat[v & 3u];
    double nicScale = (v & 4u) ? 2.0 : 1.0;
    cfg.cluster.chassis.preheatScale = preheat;
    cfg.cluster.network.nicBw = cfg.cluster.network.nicBw * nicScale;
    return strprintf(" preheat%g nic%gx", preheat, nicScale);
}

// ---- des_thermal ----------------------------------------------------------
// 32-GPU H200 and MI250 layouts of paper Table 2 and Figs. 9/10/13/14,
// each with its own act / cc / microbatch-size setting.

struct ThermalSlot
{
    model::TransformerConfig (*model)();
    bool mi250;
    int tp, pp, ep;
    bool act, cc;
    int microbatch;
};

const ThermalSlot kThermal[] = {
    {model::gpt3_30b, false, 2, 16, 1, true, false, 1},
    {model::gpt3_30b, false, 4, 8, 1, false, false, 2},
    {model::gpt3_30b, false, 8, 4, 1, false, true, 1},
    {model::gpt3_30b, false, 1, 32, 1, false, false, 1},
    {model::llama3_30b, false, 8, 4, 1, false, true, 1},
    {model::llama3_30b, false, 2, 16, 1, true, false, 2},
    {model::mixtral_8x7b, false, 2, 4, 4, false, false, 1},
    {model::mixtral_8x7b, false, 4, 4, 2, true, true, 1},
    {model::mixtral_8x7b, false, 1, 4, 8, false, true, 2},
    {model::gpt3_30b, true, 4, 8, 1, false, true, 1},
    {model::llama3_30b, true, 4, 8, 1, false, false, 2},
    {model::mixtral_8x7b, true, 2, 4, 4, true, false, 1},
};

Entry
thermalEntry(int slot, unsigned v)
{
    const ThermalSlot& s = kThermal[slot];
    core::ExperimentConfig cfg;
    cfg.cluster = s.mi250 ? core::mi250Cluster(4) : core::h200Cluster(4);
    cfg.model = s.model();
    cfg.par = parallel::ParallelConfig::forWorld(32, s.tp, s.pp, s.ep);
    cfg.train.actRecompute = s.act;
    cfg.train.ccOverlap = s.cc;
    cfg.train.microbatchSize = s.microbatch;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 2;
    std::string env = applyEnvironment(cfg, v);
    return {cfg.label() + env, cfg};
}

// ---- des_collapsed --------------------------------------------------------
// GPT3-175B TP2-PP2 on one GPU per node (folds to 4 physical GPUs) at
// 25 logical worlds from 1k to 64k spaced by 2^(1/4), plus two rows of
// Fig. 22's TP8-PP4+act shape (folds to 32). The act / cc /
// microbatches-per-replica settings cycle over the worlds. Dense worlds
// give a smooth spread of experiment costs, which keeps the
// per-experiment median from jumping between two configs.

struct CollapsedSlot
{
    int world;
    bool fig22;
    bool act, cc;
    int microbatchesPerReplica;
};

constexpr int kCollapsedWorlds = 25;

std::vector<CollapsedSlot>
collapsedSlots()
{
    std::vector<CollapsedSlot> slots;
    for (int k = 0; k < kCollapsedWorlds; ++k) {
        int world =
            4 * static_cast<int>(std::lround(256.0 * std::exp2(k / 4.0)));
        slots.push_back({world, false, k % 2 == 1, (k / 2) % 2 == 1,
                         k % 3 == 2 ? 2 : 1});
    }
    slots.push_back({4096, true, true, false, 1});
    slots.push_back({16384, true, true, true, 2});
    return slots;
}

Entry
collapsedEntry(int slot, unsigned v)
{
    static const std::vector<CollapsedSlot> slots = collapsedSlots();
    const CollapsedSlot& s = slots[static_cast<std::size_t>(slot)];
    core::ExperimentConfig cfg;
    cfg.model = model::gpt3_175b();
    if (s.fig22) {
        cfg.cluster = core::h200Cluster(s.world / 8);
        cfg.par = parallel::ParallelConfig::forWorld(s.world, 8, 4);
    } else {
        cfg.cluster =
            core::oneGpuPerNodeCluster(core::h200Cluster(1), s.world);
        cfg.par = parallel::ParallelConfig::forWorld(s.world, 2, 2);
        // 175B over 4-way model parallelism does not fit HBM; the row
        // measures the fold, as bench_micro_engine's collapsed run does.
        cfg.checkMemory = false;
    }
    cfg.train.actRecompute = s.act;
    cfg.train.ccOverlap = s.cc;
    cfg.train.globalBatchSize = s.microbatchesPerReplica * cfg.par.dp;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 1;
    cfg.symmetryCollapse = true;
    std::string env = applyEnvironment(cfg, v);
    return {cfg.label() + strprintf(" gb%d", cfg.train.globalBatchSize) +
                env,
            cfg};
}

// ---- analytical_sweep -----------------------------------------------------
// GPT3-175B+act on H200 nodes, 32..4096 GPUs x TP{4,8} x PP{4,8,16},
// on the analytical backend.

struct Shape
{
    int world, tp, pp;
};

std::vector<Shape>
analyticalShapes()
{
    std::vector<Shape> shapes;
    for (int world = 32; world <= 4096; world *= 2)
        for (int tp : {4, 8})
            for (int pp : {4, 8, 16})
                if (tp * pp <= world)
                    shapes.push_back({world, tp, pp});
    return shapes;
}

Entry
analyticalEntry(int slot, unsigned v)
{
    static const std::vector<Shape> shapes = analyticalShapes();
    const Shape& s = shapes[static_cast<std::size_t>(slot)];
    core::ExperimentConfig cfg;
    cfg.cluster = core::h200Cluster(s.world / 8);
    cfg.model = model::gpt3_175b();
    cfg.par = parallel::ParallelConfig::forWorld(s.world, s.tp, s.pp);
    cfg.train.actRecompute = true;
    cfg.train.globalBatchSize = std::max(128, 2 * cfg.par.dp);
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 1;
    cfg.backend = sim::BackendKind::Analytical;
    std::string env = applyEnvironment(cfg, v);
    return {cfg.label() + strprintf(" gb%d", cfg.train.globalBatchSize) +
                env,
            cfg};
}

// ---- resil_long -----------------------------------------------------------
// One arm with a faults::scenarios degradation (straggler plus flapping
// link, placed by the variant) instead of resilience, then
// bench_ablation_elastic's MTBF x spare pool x {stall, warm, elastic}
// grid (Small-3B, H100 x4, TP8-PP1-DP4), sampler on. The faults arm
// comes first because it is the cheapest: the first config is the
// set-up's warm-up. Runs are 1 + 20 iterations, half the bench's 40:
// the hot stall cells grow several-fold faster than the iteration
// count, and the pass has to repeat within a run.

struct Arm
{
    const char* name;
    int pool;
    bool elastic;
};

const double kMtbfs[] = {60.0, 180.0, 600.0};
// As in the bench, every cell of an MTBF row meets the same failure
// schedule. Seed 11 is a cheap one of seeds 1-30 whose schedule puts
// failures inside every cell's run (seed 1, the bench's default,
// leaves the MTBF 180 and 600 rows failure-free at 20 iterations).
constexpr std::uint64_t kFailureSeed = 11;
const Arm kArms[] = {{"stall", 0, false},
                     {"warm", 1, false},
                     {"warm", 3, false},
                     {"elastic", 1, true},
                     {"elastic", 3, true}};
constexpr int kResilCells =
    static_cast<int>(std::size(kMtbfs) * std::size(kArms));

model::TransformerConfig
small3b()
{
    model::TransformerConfig c;
    c.name = "Small-3B";
    c.numLayers = 16;
    c.hiddenSize = 2560;
    c.numHeads = 20;
    c.numQueryGroups = 20;
    c.ffnHiddenSize = 4 * 2560;
    c.vocabSize = 32000;
    c.seqLength = 1024;
    return c;
}

Entry
resilEntry(int slot, unsigned v)
{
    core::ExperimentConfig cfg;
    cfg.cluster = core::h100Cluster(4);
    cfg.model = small3b();
    cfg.par = parallel::ParallelConfig::forWorld(32, 8, 1);
    cfg.train.globalBatchSize = 16;
    cfg.warmupIterations = 1;
    cfg.measuredIterations = 20;
    cfg.enableSampler = true;
    cfg.samplePeriodSec = 0.02;
    std::string key = cfg.label();
    if (slot > 0) {
        std::size_t cell = static_cast<std::size_t>(slot - 1);
        double mtbf = kMtbfs[cell / std::size(kArms)];
        const Arm& arm = kArms[cell % std::size(kArms)];
        auto& rs = cfg.resilience;
        rs.enabled = true;
        rs.seed = kFailureSeed;
        rs.horizonSec = 40000.0;
        rs.mtbf.gpuMtbfSec = mtbf;
        rs.mtbf.linkMtbfSec = 4.0 * mtbf;
        rs.mtbf.nodeMtbfSec = 0.0;
        rs.mtbf.switchMtbfSec = 20.0 * mtbf;
        rs.mtbf.nodesPerSwitch = 1;
        rs.checkpoint.intervalSec = 4.0;
        rs.recovery.spares.capacity = arm.pool;
        rs.recovery.spares.replenishMean = Seconds(45.0);
        rs.recovery.dryPolicy = arm.elastic
                                    ? resil::DryPoolPolicy::ElasticShrink
                                    : resil::DryPoolPolicy::StallReboot;
        key += strprintf(" mtbf%g %s pool%d", mtbf, arm.name, arm.pool);
    } else {
        int gpu = static_cast<int>(4 * v + 1);
        int node = static_cast<int>(v % 4);
        net::Topology topo(cfg.cluster.network);
        auto sc = faults::scenarios::straggler(gpu, 0.6);
        auto flap = faults::scenarios::flappingLink(
            topo.nicOutLink(node), 0.25, Seconds(0.5), Seconds(30.0));
        sc.faults.insert(sc.faults.end(), flap.faults.begin(),
                         flap.faults.end());
        sc.name = "straggler+flap";
        cfg.faultScenario = sc;
        key += strprintf(" straggler gpu%d flap node%d", gpu, node);
    }
    // Preheat only, in eight steps: these GPUs never reach the
    // throttle point, so the knob leaves every simulated time, and with
    // it the interplay of failures and checkpoints, untouched. (A NIC
    // change would shift iterations against the failure schedule and
    // swing a run's length several-fold.)
    double preheat = 0.8 + 0.05 * v;
    cfg.cluster.chassis.preheatScale = preheat;
    return {key + strprintf(" preheat%g", preheat), cfg};
}

/** splitmix64: a small, fully specified generator, so a seed draws
 *  the same configs with any standard library. */
struct Rng
{
    std::uint64_t state;
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::size_t below(std::size_t n) { return next() % n; }
};

std::uint64_t
nameHash(const std::string& s)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (unsigned char c : s)
        h = (h ^ c) * 1099511628211ULL;
    return h;
}

} // namespace

const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"des_thermal", 0, 5, true, static_cast<int>(std::size(kThermal))},
        {"des_collapsed", 0, 23, false, kCollapsedWorlds + 2},
        {"analytical_sweep", 2, 5, false,
         static_cast<int>(analyticalShapes().size())},
        {"resil_long", 0, 4, false, kResilCells + 1},
    };
    return all;
}

const Workload*
findWorkload(const std::string& name)
{
    for (const Workload& w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

Entry
makeEntry(const Workload& w, int slot, unsigned variant)
{
    if (w.name == "des_thermal")
        return thermalEntry(slot, variant);
    if (w.name == "des_collapsed")
        return collapsedEntry(slot, variant);
    if (w.name == "analytical_sweep")
        return analyticalEntry(slot, variant);
    return resilEntry(slot, variant);
}

std::vector<Entry>
space(const Workload& w)
{
    std::vector<Entry> all;
    for (int s = 0; s < w.slots; ++s)
        for (unsigned v = 0; v < (1u << kVariantBits); ++v)
            all.push_back(makeEntry(w, s, v));
    return all;
}

std::vector<Entry>
draw(const Workload& w, std::uint64_t seed)
{
    Rng rng{seed ^ nameHash(w.name)};
    std::vector<unsigned> variant(static_cast<std::size_t>(w.slots), 0);
    std::vector<int> order(static_cast<std::size_t>(w.slots));
    for (int b = 0; b < kVariantBits; ++b) {
        for (int s = 0; s < w.slots; ++s)
            order[static_cast<std::size_t>(s)] = s;
        for (std::size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1], order[rng.below(i)]);
        // An odd slot count gives the extra slot to a seeded side.
        std::size_t on = order.size() / 2 + (order.size() % 2) * rng.below(2);
        for (std::size_t i = 0; i < on; ++i)
            variant[static_cast<std::size_t>(order[i])] |= 1u << b;
    }
    std::vector<Entry> drawn;
    drawn.reserve(variant.size());
    for (int s = 0; s < w.slots; ++s)
        drawn.push_back(
            makeEntry(w, s, variant[static_cast<std::size_t>(s)]));
    return drawn;
}

core::ExperimentConfig
referenceConfig(const Entry& e)
{
    core::ExperimentConfig cfg = e.cfg;
    if (cfg.backend != sim::BackendKind::Des) {
        cfg.backend = sim::BackendKind::Des;
        cfg.symmetryCollapse = true;
    }
    return cfg;
}

} // namespace perfbench
