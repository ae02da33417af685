#include "layers.hh"

#include <cstdio>
#include <cstdlib>
#include <new>

#include "hw/calibration.hh"
#include "hw/platform.hh"
#include "parallel/rank_mapper.hh"
#include "resil/failure_gen.hh"
#include "runtime/program_builder.hh"
#include "scale/symmetry.hh"
#include "sim/simulator.hh"

// ---- counting operator new -------------------------------------------------
// Replaces the global allocation functions of the benchmark binary. The
// counters are per thread and only advance between startAllocCounting
// and stopAllocCounting, so the timed run pays one thread-local load per
// allocation.

namespace {

thread_local bool tCounting = false;
thread_local std::uint64_t tCount = 0;
thread_local std::uint64_t tBytes = 0;

void*
countedAlloc(std::size_t n)
{
    if (tCounting) {
        ++tCount;
        tBytes += n;
    }
    return std::malloc(n != 0 ? n : 1);
}

void*
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    if (tCounting) {
        ++tCount;
        tBytes += n;
    }
    std::size_t a = static_cast<std::size_t>(al);
    void* p = nullptr;
    if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                       n != 0 ? n : 1) != 0)
        return nullptr;
    return p;
}

} // namespace

void*
operator new(std::size_t n)
{
    if (void* p = countedAlloc(n))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n)
{
    return operator new(n);
}

void*
operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return countedAlloc(n);
}

void*
operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return countedAlloc(n);
}

void*
operator new(std::size_t n, std::align_val_t al)
{
    if (void* p = countedAlignedAlloc(n, al))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t n, std::align_val_t al)
{
    return operator new(n, al);
}

void*
operator new(std::size_t n, std::align_val_t al,
             const std::nothrow_t&) noexcept
{
    return countedAlignedAlloc(n, al);
}

void*
operator new[](std::size_t n, std::align_val_t al,
               const std::nothrow_t&) noexcept
{
    return countedAlignedAlloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace perfbench {

using namespace charllm;

void
startAllocCounting()
{
    tCount = 0;
    tBytes = 0;
    tCounting = true;
}

AllocCounts
stopAllocCounting()
{
    tCounting = false;
    return {tCount, tBytes};
}

// ---- spans -----------------------------------------------------------------

int
Tracer::begin(const char* name, int experiment)
{
    double now =
        std::chrono::duration<double, std::micro>(Clock::now() - origin)
            .count();
    int parent = open.empty() ? -1 : open.back();
    spans.push_back({name, parent, experiment, now, now});
    int id = static_cast<int>(spans.size()) - 1;
    open.push_back(id);
    return id;
}

double
Tracer::end(int id)
{
    Span& s = spans[static_cast<std::size_t>(id)];
    s.endUs = std::chrono::duration<double, std::micro>(Clock::now() - origin)
                  .count();
    if (!open.empty() && open.back() == id)
        open.pop_back();
    return (s.endUs - s.startUs) * 1e-6;
}

bool
Tracer::write(const std::string& path) const
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%d,\"experiment\":%d}}",
                     i == 0 ? "" : ",", s.name, s.startUs,
                     s.endUs - s.startUs, i, s.parent, s.experiment);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

// ---- probes ------------------------------------------------------------------

namespace {

/** Results of probed calls land here so they are not optimized away. */
volatile std::size_t gSink = 0;

/** The flattening DesBackend applies before SymmetryAnalyzer. */
scale::SymmetryAnalyzer::Input
symmetryInput(const core::ExperimentConfig& cfg)
{
    scale::SymmetryAnalyzer::Input in;
    in.tp = cfg.par.tp;
    in.dp = cfg.par.dp;
    in.pp = cfg.par.pp;
    in.ep = cfg.par.ep;
    in.gpusPerNode = cfg.cluster.network.gpusPerNode;
    in.moe = cfg.model.isMoe();
    in.faults = !cfg.faultScenario.empty();
    in.resilience = cfg.resilience.enabled;
    in.elastic = cfg.resilience.enabled &&
                 cfg.resilience.recovery.dryPolicy ==
                     resil::DryPoolPolicy::ElasticShrink;
    in.powerCaps = !cfg.nodePowerCaps.empty();
    in.devicePermutation = !cfg.devicePermutation.empty();
    in.requested = cfg.symmetryCollapse &&
                   cfg.backend == sim::BackendKind::Des;
    return in;
}

} // namespace

double
probeTick(const core::ExperimentConfig& cfg, int ticks)
{
    scale::SymmetryFold fold;
    bool collapsed =
        scale::SymmetryAnalyzer::analyze(symmetryInput(cfg), &fold)
            .collapsed;
    sim::Simulator simulator;
    hw::Platform platform(simulator, cfg.cluster.gpu, cfg.cluster.chassis,
                          collapsed ? fold.physNodes()
                                    : cfg.cluster.numNodes);
    // Driven by its own periodic event, so simulated time advances
    // between ticks as it does in a run; the governor ticker only
    // re-arms while other work is pending, hence the end marker. (The
    // marker captures something: an empty lambda trips GCC's
    // -Wmaybe-uninitialized on EventFn's inline storage.)
    platform.start();
    simulator.schedule(
        sim::toTicks((ticks + 0.5) * hw::calib::kGovernorPeriodSec),
        [&platform] { (void)platform; });
    Clock::time_point t0 = Clock::now();
    simulator.run();
    return secondsSince(t0);
}

double
probeBuild(const core::ExperimentConfig& cfg, std::uint64_t* ops)
{
    scale::SymmetryFold fold;
    bool collapsed =
        scale::SymmetryAnalyzer::analyze(symmetryInput(cfg), &fold)
            .collapsed;
    // The backends' lowering: ZeRO-1 off for MoE models, and the
    // device permutation, if any, on the rank mapper.
    runtime::TrainOptions train = cfg.train;
    if (cfg.model.isMoe())
        train.zero1 = false;
    parallel::RankMapper mapper(cfg.par);
    if (!cfg.devicePermutation.empty())
        mapper.setDevicePermutation(cfg.devicePermutation);
    runtime::ProgramBuilder builder(cfg.model, mapper, train);
    if (collapsed)
        builder.setFold(&fold);
    Clock::time_point t0 = Clock::now();
    runtime::Program program = builder.build(0);
    double s = secondsSince(t0);
    *ops += program.numOps();
    return s;
}

double
probeGenerate(const core::ExperimentConfig& cfg)
{
    resil::MtbfProfile profile = cfg.resilience.mtbf;
    if (!cfg.resilience.enabled) {
        // A fleet of 10k-hour GPUs, 5k-hour NICs and nodes.
        profile.gpuMtbfSec = 3.6e7;
        profile.linkMtbfSec = 1.8e7;
        profile.nodeMtbfSec = 1.8e7;
    }
    Clock::time_point t0 = Clock::now();
    auto schedule = resil::FailureGenerator::generate(
        profile, cfg.cluster.numGpus(), cfg.cluster.numNodes,
        Seconds(cfg.resilience.horizonSec), cfg.resilience.seed);
    double s = secondsSince(t0);
    gSink = schedule.size();
    return s;
}

double
probeAnalyze(const core::ExperimentConfig& cfg, int calls)
{
    scale::SymmetryAnalyzer::Input in = symmetryInput(cfg);
    std::size_t collapsed = 0;
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < calls; ++i) {
        gSink = collapsed; // the next call cannot be hoisted past a store
        collapsed += scale::SymmetryAnalyzer::analyze(in, nullptr).collapsed;
    }
    double s = secondsSince(t0);
    gSink = collapsed;
    return s;
}

} // namespace perfbench
