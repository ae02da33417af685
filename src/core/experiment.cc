#include "core/experiment.hh"

#include <algorithm>

#include "sim/backend.hh"

namespace charllm {
namespace core {

std::string
ExperimentConfig::label() const
{
    std::string s = model.name + " " + cluster.name + " " + par.label();
    if (train.actRecompute)
        s += "+act";
    if (train.ccOverlap)
        s += "+cc";
    if (train.inference)
        s += " (inference)";
    if (train.microbatchSize != 1)
        s += " mb" + std::to_string(train.microbatchSize);
    return s;
}

parallel::MemoryOptions
memoryOptionsFor(const ExperimentConfig& cfg)
{
    int per_replica = cfg.train.globalBatchSize / cfg.par.dp;
    int microbatches = std::max(1, per_replica / cfg.train.microbatchSize);
    parallel::MemoryOptions mo;
    mo.microbatchSize = cfg.train.microbatchSize;
    mo.microbatchesInFlight = std::min(microbatches, cfg.par.pp);
    mo.actRecompute = cfg.train.actRecompute;
    mo.zero1 = cfg.train.zero1 && !cfg.model.isMoe();
    mo.inference = cfg.train.inference;
    return mo;
}

bool
Experiment::fits(const ExperimentConfig& config)
{
    config.par.validate();
    parallel::MemoryPlanner planner(config.model, config.par);
    return planner.fits(config.cluster.gpu.memoryBytes,
                        memoryOptionsFor(config));
}

void
GpuResultFold::add(const GpuResult& g)
{
    result.totalEnergyJ += g.energyJ;
    result.meanBreakdown.merge(g.breakdown);
    result.peakPowerW = std::max(result.peakPowerW, g.peakPowerW);
    result.peakTempC = std::max(result.peakTempC, g.peakTempC);
    power.add(g.avgPowerW);
    temp.add(g.avgTempC);
    clock.add(g.avgClockGhz);
    throttle.add(g.throttleRatio);
    result.gpus.push_back(g);
}

void
GpuResultFold::finish(double measured_iterations)
{
    for (double& s : result.meanBreakdown.seconds)
        s /= static_cast<double>(power.count());
    result.avgPowerW = power.mean();
    result.avgTempC = temp.mean();
    result.avgClockGhz = clock.mean();
    result.throttleRatio = throttle.mean();

    double tokens_measured = result.tokensPerIteration * measured_iterations;
    result.energyPerTokenJ = result.totalEnergyJ / tokens_measured;
    result.tokensPerJoule = tokens_measured / result.totalEnergyJ;
}

ExperimentResult
Experiment::run(const ExperimentConfig& config)
{
    std::unique_ptr<sim::Backend> backend =
        sim::makeBackend(config.backend);
    backend->lower(config);
    backend->execute();
    return backend->results();
}

} // namespace core
} // namespace charllm
