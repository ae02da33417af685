#include "faults/fault_injector.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace charllm {
namespace faults {

namespace {

/** Maximum ECC retry attempts before the stall resolves. */
constexpr int kMaxEccRetries = 6;

/** Probability that an ECC stall needs one more (doubled) retry. */
constexpr double kEccRetryProb = 0.35;

/** Open-ended interval sentinel in FaultRecord::endSec. */
constexpr double kOpenEnded = -1.0;

} // namespace

FaultInjector::FaultInjector(sim::Simulator& simulator,
                             hw::Platform& platform,
                             net::FlowNetwork& netw)
    : sim(simulator), plat(platform), network(netw),
      activeByGpu(static_cast<std::size_t>(platform.numGpus()))
{
}

void
FaultInjector::attachEngine(runtime::TrainingEngine& eng)
{
    engine = &eng;
}

void
FaultInjector::record(FaultKind kind, int target, double start_s,
                      double end_s, double magnitude)
{
    records.push_back(FaultRecord{kind, target, start_s, end_s,
                                  magnitude});
}

void
FaultInjector::trackInterval(int gpu, FaultKind kind, double start_s,
                             double end_s)
{
    if (gpu < 0 || gpu >= plat.numGpus())
        return;
    auto& marks = activeByGpu[static_cast<std::size_t>(gpu)];
    std::size_t slot = marks.size();
    for (std::size_t i = 0; i < marks.size(); ++i) {
        if (marks[i].kind == kind) {
            slot = i;
            break;
        }
    }
    if (slot == marks.size())
        marks.push_back(ActiveMark{kind, 0});
    sim.scheduleAt(sim::toTicks(start_s), [this, gpu, slot] {
        ++activeByGpu[static_cast<std::size_t>(gpu)][slot].count;
    });
    if (end_s > start_s) {
        sim.scheduleAt(sim::toTicks(end_s), [this, gpu, slot] {
            --activeByGpu[static_cast<std::size_t>(gpu)][slot].count;
        });
    }
}

void
FaultInjector::overlayOnTrace(telemetry::KernelTrace& trace) const
{
    for (const auto& r : records) {
        int dev = r.target;
        if (r.kind == FaultKind::LinkDerate ||
            r.kind == FaultKind::LinkFlap) {
            dev = network.topology().link(r.target).ownerGpu;
        }
        trace.recordFault(dev, faultKindName(r.kind), r.startSec,
                          r.endSec >= r.startSec
                              ? r.endSec - r.startSec
                              : -1.0);
    }
}

const char*
FaultInjector::activeGpuFault(int gpu) const
{
    CHARLLM_ASSERT(gpu >= 0 && static_cast<std::size_t>(gpu) <
                                   activeByGpu.size(),
                   "gpu id ", gpu, " out of range");
    for (const auto& mark : activeByGpu[static_cast<std::size_t>(gpu)]) {
        if (mark.count > 0)
            return faultKindName(mark.kind);
    }
    return "";
}

void
FaultInjector::apply(const FaultScenario& scenario)
{
    CHARLLM_ASSERT(!applied, "scenario already applied");
    applied = true;
    Rng rng(scenario.seed);
    for (const FaultSpec& spec : scenario.faults) {
        CHARLLM_ASSERT(spec.startSec >= sim.nowSeconds(),
                       "fault scheduled in the past: ", spec.startSec);
        CHARLLM_ASSERT(spec.durationSec >= 0.0,
                       "negative fault duration");
        switch (spec.kind) {
          case FaultKind::GpuSlowdown:
            applyGpuSlowdown(spec);
            break;
          case FaultKind::LinkDerate:
            applyLinkDerate(spec);
            break;
          case FaultKind::LinkFlap:
            applyLinkFlap(spec, rng);
            break;
          case FaultKind::HotInlet:
            applyHotInlet(spec);
            break;
          case FaultKind::FanFailure:
            applyFanFailure(spec);
            break;
          case FaultKind::EccStall:
            applyEccStall(spec, rng);
            break;
        }
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const FaultRecord& a, const FaultRecord& b) {
        if (a.startSec != b.startSec)
            return a.startSec < b.startSec;
        if (a.kind != b.kind)
            return a.kind < b.kind;
        return a.target < b.target;
    });
}

void
FaultInjector::applyGpuSlowdown(const FaultSpec& spec)
{
    CHARLLM_ASSERT(spec.magnitude > 0.0 && spec.magnitude < 1.0,
                   "slowdown magnitude must be in (0, 1)");
    int gpu = spec.target;
    sim.scheduleAt(sim::toTicks(spec.startSec), [this, gpu, spec] {
        plat.setGpuSlowdown(gpu, spec.magnitude);
    });
    double end = kOpenEnded;
    if (spec.durationSec > 0.0) {
        end = spec.startSec + spec.durationSec;
        sim.scheduleAt(sim::toTicks(end), [this, gpu] {
            plat.setGpuSlowdown(gpu, 1.0);
        });
    }
    record(spec.kind, gpu, spec.startSec, end, spec.magnitude);
    trackInterval(gpu, spec.kind, spec.startSec,
                  end == kOpenEnded ? spec.startSec : end);
}

void
FaultInjector::applyLinkDerate(const FaultSpec& spec)
{
    CHARLLM_ASSERT(spec.magnitude > 0.0 && spec.magnitude <= 1.0,
                   "link derate magnitude must be in (0, 1]");
    net::LinkId link = spec.target;
    int owner = network.topology().link(link).ownerGpu;
    sim.scheduleAt(sim::toTicks(spec.startSec), [this, link, spec] {
        network.setLinkDerate(link, spec.magnitude);
    });
    double end = kOpenEnded;
    if (spec.durationSec > 0.0) {
        end = spec.startSec + spec.durationSec;
        sim.scheduleAt(sim::toTicks(end), [this, link] {
            network.setLinkDerate(link, 1.0);
        });
    }
    record(spec.kind, spec.target, spec.startSec, end, spec.magnitude);
    trackInterval(owner, spec.kind, spec.startSec,
                  end == kOpenEnded ? spec.startSec : end);
}

void
FaultInjector::applyLinkFlap(const FaultSpec& spec, Rng& rng)
{
    CHARLLM_ASSERT(spec.magnitude > 0.0 && spec.magnitude <= 1.0,
                   "link flap magnitude must be in (0, 1]");
    CHARLLM_ASSERT(spec.periodSec > 0.0 && spec.durationSec > 0.0,
                   "link flap needs periodSec and durationSec");
    CHARLLM_ASSERT(spec.dutyCycle > 0.0 && spec.dutyCycle < 1.0,
                   "link flap duty cycle must be in (0, 1)");
    net::LinkId link = spec.target;
    int owner = network.topology().link(link).ownerGpu;
    double horizon = spec.startSec + spec.durationSec;
    double t = spec.startSec;
    while (t < horizon) {
        // Jittered cycle so flaps do not phase-lock with the
        // iteration structure; drawn here, at apply() time, so the
        // schedule depends only on the scenario seed.
        double cycle = spec.periodSec * rng.uniform(0.7, 1.3);
        double down_end = std::min(t + cycle * spec.dutyCycle, horizon);
        sim.scheduleAt(sim::toTicks(t), [this, link, spec] {
            network.setLinkDerate(link, spec.magnitude);
        });
        sim.scheduleAt(sim::toTicks(down_end), [this, link] {
            network.setLinkDerate(link, 1.0);
        });
        record(spec.kind, spec.target, t, down_end, spec.magnitude);
        trackInterval(owner, spec.kind, t, down_end);
        t += cycle;
    }
}

void
FaultInjector::applyHotInlet(const FaultSpec& spec)
{
    CHARLLM_ASSERT(spec.magnitude > 0.0,
                   "hot inlet needs a positive degC rise");
    int gpu = spec.target;
    sim.scheduleAt(sim::toTicks(spec.startSec), [this, gpu, spec] {
        plat.thermal().setInletOffset(gpu, CelsiusDelta(spec.magnitude));
    });
    double end = kOpenEnded;
    if (spec.durationSec > 0.0) {
        end = spec.startSec + spec.durationSec;
        sim.scheduleAt(sim::toTicks(end), [this, gpu] {
            plat.thermal().setInletOffset(gpu, CelsiusDelta(0.0));
        });
    }
    record(spec.kind, gpu, spec.startSec, end, spec.magnitude);
    trackInterval(gpu, spec.kind, spec.startSec,
                  end == kOpenEnded ? spec.startSec : end);
}

void
FaultInjector::applyFanFailure(const FaultSpec& spec)
{
    CHARLLM_ASSERT(spec.magnitude > 1.0,
                   "fan failure needs a resistance scale > 1");
    int gpu = spec.target;
    sim.scheduleAt(sim::toTicks(spec.startSec), [this, gpu, spec] {
        plat.thermal().setResistanceScale(gpu, spec.magnitude);
    });
    double end = kOpenEnded;
    if (spec.durationSec > 0.0) {
        end = spec.startSec + spec.durationSec;
        sim.scheduleAt(sim::toTicks(end), [this, gpu] {
            plat.thermal().setResistanceScale(gpu, 1.0);
        });
    }
    record(spec.kind, gpu, spec.startSec, end, spec.magnitude);
    trackInterval(gpu, spec.kind, spec.startSec,
                  end == kOpenEnded ? spec.startSec : end);
}

void
FaultInjector::applyEccStall(const FaultSpec& spec, Rng& rng)
{
    CHARLLM_ASSERT(spec.magnitude > 0.0,
                   "ECC stall needs a base stall in seconds");
    CHARLLM_ASSERT(spec.periodSec > 0.0 && spec.durationSec > 0.0,
                   "ECC stall needs periodSec and durationSec");
    int gpu = spec.target;
    double horizon = spec.startSec + spec.durationSec;
    double t = spec.startSec + spec.periodSec * rng.uniform(0.1, 1.0);
    while (t < horizon) {
        // Retry with exponential backoff: attempt i costs
        // magnitude * 2^(i-1); a retry is needed with fixed
        // probability, capped at kMaxEccRetries attempts.
        int attempts = 1;
        while (attempts < kMaxEccRetries &&
               rng.uniform() < kEccRetryProb) {
            ++attempts;
        }
        double total = spec.magnitude *
                       (std::pow(2.0, attempts) - 1.0);
        sim.scheduleAt(sim::toTicks(t), [this, gpu, total] {
            if (engine)
                engine->injectTransientStall(gpu, Seconds(total));
        });
        record(spec.kind, gpu, t, t + total, total);
        trackInterval(gpu, spec.kind, t, t + total);
        t += spec.periodSec * rng.uniform(0.5, 1.5);
    }
}

CsvWriter
FaultInjector::logCsv() const
{
    CsvWriter csv;
    csv.header({"kind", "target", "start_s", "end_s", "magnitude"});
    for (const FaultRecord& r : records) {
        csv.beginRow();
        csv.cell(std::string(faultKindName(r.kind)));
        csv.cell(r.target);
        csv.cell(r.startSec);
        csv.cell(r.endSec);
        csv.cell(r.magnitude);
        csv.endRow();
    }
    return csv;
}

} // namespace faults
} // namespace charllm
