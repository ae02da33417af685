/**
 * @file
 * FaultInjector: schedules deterministic degradation events into the
 * discrete-event kernel and applies them to the hardware, network, and
 * runtime layers. All randomness (flap jitter, ECC retry counts) is
 * drawn from the scenario seed at apply() time, so the realized event
 * schedule — and therefore the whole simulation — is reproducible.
 */

#ifndef CHARLLM_FAULTS_FAULT_INJECTOR_HH
#define CHARLLM_FAULTS_FAULT_INJECTOR_HH

#include <vector>

#include "common/csv.hh"
#include "faults/fault.hh"
#include "hw/platform.hh"
#include "net/flow_network.hh"
#include "runtime/engine.hh"
#include "sim/simulator.hh"
#include "telemetry/trace.hh"

namespace charllm {
namespace faults {

/**
 * Injects a FaultScenario into a built simulation stack. Construct
 * after Platform/FlowNetwork, attach the engine, then apply() the
 * scenario before running.
 *
 * Every fault here is a degradation the job runs through: the device
 * or link stays in service, only slower, hotter or stalled. Fail-stop
 * (a device or node dying, detection, checkpoint rollback, spares)
 * is modeled by resil::RecoveryManager alone.
 */
class FaultInjector
{
  public:
    FaultInjector(sim::Simulator& sim, hw::Platform& platform,
                  net::FlowNetwork& network);

    /** Enable runtime-layer responses (ECC stalls). */
    void attachEngine(runtime::TrainingEngine& engine);

    /**
     * Expand the scenario into concrete simulator events. Call once,
     * before the simulation runs. All Rng draws happen here.
     */
    void apply(const FaultScenario& scenario);

    /**
     * Realized fault intervals, sorted by start time (deterministic
     * for a given scenario + seed). Available right after apply().
     */
    const std::vector<FaultRecord>& log() const { return records; }

    /** Fault log as CSV (kind, target, start, end, magnitude). */
    CsvWriter logCsv() const;

    /**
     * Name of the fault currently affecting @p gpu ("" if healthy).
     * Link faults are attributed to the link's owner GPU. Wire into
     * telemetry::Sampler::setFaultAnnotator for cause attribution.
     */
    const char* activeGpuFault(int gpu) const;

    /**
     * Overlay every realized fault interval onto @p trace as fault
     * spans (link faults are attributed to the link's owner GPU, and
     * point events become open-ended spans the trace clips at its
     * horizon). Used by core::Experiment and the unified trace
     * builder so fault rows share the kernel timeline's clock.
     */
    void overlayOnTrace(telemetry::KernelTrace& trace) const;

    std::size_t numScheduled() const { return records.size(); }

  private:
    /** Mark @p gpu as affected by @p kind over [start, end). */
    void trackInterval(int gpu, FaultKind kind, double start_s,
                       double end_s);

    void applyGpuSlowdown(const FaultSpec& spec);
    void applyLinkDerate(const FaultSpec& spec);
    void applyLinkFlap(const FaultSpec& spec, Rng& rng);
    void applyHotInlet(const FaultSpec& spec);
    void applyFanFailure(const FaultSpec& spec);
    void applyEccStall(const FaultSpec& spec, Rng& rng);

    void record(FaultKind kind, int target, double start_s,
                double end_s, double magnitude);

    sim::Simulator& sim;
    hw::Platform& plat;
    net::FlowNetwork& network;
    runtime::TrainingEngine* engine = nullptr;

    std::vector<FaultRecord> records;

    /** Active fault markers per GPU (count per kind, toggled by the
     * scheduled start/end events). */
    struct ActiveMark
    {
        FaultKind kind;
        int count = 0;
    };
    std::vector<std::vector<ActiveMark>> activeByGpu;
    bool applied = false;
};

} // namespace faults
} // namespace charllm

#endif // CHARLLM_FAULTS_FAULT_INJECTOR_HH
