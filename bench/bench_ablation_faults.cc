/**
 * @file
 * Ablation: fault-injection scenario catalog. Real fleets are not
 * healthy (paper Sec. 1/7): one hot inlet, one flapping IB link, an
 * ECC retry storm, or a node fail-stop all bend cluster-wide step
 * time through synchronous parallelism. This bench runs each preset
 * scenario on an H100 pod and reports the realized degradation plus
 * what the telemetry attributes it to. The fail-stop row comes from
 * the resilience subsystem (seeded GPU failures, detection, spare
 * replacement, checkpoint rollback), the simulator's one fail-stop
 * model.
 */

#include <cstdint>
#include <cstdio>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/strings.hh"
#include "faults/scenarios.hh"
#include "net/topology.hh"

using namespace charllm;
using namespace charllm::unit_literals;

namespace {

/** Per-GPU MTBF of the fail-stop row: 32 GPUs fail every 30 s on
 *  average, about one failure per two-iteration run. */
constexpr double kFailStopGpuMtbfSec = 960.0;

/** Failure-schedule seed of the fail-stop row. With this MTBF it
 *  draws one GpuFatal (GPU 28 at 5.5 s) inside the run. */
constexpr std::uint64_t kFailStopSeed = 10;

} // namespace

int
main()
{
    benchutil::banner("Ablation",
                      "Fault scenarios -> step-time degradation "
                      "(GPT3-30B, H100, TP8-PP4)");

    auto cluster = core::h100Cluster(4); // 32 GPUs
    auto par = parallel::ParallelConfig::forWorld(32, 8, 4);
    net::Topology topo(cluster.network);
    const double window = 40.0; // covers warmup + measured iterations

    struct Row
    {
        std::string name;
        faults::FaultScenario scenario;
    };
    std::vector<Row> rows;
    rows.push_back({"healthy", {}});
    rows.push_back({"straggler gpu5 @50%",
                    faults::scenarios::straggler(5, 0.5)});
    rows.push_back({"hot inlet gpu0 +14C",
                    faults::scenarios::hotInlet(0, 14.0_dC)});
    rows.push_back({"degraded pod (inlet+flap)",
                    faults::scenarios::degradedPod(topo, Seconds(window))});
    rows.push_back({"ecc storm gpu5",
                    faults::scenarios::eccStorm(5, 0.01_s, 0.1_s,
                                                Seconds(window))});

    TextTable t({"scenario", "iter(s)", "slowdown", "events",
                 "gpu0 peakT", "throttle"});
    double healthy_iter = 0.0;
    double healthy_wall = 0.0;
    for (const auto& row : rows) {
        auto cfg = benchutil::sweepConfig(cluster, model::gpt3_30b(),
                                          par);
        cfg.faultScenario = row.scenario;
        auto r = core::Experiment::run(cfg);
        if (!r.feasible)
            continue;
        if (row.scenario.empty()) {
            healthy_iter = r.avgIterationSeconds;
            healthy_wall = r.iterationSpans.back().endSec;
        }
        t.addRow({row.name, benchutil::fmtSec(r.avgIterationSeconds),
                  strprintf("%.2fx",
                            r.avgIterationSeconds / healthy_iter),
                  strprintf("%zu", r.faultLog.size()),
                  formatFixed(r.gpus[0].peakTempC, 1) + " C",
                  strprintf("%.0f%%", 100.0 * r.throttleRatio)});
    }

    // Fail-stop: seeded GPU failures through resil::. Recovery
    // books the outage (detection, spare attach, checkpoint reload,
    // replay) outside the committed iterations, so the slowdown is
    // goodput wall time over healthy wall time, and the events
    // column counts fatal failures.
    auto cfg = benchutil::sweepConfig(cluster, model::gpt3_30b(), par);
    cfg.resilience.enabled = true;
    cfg.resilience.seed = kFailStopSeed;
    cfg.resilience.mtbf.gpuMtbfSec = kFailStopGpuMtbfSec;
    auto r = core::Experiment::run(cfg);
    CHARLLM_CHECK(r.feasible && r.goodputValid &&
                      r.goodput.stats.fatalFaults >= 1,
                  "no GPU failure landed inside the fail-stop run");
    t.addRow({strprintf("fail-stop (resil, MTBF %.0fs)",
                        kFailStopGpuMtbfSec),
              benchutil::fmtSec(r.avgIterationSeconds),
              strprintf("%.2fx", r.goodput.wallSec / healthy_wall),
              strprintf("%d", r.goodput.stats.fatalFaults),
              formatFixed(r.gpus[0].peakTempC, 1) + " C",
              strprintf("%.0f%%", 100.0 * r.throttleRatio)});
    t.print();
    std::printf(
        "\nExpected: the straggler and fail-stop rows degrade the\n"
        "most: the whole synchronous job runs at the slow device's\n"
        "pace, or stops until a spare replaces the dead one and the\n"
        "lost iterations are replayed from the last checkpoint; the\n"
        "flapping IB link stretches pipeline sends; the ECC storm\n"
        "adds jittery per-iteration stalls; the hot inlet mainly\n"
        "shows up as higher temperature/throttle residency on its\n"
        "GPU. The fail-stop row's slowdown is goodput wall time over\n"
        "healthy wall time; every other row's is iteration time.\n");
    return 0;
}
