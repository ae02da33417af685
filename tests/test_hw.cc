/**
 * @file
 * Unit tests for the hardware models: compute roofline, power,
 * RC thermal network with airflow preheat, DVFS governor, and the GPU
 * device aggregate.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "hw/calibration.hh"
#include "hw/chassis.hh"
#include "hw/compute_model.hh"
#include "hw/dvfs.hh"
#include "hw/gpu.hh"
#include "hw/gpu_spec.hh"
#include "hw/platform.hh"
#include "hw/thermal_model.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;
using namespace charllm::hw;
using namespace charllm::unit_literals;

// ---- specs -----------------------------------------------------------------

TEST(GpuSpec, Table3Values)
{
    GpuSpec h100 = h100Spec();
    GpuSpec h200 = h200Spec();
    GpuSpec gcd = mi250GcdSpec();

    EXPECT_NEAR(h100.memoryBytes.value(), 80e9, 1e6);
    EXPECT_NEAR(h200.memoryBytes.value(), 141e9, 1e6);
    EXPECT_NEAR(gcd.memoryBytes.value(), 64e9, 1e6);

    // H200 = H100 compute with more/faster memory.
    EXPECT_DOUBLE_EQ(h100.peakFlops.value(), h200.peakFlops.value());
    EXPECT_GT(h200.hbmBandwidth, h100.hbmBandwidth);

    EXPECT_DOUBLE_EQ(h100.tdpWatts.value(), 700.0);
    // Half of the 500 W package.
    EXPECT_DOUBLE_EQ(gcd.tdpWatts.value(), 250.0);
    EXPECT_TRUE(gcd.chipletGcd);
    EXPECT_FALSE(h100.chipletGcd);
}

// ---- compute model ---------------------------------------------------------

TEST(ComputeModel, EfficiencyIncreasesWithWork)
{
    ComputeModel m(h100Spec());
    ComputeWork small{KernelClass::Gemm, Flops(1e10), Bytes(0.0)};
    ComputeWork large{KernelClass::Gemm, Flops(1e13), Bytes(0.0)};
    EXPECT_LT(m.efficiency(small), m.efficiency(large));
    EXPECT_LE(m.efficiency(large), calib::kMaxMfu);
}

TEST(ComputeModel, AttentionLessEfficientThanGemm)
{
    ComputeModel m(h100Spec());
    ComputeWork gemm{KernelClass::Gemm, Flops(1e12), Bytes(0.0)};
    ComputeWork attn{KernelClass::Attention, Flops(1e12), Bytes(0.0)};
    EXPECT_GT(m.efficiency(gemm), m.efficiency(attn));
}

TEST(ComputeModel, DurationScalesInverselyWithClock)
{
    ComputeModel m(h100Spec());
    ComputeWork w{KernelClass::Gemm, Flops(5e12), Bytes(0.0)};
    double full = m.duration(w, ClockRel(1.0)).value();
    double slow = m.duration(w, ClockRel(0.5)).value();
    // Roughly 2x slower at half clock (launch overhead dilutes a bit).
    EXPECT_GT(slow, 1.8 * full);
}

TEST(ComputeModel, MemoryBoundKernelsIgnoreClock)
{
    ComputeModel m(h100Spec());
    // Tiny flops, huge memory traffic: HBM-bound.
    ComputeWork w{KernelClass::Optimizer, Flops(1e9), Bytes(2e12)};
    EXPECT_NEAR(m.duration(w, ClockRel(1.0)).value(),
                m.duration(w, ClockRel(0.6)).value(), 1e-9);
    EXPECT_LT(m.smUtilization(w), 0.2);
}

TEST(ComputeModel, RooflineCrossover)
{
    ComputeModel m(h100Spec());
    // Compute-bound kernel dominated by flop time.
    ComputeWork cb{KernelClass::Gemm, Flops(1e13), Bytes(1e9)};
    double t =
        m.duration(cb, ClockRel(1.0)).value() - calib::kKernelOverheadSec;
    double flop_time = 1e13 / (h100Spec().peakFlops.value() *
                               m.efficiency(cb));
    EXPECT_NEAR(t, flop_time, 1e-9);
    EXPECT_GT(m.smUtilization(cb), 0.9);
}

// ---- DVFS ------------------------------------------------------------------

TEST(Dvfs, ThrottlesWhenHot)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    double before = g.clockRel().value();
    g.evaluate(spec.throttleTempC + 2.0_dC, 400.0_W, true);
    EXPECT_LT(g.clockRel().value(), before);
    EXPECT_EQ(g.lastReason(), ThrottleReason::Thermal);
}

TEST(Dvfs, ThrottlesOnPowerCap)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    g.evaluate(Celsius(50.0), spec.tdpWatts + 50.0_W, true);
    EXPECT_LT(g.clockRel().value(), 1.0);
    EXPECT_EQ(g.lastReason(), ThrottleReason::PowerCap);
}

TEST(Dvfs, BoostsWhenCoolAndComputeBound)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    for (int i = 0; i < 50; ++i)
        g.evaluate(Celsius(55.0), 500.0_W, true);
    EXPECT_NEAR(g.clockRel().value(), spec.boostRel().value(), 1e-9);
}

TEST(Dvfs, NoBoostWhenCommBound)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    for (int i = 0; i < 50; ++i)
        g.evaluate(Celsius(55.0), 300.0_W, false);
    EXPECT_NEAR(g.clockRel().value(), 1.0, 1e-9);
}

TEST(Dvfs, RecoversWithHysteresis)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    g.evaluate(spec.throttleTempC + 1.0_dC, 400.0_W, true);
    double throttled = g.clockRel().value();
    // Just below throttle but inside hysteresis: hold.
    g.evaluate(spec.throttleTempC - 1.0_dC, 400.0_W, true);
    EXPECT_DOUBLE_EQ(g.clockRel().value(), throttled);
    // Well below: step back up.
    for (int i = 0; i < 100; ++i)
        g.evaluate(spec.throttleTempC - 10.0_dC, 400.0_W, false);
    EXPECT_NEAR(g.clockRel().value(), 1.0, 1e-9);
}

TEST(Dvfs, RecoversInSoftZone)
{
    // Regression: a throttled clock must creep back toward nominal
    // while the temperature sits between the governor setpoint and the
    // hysteresis band. The original soft-zone branch only pulled boost
    // clocks down, so a derated device was stuck there forever.
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    g.evaluate(spec.throttleTempC + 2.0_dC, 400.0_W, true);
    ASSERT_LT(g.clockRel().value(), 1.0);
    double soft =
        0.5 * (spec.targetTempC.value() +
               (spec.throttleTempC.value() - calib::kThermalHysteresisC));
    ASSERT_GE(soft, spec.targetTempC.value());
    ASSERT_LT(soft,
              spec.throttleTempC.value() - calib::kThermalHysteresisC);
    double prev = g.clockRel().value();
    g.evaluate(Celsius(soft), 400.0_W, true);
    EXPECT_GT(g.clockRel().value(), prev);
    // The residual derate keeps its cause until fully recovered.
    EXPECT_NE(g.lastReason(), ThrottleReason::None);
    for (int i = 0; i < 100; ++i)
        g.evaluate(Celsius(soft), 400.0_W, true);
    EXPECT_NEAR(g.clockRel().value(), 1.0, 1e-9);
    EXPECT_EQ(g.lastReason(), ThrottleReason::None);
}

TEST(Dvfs, ClampedToMinClock)
{
    GpuSpec spec = h100Spec();
    DvfsGovernor g(spec);
    for (int i = 0; i < 200; ++i)
        g.evaluate(spec.throttleTempC + 10.0_dC, 900.0_W, true);
    EXPECT_NEAR(g.clockRel().value(), spec.minRel().value(), 1e-9);
}

// ---- thermal model ---------------------------------------------------------

TEST(Thermal, SteadyStateMatchesAnalytic)
{
    ThermalModel tm(hgxLayout(), 1);
    std::vector<Watts> powers(8, 400.0_W);
    // Integrate long enough to converge.
    for (int i = 0; i < 200000; ++i)
        tm.step(Seconds(0.002), powers);
    for (int i = 0; i < 8; ++i)
        EXPECT_NEAR(tm.temperature(i).value(),
                    tm.steadyState(i, powers).value(), 0.2);
}

TEST(Thermal, RearGpusHotterThanFront)
{
    ThermalModel tm(hgxLayout(), 1);
    std::vector<Watts> powers(8, 600.0_W);
    tm.warmStart(powers);
    // Even devices sit at the intake, odd ones at the exhaust.
    for (int front = 0; front < 8; front += 2) {
        for (int rear = 1; rear < 8; rear += 2)
            EXPECT_GT(tm.temperature(rear).value(),
                      tm.temperature(front).value() + 5.0);
    }
}

TEST(Thermal, PreheatProportionalToUpstreamPower)
{
    ThermalModel tm(hgxLayout(), 1);
    std::vector<Watts> low(8, 100.0_W), high(8, 700.0_W);
    double rise_low =
        tm.inletTemperature(5, low).value() - calib::kRoomTempC;
    double rise_high =
        tm.inletTemperature(5, high).value() - calib::kRoomTempC;
    EXPECT_NEAR(rise_high / rise_low, 7.0, 1e-9);
}

TEST(Thermal, StepRespondsWithTimeConstant)
{
    ThermalModel tm(hgxLayout(), 1);
    std::vector<Watts> powers(8, 0.0_W);
    powers[0] = 500.0_W;
    // After one time constant, ~63% of the way to steady state.
    double target = tm.steadyState(0, powers).value();
    double start = tm.temperature(0).value();
    int steps = static_cast<int>(calib::kThermalTauSec / 0.001);
    for (int i = 0; i < steps; ++i)
        tm.step(Seconds(0.001), powers);
    double progress =
        (tm.temperature(0).value() - start) / (target - start);
    EXPECT_NEAR(progress, 0.632, 0.02);
}

TEST(Thermal, PackageCouplingPullsGcdsTogether)
{
    ThermalModel tm(mi250Layout(), 1);
    std::vector<Watts> powers(8, 0.0_W);
    powers[0] = 250.0_W; // only GCD 0 busy; GCD 1 idle, same package
    for (int i = 0; i < 60000; ++i)
        tm.step(Seconds(0.002), powers);
    double hot = tm.temperature(0).value();
    double peer = tm.temperature(1).value();
    double far = tm.temperature(2).value();
    EXPECT_GT(peer, far + 2.0); // peer warmed through the package
    EXPECT_LT(peer, hot);       // but still cooler than the busy GCD
}

TEST(Thermal, Mi250IntraPackageSkew)
{
    // Under uniform load the downstream GCD of each package runs
    // hotter (paper reports 5-10 degC skew).
    ThermalModel tm(mi250Layout(), 1);
    std::vector<Watts> powers(8, 220.0_W);
    tm.warmStart(powers);
    for (int i = 0; i < 120000; ++i)
        tm.step(Seconds(0.002), powers);
    for (int pkg = 0; pkg < 4; ++pkg) {
        double skew = (tm.temperature(pkg * 2 + 1) -
                       tm.temperature(pkg * 2))
                          .value();
        EXPECT_GT(skew, 0.5);
        EXPECT_LT(skew, 12.0);
    }
}

TEST(Thermal, MultiNodeIndependence)
{
    ThermalModel tm(hgxLayout(), 2);
    std::vector<Watts> powers(16, 0.0_W);
    for (int i = 0; i < 8; ++i)
        powers[i] = 700.0_W; // node 0 busy, node 1 idle
    tm.warmStart(powers);
    for (int i = 8; i < 16; ++i)
        EXPECT_NEAR(tm.temperature(i).value(), calib::kRoomTempC, 0.5);
    for (int i = 0; i < 8; ++i)
        EXPECT_GT(tm.temperature(i).value(), 60.0);
}

// ---- chassis layouts -------------------------------------------------------

TEST(Chassis, HgxFrontRowHasNoUpstream)
{
    ChassisLayout l = hgxLayout();
    ASSERT_EQ(l.gpusPerNode(), 8);
    for (int i = 0; i < 8; i += 2) {
        EXPECT_TRUE(l.slots[i].upstream.empty());
        EXPECT_EQ(l.slots[i].airflowRow, 0);
    }
    for (int i = 1; i < 8; i += 2) {
        EXPECT_FALSE(l.slots[i].upstream.empty());
        EXPECT_EQ(l.slots[i].airflowRow, 1);
    }
}

TEST(Chassis, Mi250PackagePeersAreSymmetric)
{
    ChassisLayout l = mi250Layout();
    for (int i = 0; i < 8; ++i) {
        int peer = l.slots[i].packagePeer;
        ASSERT_GE(peer, 0);
        EXPECT_EQ(l.slots[peer].packagePeer, i);
    }
}

// ---- Gpu device ------------------------------------------------------------

TEST(Gpu, IdlePowerAtRest)
{
    Gpu gpu(0, h100Spec());
    EXPECT_NEAR(gpu.power().value(), h100Spec().idleWatts.value(), 1.0);
}

TEST(Gpu, PowerRisesWithComputeKernel)
{
    Gpu gpu(0, h100Spec());
    double idle = gpu.power().value();
    auto tok = gpu.kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    EXPECT_GT(gpu.power().value(), idle + 300.0);
    gpu.kernelEnd(tok, 1.0);
    EXPECT_NEAR(gpu.power().value(), idle, 1.0);
}

TEST(Gpu, CommKernelsDrawLessThanCompute)
{
    Gpu g1(0, h100Spec()), g2(1, h100Spec());
    auto t1 = g1.kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    auto t2 = g2.kernelBegin(KernelClass::AllReduce, 0.0, 0.0);
    EXPECT_GT(g1.power().value(), g2.power().value() + 100.0);
    g1.kernelEnd(t1, 1.0);
    g2.kernelEnd(t2, 1.0);
}

TEST(Gpu, OverlapBurstsAboveSingleActivity)
{
    Gpu gpu(0, h100Spec());
    auto tc = gpu.kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    double compute_only = gpu.power().value();
    auto tm = gpu.kernelBegin(KernelClass::AllReduce, 0.0, 0.0);
    EXPECT_GT(gpu.power().value(), compute_only);
    EXPECT_LE(gpu.power().value(),
              hw::calib::kPeakPowerCap * h100Spec().tdpWatts.value() +
                  1e-9);
    gpu.kernelEnd(tm, 1.0);
    gpu.kernelEnd(tc, 2.0);
}

TEST(Gpu, EnergyIntegratesOverTime)
{
    Gpu gpu(0, h100Spec());
    auto tok = gpu.kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    double p = gpu.power().value();
    gpu.kernelEnd(tok, 2.0);
    EXPECT_NEAR(gpu.energyJoules().value(), p * 2.0, 1e-6);
}

TEST(Gpu, ThrottleRatioTracksClock)
{
    Gpu gpu(0, h100Spec());
    // Force a thermal excursion above the throttle point.
    gpu.thermalUpdate(Celsius(90.0), 0.0);
    EXPECT_LT(gpu.clockRel().value(), 1.0);
    gpu.thermalUpdate(Celsius(90.0), 1.0);
    gpu.finishStats(2.0);
    EXPECT_GT(gpu.throttleRatio(), 0.4);
}

TEST(Gpu, ResetStatsKeepsThrottleThreshold)
{
    Gpu gpu(0, h100Spec());
    gpu.thermalUpdate(Celsius(90.0), 0.0);
    ASSERT_LT(gpu.clockRel().value(), calib::kThrottleClockThresholdRel);
    // End of warmup: the clock stat restarts but must keep counting
    // time below the throttle threshold.
    gpu.resetStats(1.0);
    gpu.thermalUpdate(Celsius(90.0), 1.5);
    gpu.finishStats(2.0);
    EXPECT_LT(gpu.clockRel().value(), calib::kThrottleClockThresholdRel);
    EXPECT_DOUBLE_EQ(gpu.clockStats().duration(), 1.0);
    EXPECT_DOUBLE_EQ(gpu.throttleRatio(), 1.0);
}

TEST(Gpu, OccupancyHighForCommLowWarps)
{
    Gpu gpu(0, h100Spec());
    auto tok = gpu.kernelBegin(KernelClass::AllReduce, 0.0, 0.0);
    EXPECT_GT(gpu.occupancy(), 0.8);
    EXPECT_LT(gpu.warpsPerSm(), 5.0);
    gpu.kernelEnd(tok, 1.0);
    auto tok2 = gpu.kernelBegin(KernelClass::Gemm, 1.0, 1.0);
    EXPECT_GT(gpu.warpsPerSm(), 5.0);
    EXPECT_GT(gpu.threadblocks(), 500.0);
    gpu.kernelEnd(tok2, 2.0);
}

TEST(Gpu, TrafficCountersAccumulate)
{
    Gpu gpu(0, h100Spec());
    gpu.addTraffic(TrafficClass::Pcie, Bytes(1e9));
    gpu.addTraffic(TrafficClass::Pcie, Bytes(2e9));
    gpu.addTraffic(TrafficClass::NvLink, Bytes(5e9));
    EXPECT_DOUBLE_EQ(gpu.trafficBytes(TrafficClass::Pcie).value(), 3e9);
    EXPECT_DOUBLE_EQ(gpu.trafficBytes(TrafficClass::NvLink).value(),
                     5e9);
    gpu.resetStats(1.0);
    EXPECT_DOUBLE_EQ(gpu.trafficBytes(TrafficClass::Pcie).value(), 0.0);
}

// ---- platform integration --------------------------------------------------

TEST(Gpu, SlowdownScalesClockAndReportsFault)
{
    Gpu gpu(0, h100Spec());
    double nominal = gpu.clockGhz();
    EXPECT_TRUE(gpu.setSlowdown(0.5, 0.0));
    EXPECT_NEAR(gpu.clockGhz(), 0.5 * nominal, 1e-9);
    EXPECT_EQ(gpu.throttleReason(), ThrottleReason::Fault);
    EXPECT_FALSE(gpu.setSlowdown(0.5, 0.0)); // no-op, same factor
    EXPECT_TRUE(gpu.setSlowdown(1.0, 0.0));
    EXPECT_NEAR(gpu.clockGhz(), nominal, 1e-9);
    EXPECT_EQ(gpu.throttleReason(), ThrottleReason::None);
}

TEST(Platform, BusyGpusHeatUpAndEventuallyThrottle)
{
    sim::Simulator s;
    Platform plat(s, h100Spec(), hgxLayout(), 1);
    plat.start();
    // Pin all GPUs at full compute activity for 60 simulated seconds.
    std::vector<std::uint64_t> toks;
    for (int i = 0; i < plat.numGpus(); ++i)
        toks.push_back(plat.gpu(i).kernelBegin(KernelClass::Gemm, 1.0,
                                               0.0));
    s.schedule(sim::toTicks(60.0), [] {});
    s.run();
    // Rear GPUs (odd ids) should run hotter than front (even ids).
    double front = plat.gpu(0).temperature().value();
    double rear = plat.gpu(1).temperature().value();
    EXPECT_GT(rear, front + 5.0);
    // Rear GPUs heavily loaded at 700 W-class power hit throttle.
    EXPECT_GT(rear, h100Spec().targetTempC.value() - 10.0);
    for (int i = 0; i < plat.numGpus(); ++i)
        plat.gpu(i).kernelEnd(toks[static_cast<std::size_t>(i)],
                              s.nowSeconds());
}

TEST(Platform, NodePowerCapForcesThrottle)
{
    sim::Simulator s;
    Platform plat(s, h100Spec(), hgxLayout(), 2);
    plat.start();
    plat.capNodePower(1, 300.0_W); // node-level power fault
    for (int i = 0; i < plat.numGpus(); ++i)
        plat.gpu(i).kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    s.schedule(sim::toTicks(10.0), [] {});
    s.run();
    // Node 1 GPUs should be clocked below node 0 GPUs.
    EXPECT_LT(plat.gpu(8).clockRel().value() + 0.05,
              plat.gpu(0).clockRel().value());
}

TEST(Platform, ClockListenerFires)
{
    sim::Simulator s;
    Platform plat(s, h100Spec(), hgxLayout(), 1);
    int changes = 0;
    plat.setClockListener([&](int, ClockRel) { ++changes; });
    plat.start();
    for (int i = 0; i < plat.numGpus(); ++i)
        plat.gpu(i).kernelBegin(KernelClass::Gemm, 1.0, 0.0);
    s.schedule(sim::toTicks(30.0), [] {});
    s.run();
    EXPECT_GT(changes, 0);
}

} // namespace
