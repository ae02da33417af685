/**
 * @file
 * Runtime allocation contract for the steady-state thermal/DVFS tick.
 *
 * This binary links the counting global operator new of
 * alloc_counter.cc, then drives busy platforms through their periodic
 * governor ticks: Platform::tick -> ThermalModel::step ->
 * Gpu::thermalUpdate -> DvfsGovernor::evaluate -> Gpu::refresh ->
 * TimeWeightedStats::update. Once warm, that path must allocate
 * nothing, however long the simulated run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hh"
#include "hw/chassis.hh"
#include "hw/gpu_spec.hh"
#include "hw/platform.hh"
#include "sim/simulator.hh"

namespace {

using namespace charllm;
using namespace charllm::hw;
using charllm::testing::AllocCount;

/** Allocations made on this thread while running @p sim up to @p until. */
AllocCount
countedRunUntil(sim::Simulator& sim, double until)
{
    charllm::testing::startAllocCounting();
    sim.runUntil(sim::toTicks(until));
    return charllm::testing::stopAllocCounting();
}

class SteadyTickAlloc : public ::testing::TestWithParam<int>
{
};

TEST_P(SteadyTickAlloc, BusyPlatformTicksAllocateNothing)
{
    const int num_nodes = GetParam();
    sim::Simulator s;
    Platform plat(s, h200Spec(), hgxLayout(), num_nodes);
    plat.start();
    // Pin every GPU busy; a far event keeps the ticker armed.
    std::vector<std::uint64_t> toks;
    for (int i = 0; i < plat.numGpus(); ++i)
        toks.push_back(plat.gpu(i).kernelBegin(KernelClass::Gemm, 1.0,
                                               0.0));
    s.schedule(sim::toTicks(1000.0), [] {});

    s.runUntil(sim::toTicks(5.0)); // warmup sizes the tick buffers
    AllocCount first = countedRunUntil(s, 10.0);
    EXPECT_EQ(first.count, 0u);
    EXPECT_EQ(first.bytes, 0u);
    // Twice the simulated span must still cost nothing: the state does
    // not grow with simulated time.
    AllocCount second = countedRunUntil(s, 20.0);
    EXPECT_EQ(second.count, 0u);
    EXPECT_EQ(second.bytes, 0u);

    // The throttle path ran: a rear GPU spent time below 0.99 clock.
    plat.finishStats();
    EXPECT_GT(plat.gpu(1).throttleRatio(), 0.0);
    for (int i = 0; i < plat.numGpus(); ++i)
        plat.gpu(i).kernelEnd(toks[static_cast<std::size_t>(i)],
                              s.nowSeconds());
}

INSTANTIATE_TEST_SUITE_P(Nodes, SteadyTickAlloc, ::testing::Values(1, 4));

} // namespace
