/**
 * @file
 * What the traced run measures per layer: spans around the benchmark's
 * calls into each layer, allocation counts taken by a counting
 * operator new, and probes that time one layer function on inputs
 * derived from the workload's configs. None of it runs in the timed
 * run.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Spans kept in memory and written as Chrome trace JSON (loadable in
 * Perfetto) when the run ends. Spans of one experiment share its
 * index; each records the span that encloses it.
 */
class Tracer
{
  public:
    Tracer() : origin(Clock::now()) {}

    /** Open a span under the innermost open one; returns its id. */
    int begin(const char* name, int experiment);
    /** Close span @p id; returns its duration in seconds. */
    double end(int id);

    bool write(const std::string& path) const;
    std::size_t size() const { return spans.size(); }

  private:
    struct Span
    {
        const char* name;
        int parent;
        int experiment;
        double startUs;
        double endUs;
    };
    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int> open;
};

/** Allocations made on this thread between start and stop. */
struct AllocCounts
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

void startAllocCounting();
AllocCounts stopAllocCounting();

/** @name Layer probes (each returns host seconds spent in the call)
 * @{ */

/** hw: @p ticks governor periods of Platform::tick() at the config's
 *  physical shape (idle GPUs). */
double probeTick(const charllm::core::ExperimentConfig& cfg, int ticks);

/** runtime: ProgramBuilder::build(0) at the config's shape; adds the
 *  program's operator count to @p ops. */
double probeBuild(const charllm::core::ExperimentConfig& cfg,
                  std::uint64_t* ops);

/** resil: FailureGenerator::generate for the config's cluster, with
 *  its MTBF profile when resilience is on and a fixed fleet profile
 *  otherwise. */
double probeGenerate(const charllm::core::ExperimentConfig& cfg);

/** scale: @p calls SymmetryAnalyzer::analyze on the config. */
double probeAnalyze(const charllm::core::ExperimentConfig& cfg, int calls);

/** @} */

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
