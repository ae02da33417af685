/**
 * @file
 * Committed reference outputs and the output check.
 *
 * A reference file holds one row per config of a workload's space: the
 * DES outputs of the seed commit. The check fails an experiment that is
 * infeasible where the reference is feasible, that produced a
 * non-finite output, or (for DES workloads) whose outputs are not
 * exactly the reference's. Its deviation feeds ref_err_max.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <map>
#include <string>

#include "core/experiment.hh"

namespace perfbench {

/** The simulated outputs the benchmark checks. */
struct Outputs
{
    bool feasible = false;
    double iterationSec = 0.0;
    double tokensPerJoule = 0.0;
    double peakTempC = 0.0;
    double throttleRatio = 0.0;

    static Outputs of(const charllm::core::ExperimentResult& r);
    bool operator==(const Outputs&) const = default;
};

/** Outcome of checking one experiment against its reference. */
struct Verdict
{
    bool failed = false;
    std::string why;
    /** Largest deviation over the four outputs: relative for
     *  iteration s, tokens/J and peak degC; absolute for the throttle
     *  ratio, which is already a share of time and is often ~0. */
    double deviation = 0.0;
};

class Reference
{
  public:
    /** Read @p path; returns false (with @p error set) on a missing or
     *  malformed file. */
    bool load(const std::string& path, std::string* error);

    /** Write @p rows (key -> outputs) to @p path. */
    static bool save(const std::string& path, const std::string& header,
                     const std::map<std::string, Outputs>& rows);

    std::size_t size() const { return rows.size(); }

    /** Check @p got for @p key; @p exact demands bitwise equality. */
    Verdict check(const std::string& key, const Outputs& got,
                  bool exact) const;

  private:
    std::map<std::string, Outputs> rows;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
