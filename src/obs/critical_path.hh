/**
 * @file
 * Causal critical-path recorder for the DES runtime.
 *
 * The engine records one fixed-size edge record per completed op
 * (compute kernel, collective, P2P transfer) into a pre-reserved slab.
 * Each record carries its *binding predecessor* — the record whose
 * completion released the resource or dependency that let this op
 * begin — so the chain of binding predecessors from the last-finishing
 * record of an iteration is exactly the critical path: by construction
 * every record starts at the instant its predecessor ends.
 *
 * Edge taxonomy (who becomes the predecessor of what):
 *  - kernel -> dependent op: compute completion advances its device;
 *    the next op issued on that device inherits the kernel's record.
 *  - collective member -> group launch/finish: each member's arrival
 *    is tagged with the record that produced it; the group's binding
 *    predecessor is the last arriver's cause, and every member arrival
 *    is kept as a slack edge (launch - arrival of waiting time).
 *  - pipeline send -> recv: the flow-network completion record wakes
 *    the blocked receiver, becoming its head; the send side records
 *    when the receiver posted its recv so blocked time is a bubble.
 *  - flow completion -> waiter: drain barriers blocked on outstanding
 *    async collectives/sends adopt the completion that unblocked them.
 *
 * Recording is allocation-free in steady state (slab push_back on
 * pre-reserved storage; growth beyond the reserve is amortized and
 * sanctioned in tools/simcheck/allowlist.txt), byte-deterministic, and
 * entirely passive: the recorder never schedules events or touches
 * simulation state, so enabling it leaves results byte-identical.
 *
 * analyze() walks each completed iteration backward from its sink
 * record, attributes every critical-path nanosecond to a cause class
 * (time axis, sums to the iteration wall time at 1e-9 — asserted),
 * reclassifies straggler-wait and pipeline-bubble windows, reports
 * throttle-induced slowdown per device as a cross-cutting annotation,
 * and computes per-op slack (CPM backward pass; non-negative).
 */

#ifndef CHARLLM_OBS_CRITICAL_PATH_HH
#define CHARLLM_OBS_CRITICAL_PATH_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hh"
#include "obs/metrics.hh"

namespace charllm {
namespace obs {

/** Time-axis cause classes; per iteration they partition the wall
 *  time exactly (identity asserted at 1e-9 in analyze()). */
enum class CauseClass : std::uint8_t {
    Startup = 0,        ///< iteration start to first path op
    Compute,            ///< kernel execution on the path
    CommCollScaleup,    ///< exposed collective wire time, intra-node
    CommCollInternode,  ///< exposed collective wire time, cross-node
    CommP2PScaleup,     ///< exposed pipeline P2P wire time, intra-node
    CommP2PInternode,   ///< exposed pipeline P2P wire time, cross-node
    WaitStraggler,      ///< collective members waiting on the last arriver
    BubblePipeline,     ///< receiver blocked before the matching send's flow
};

constexpr std::size_t kNumCauseClasses = 8;

/** Dot-separated stable name ("comm.collective.scaleup", ...). */
const char* causeClassName(CauseClass cause);

/** Throttle-reason slots for cross-cutting slowdown attribution
 *  (matches hw::ThrottleReason minus None). */
enum class ThrottleSlot : std::uint8_t { Thermal = 0, PowerCap, Fault };

constexpr std::size_t kNumThrottleSlots = 3;

const char* throttleSlotName(ThrottleSlot slot);

/** One maximal run of critical-path time with a single cause. */
struct CritSegment
{
    double startSec = 0.0;
    double endSec = 0.0;
    CauseClass cause = CauseClass::Startup;
    int dev = -1;   ///< attributed device; -1 = network / no device
    int record = -1;///< originating record id; -1 for startup gaps
};

/** Per-iteration critical-path attribution. */
struct IterCritPath
{
    int index = 0;
    bool warmup = false;
    bool aborted = false;
    double startSec = 0.0;
    double endSec = 0.0;
    std::vector<CritSegment> segments;
    std::array<double, kNumCauseClasses> causeSeconds{};
    /** Path seconds per attributed device (-1 = network/startup). */
    std::map<int, double> deviceSeconds;
    /** Throttle-induced elongation of path compute, per reason.
     *  Cross-cutting annotation: NOT part of the time-axis identity. */
    std::array<double, kNumThrottleSlots> throttleSeconds{};
    std::map<int, std::array<double, kNumThrottleSlots>>
        deviceThrottleSeconds;

    double wallSeconds() const { return endSec - startSec; }
};

/** Whole-run report: per-iteration paths plus measured-iteration
 *  means and the per-op slack distribution. */
struct CriticalPathReport
{
    bool folded = false;   ///< run executed under symmetry collapse
    int multiplicity = 1;  ///< DP replicas each representative stands for
    int numDevices = 0;
    std::vector<IterCritPath> iterations;
    int measuredIterations = 0;
    double meanWallSeconds = 0.0;
    std::array<double, kNumCauseClasses> meanCauseSeconds{};
    std::map<int, double> meanDeviceSeconds;
    std::array<double, kNumThrottleSlots> meanThrottleSeconds{};
    std::map<int, std::array<double, kNumThrottleSlots>>
        meanDeviceThrottleSeconds;
    /** Per-op slack over measured iterations (seconds). */
    Histogram slack;

    /** Device with the largest mean path attribution (ties: lowest
     *  id); -1 when no device-attributed time exists. */
    int dominantDevice() const;

    /** Mean path seconds attributed to @p dev (0 when absent). */
    double deviceSeconds(int dev) const;

    /** Deterministic JSON object (consumed by tools/rundiff.py). */
    std::string toJson() const;

    /** Deterministic flat CSV: iteration, warmup, cause, gpu, seconds. */
    CsvWriter toCsv() const;
};

/**
 * The slab recorder the engine writes into. Alive only when the
 * experiment enables critical-path tracing; all engine hooks are
 * guarded by a null check, so the disabled path costs one branch.
 */
class CriticalPathRecorder
{
  public:
    /** @p reserveRecords pre-sizes the slabs so steady-state
     *  recording never allocates. */
    explicit CriticalPathRecorder(int numDevices,
                                  std::size_t reserveRecords = 1 << 16);

    int numDevices() const { return static_cast<int>(heads.size()); }

    /** Representative runs carry DP multiplicity (see DESIGN.md §13). */
    void setFold(bool foldedRun, int foldMultiplicity);

    /** Record id currently heading @p dev's causal chain (-1 none). */
    int
    head(int dev) const
    {
        return heads[static_cast<std::size_t>(dev)];
    }

    /** Adopt @p record as @p dev's head: its completion unblocked or
     *  advanced the device. */
    void
    setHead(int dev, int record)
    {
        heads[static_cast<std::size_t>(dev)] = record;
    }

    void beginIteration(int index, bool warmup, double startSec);
    void endIteration(double endSec, bool aborted);

    /** Compute kernel completion; sets @p dev's head to the new
     *  record. @p slow is the per-reason throttle-elongation estimate
     *  accumulated over the kernel's clock-residency folds. */
    int onComputeDone(int dev, double startSec, double endSec,
                      const char* name, int pred,
                      const double (&slow)[kNumThrottleSlots]);

    /** Collective completion. @p arrivals is the engine's join order
     *  ((device, arrival time) pairs); @p causes holds each member's
     *  head at join, index-aligned with @p arrivals. Does NOT set any
     *  head — the engine marks exactly the devices it unblocks. */
    int onCollectiveDone(
        const std::vector<std::pair<int, double>>& arrivals,
        const std::vector<int>& causes, double endSec, const char* name,
        bool internode);

    /** P2P (pipeline send) completion. @p recvPostedSec is when the
     *  receiver posted the matching recv, or <0 if the flow finished
     *  before the recv was posted (no bubble). */
    int onP2PDone(int src, int dst, double flowStartSec, double endSec,
                  const char* name, int pred, double recvPostedSec,
                  bool internode);

    std::size_t numRecords() const { return records.size(); }

    /** Backward-walk every completed iteration; see file comment. */
    CriticalPathReport analyze() const;

  private:
    enum class EdgeKind : std::uint8_t { Compute, Collective, P2P };

    struct Record
    {
        double startSec;  ///< gating start: kernel start / collective
                          ///< launch / flow start
        double endSec;    ///< completion
        double windowSec; ///< collective: second-latest arrival;
                          ///< P2P: recv-posted time; <0 = none
        double slow[kNumThrottleSlots]; ///< compute only
        const char* name;
        std::int32_t pred;        ///< binding predecessor (-1 none)
        std::int32_t memberBegin; ///< index into memberEdges, -1 none
        std::int32_t memberCount;
        std::int16_t dev;  ///< compute: device; P2P: sender;
                           ///< collective: last arriver (straggler)
        std::int16_t dev2; ///< P2P: receiver; else -1
        EdgeKind kind;
        bool internode;
    };

    /** Slack edge: a member's completion feeding a collective launch. */
    struct MemberEdge
    {
        std::int32_t pred; ///< member's cause record (-1 none)
        double arrivalSec;
        std::int16_t dev;
    };

    struct IterMark
    {
        int index;
        bool warmup;
        bool aborted;
        bool open;
        double startSec;
        double endSec;
        std::size_t firstRecord;
        std::size_t endRecord;
    };

    int pushRecord(const Record& record);

    void analyzeIteration(const IterMark& mark, IterCritPath& out,
                          Histogram& slackHist) const;

    std::vector<std::int32_t> heads;
    std::vector<Record> records;
    std::vector<MemberEdge> memberEdges;
    std::vector<IterMark> iterations;
    bool folded = false;
    int multiplicity = 1;
};

} // namespace obs
} // namespace charllm

#endif // CHARLLM_OBS_CRITICAL_PATH_HH
