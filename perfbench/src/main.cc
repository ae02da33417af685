/**
 * @file
 * The simulator benchmark. One process runs one workload with one seed:
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *
 * --trace 0 is the timed run. It sets up (draws the configs, loads the
 * reference, screens every config with core::Experiment::fits and runs
 * one untimed warm-up experiment) nine times, then repeats timed
 * passes over the drawn configs for S seconds, checking every output,
 * and prints the end-to-end metrics.
 *
 * --trace 1 is the traced run. It sets up once, alternates untraced
 * and traced passes (spans around every call into a layer, allocation
 * counting inside execute), harvests the work counters the results
 * expose, runs the layer probes, writes the spans, and prints the
 * per-layer metrics.
 *
 * Either way the last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Other modes:
 * --list prints the keys of the drawn configs; --gen-ref writes the
 * workload's reference file.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_runner.hh"
#include "hw/calibration.hh"
#include "layers.hh"
#include "reference.hh"
#include "sim/backend.hh"
#include "workloads.hh"

using namespace charllm;
using namespace perfbench;

namespace {

const Clock::time_point kProcessStart = Clock::now();

constexpr int kSetupRepeats = 9;
constexpr int kTickProbeTicks = 100;
constexpr int kAnalyzeProbeCalls = 10000;
constexpr int kCritPathPairs = 3;
constexpr int kTracePairs = 2;
// Reference generation runs the whole space, two configs at a time.
constexpr int kRefThreads = 2;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string refDir = "perfbench/ref";
    std::string traceDir = ".bench_build/perfbench-traces";
    std::string commit = "unknown";
    bool list = false;
    bool genRef = false;
};

[[noreturn]] void
usage(const std::string& error)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "         [--ref-dir DIR] [--trace-dir DIR] [--commit ID]\n"
                 "       perfbench --workload NAME --seed N --list\n"
                 "       perfbench --workload NAME --gen-ref\n"
                 "workloads:",
                 error.c_str());
    for (const Workload& w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Strict unsigned decimal: digits only, no sign, no overflow. */
bool
parseSeed(const std::string& s, std::uint64_t* out)
{
    if (s.empty() || s.size() > 20)
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        std::uint64_t d = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false;
        v = v * 10 + d;
    }
    *out = v;
    return true;
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--list") {
            a.list = true;
            continue;
        }
        if (flag == "--gen-ref") {
            a.genRef = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            if (!parseSeed(v, &a.seed))
                usage("malformed seed '" + v + "'");
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0.0) ||
                a.seconds > 3600.0)
                usage("malformed --seconds '" + v + "'");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (flag == "--ref-dir") {
            a.refDir = v;
        } else if (flag == "--trace-dir") {
            a.traceDir = v;
        } else if (flag == "--commit") {
            a.commit = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (findWorkload(a.workload) == nullptr)
        usage("unknown workload '" + a.workload + "'");
    return a;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile @p p (0..100) of @p v. */
double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Highest of the usual percentiles with at least ten of @p n samples
 *  beyond it. */
double
tailPercentile(std::size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0})
        if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0)
            return p;
    return 50.0;
}

double
peakRssMb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

// ---- set-up ----------------------------------------------------------------

struct Setup
{
    std::vector<Entry> entries;
    Reference ref;
    int fitting = 0;
    double fitsSec = 0.0;
};

std::vector<Entry>
drawnEntries(const Workload& w, std::uint64_t seed)
{
    std::vector<Entry> entries = draw(w, seed);
    if (w.critPathPair) {
        Entry paired = entries.front();
        paired.cfg.enableCriticalPath = true;
        entries.push_back(paired);
    }
    return entries;
}

Setup
setUp(const Workload& w, const Args& a)
{
    Setup s;
    s.entries = drawnEntries(w, a.seed);
    std::string error;
    std::string path = a.refDir + "/" + w.name + ".tsv";
    if (!s.ref.load(path, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        std::exit(1);
    }
    Clock::time_point t0 = Clock::now();
    for (const Entry& e : s.entries)
        s.fitting += core::Experiment::fits(e.cfg);
    s.fitsSec = secondsSince(t0);
    core::Experiment::run(s.entries.front().cfg); // warm-up
    return s;
}

// ---- timed and traced passes -----------------------------------------------

/** Correctness tally over every experiment a run made. */
struct Tally
{
    int attempted = 0;
    int failed = 0;
    double refErrMax = 0.0;

    /** DES outputs must equal the reference (itself DES) exactly. */
    void
    add(const Reference& ref, const Entry& e, const Outputs& o)
    {
        Verdict v = ref.check(e.key, o,
                              e.cfg.backend == sim::BackendKind::Des);
        refErrMax = std::max(refErrMax, v.deviation);
        if (v.failed)
            fail(e, v.why.c_str());
        else
            ++attempted;
    }

    void
    fail(const Entry& e, const char* why)
    {
        ++attempted;
        ++failed;
        std::fprintf(stderr, "perfbench: FAILED %s: %s\n", e.key.c_str(),
                     why);
    }
};

/** Per-call host seconds of one experiment. */
struct CallTimes
{
    double total = 0.0, make = 0.0, lower = 0.0, execute = 0.0,
           results = 0.0;
    AllocCounts alloc;
};

/**
 * sim::makeBackend -> lower -> execute -> results, as
 * core::Experiment::run does it. With @p tracer set, each call gets a
 * span under one span for the experiment, and allocations inside
 * execute are counted.
 */
core::ExperimentResult
runPipeline(const core::ExperimentConfig& cfg, Tracer* tracer,
            int experiment, CallTimes* t)
{
    auto timed = [&](const char* name, double* sec, auto&& call) {
        if (tracer == nullptr) {
            call();
            return;
        }
        int id = tracer->begin(name, experiment);
        call();
        *sec = tracer->end(id);
    };
    int span = tracer ? tracer->begin("experiment", experiment) : -1;
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<sim::Backend> backend;
    core::ExperimentResult result;
    timed("sim.makeBackend", &t->make,
          [&] { backend = sim::makeBackend(cfg.backend); });
    timed("core.lower", &t->lower, [&] { backend->lower(cfg); });
    timed("core.execute", &t->execute, [&] {
        if (tracer)
            startAllocCounting();
        backend->execute();
        if (tracer)
            t->alloc = stopAllocCounting();
    });
    timed("core.results", &t->results, [&] { result = backend->results(); });
    t->total = secondsSince(t0);
    if (tracer)
        tracer->end(span);
    return result;
}

/** One serial pass through the pipeline; returns the pass seconds. */
double
serialPass(const Setup& s, Tally* tally,
           std::vector<double>* expMs, Tracer* tracer,
           std::vector<CallTimes>* calls,
           std::vector<core::ExperimentResult>* results)
{
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < s.entries.size(); ++i) {
        const Entry& e = s.entries[i];
        CallTimes t;
        core::ExperimentResult r;
        try {
            r = runPipeline(e.cfg, tracer, static_cast<int>(i), &t);
            tally->add(s.ref, e, Outputs::of(r));
        } catch (const std::exception& ex) {
            tally->fail(e, ex.what());
        }
        if (expMs)
            expMs->push_back(1e3 * t.total);
        if (calls)
            calls->push_back(t);
        if (results)
            results->push_back(std::move(r));
    }
    return secondsSince(t0);
}

std::vector<core::ExperimentConfig>
configsOf(const Setup& s)
{
    std::vector<core::ExperimentConfig> cfgs;
    for (const Entry& e : s.entries)
        cfgs.push_back(e.cfg);
    return cfgs;
}

/** SweepRunner pass; returns the pass seconds. */
double
sweepPass(const Workload& w, const Setup& s, Tally* tally,
          obs::MetricsRegistry* metrics)
{
    std::vector<core::ExperimentConfig> cfgs = configsOf(s);
    core::SweepRunner runner(std::max(1, w.sweepThreads));
    Clock::time_point t0 = Clock::now();
    std::vector<core::ExperimentResult> rs = runner.run(cfgs, metrics);
    double sec = secondsSince(t0);
    for (std::size_t i = 0; i < rs.size(); ++i)
        tally->add(s.ref, s.entries[i], Outputs::of(rs[i]));
    return sec;
}

// ---- output ----------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
fmtValue(double v)
{
    char buf[64];
    if (v == std::floor(v) && std::abs(v) < 1e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(const Tally& tally, const std::vector<Metric>& metrics)
{
    std::printf("fail_ratio = %s (%d failed / %d attempted)\n",
                fmtValue(tally.attempted
                             ? static_cast<double>(tally.failed) /
                                   tally.attempted
                             : 1.0)
                    .c_str(),
                tally.failed, tally.attempted);
    std::printf("ref_err_max = %s\n", fmtValue(tally.refErrMax).c_str());
    for (const Metric& m : metrics)
        std::printf("  %-28s %22s %s\n", m.name.c_str(),
                    fmtValue(m.value).c_str(), m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += tally.failed == 0 && tally.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                fmtValue(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

void
printHeader(const Workload& w, const Args& a)
{
    char host[256] = "unknown";
    gethostname(host, sizeof host - 1);
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
                w.name.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, a.trace);
    std::printf("host: %s, nproc %u, build %s, compiler %s, commit %s\n",
                host, std::thread::hardware_concurrency(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, a.commit.c_str());
    std::printf("note: the DES model is not validated against hardware; "
                "ref_err_max is the deviation from the committed DES "
                "reference, not a hardware error.\n");
}

/** FNV-1a over every key and output of a pass, all digits. */
std::uint64_t
outputsDigest(const Setup& s,
              const std::vector<core::ExperimentResult>& results)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < results.size(); ++i) {
        Outputs o = Outputs::of(results[i]);
        char buf[160];
        std::snprintf(buf, sizeof buf, "|%d %.17g %.17g %.17g %.17g",
                      o.feasible, o.iterationSec, o.tokensPerJoule,
                      o.peakTempC, o.throttleRatio);
        for (const std::string& part : {s.entries[i].key, std::string(buf)})
            for (unsigned char c : part)
                h = (h ^ c) * 1099511628211ULL;
    }
    return h;
}

// ---- the two runs ----------------------------------------------------------

int
timedRun(const Workload& w, const Args& a)
{
    std::vector<double> setupSec;
    Setup s;
    for (int k = 0; k < kSetupRepeats; ++k) {
        Clock::time_point t0 = k == 0 ? kProcessStart : Clock::now();
        s = setUp(w, a);
        setupSec.push_back(secondsSince(t0));
    }
    std::printf("configs: %zu drawn, %d fit HBM, reference rows %zu\n",
                s.entries.size(), s.fitting, s.ref.size());

    Tally tally;
    std::vector<double> passSec, expMs;
    int passes = 0;
    Clock::time_point start = Clock::now();
    while (passes < w.minPasses || secondsSince(start) < a.seconds) {
        if (w.sweepThreads > 0) {
            // SweepRunner gives the pass time; the serial pass that
            // follows gives per-experiment times, which it does not.
            passSec.push_back(sweepPass(w, s, &tally, nullptr));
            serialPass(s, &tally, &expMs, nullptr, nullptr, nullptr);
        } else {
            passSec.push_back(serialPass(s, &tally, &expMs, nullptr,
                                         nullptr, nullptr));
        }
        ++passes;
    }
    // Fixed per workload (from the fewest passes a run makes), so the
    // metric names the same percentile on every run.
    double tailP = tailPercentile(static_cast<std::size_t>(w.minPasses) *
                                  s.entries.size());
    std::printf("pass seconds:");
    for (double sec : passSec)
        std::printf(" %.4f", sec);
    std::printf("\n");
    std::printf("timed: %d passes, %zu experiments timed; exp_ms_tail is "
                "p%g (n=%zu, %.0f beyond it)\n",
                passes, expMs.size(), tailP, expMs.size(),
                std::floor(static_cast<double>(expMs.size()) *
                           (1.0 - tailP / 100.0)));
    // wall_s is min-of-N: on a shared host a pass only ever runs slower
    // than its cost, by tens of percent for seconds at a time, so the
    // fastest pass is the steadiest estimate of it.
    printResult(tally, {{"wall_s", *std::min_element(passSec.begin(),
                                                     passSec.end()),
                         "s"},
                        {"exp_ms_p50", median(expMs), "ms"},
                        {"exp_ms_tail", percentile(expMs, tailP), "ms"},
                        {"peak_rss_mb", peakRssMb(), "MB"},
                        {"setup_s", median(setupSec), "s"}});
    return 0;
}

int
tracedRun(const Workload& w, const Args& a)
{
    Tracer tracer;
    int setupSpan = tracer.begin("setup", -1);
    Setup s = setUp(w, a);
    tracer.end(setupSpan);
    std::printf("configs: %zu drawn, %d fit HBM, reference rows %zu\n",
                s.entries.size(), s.fitting, s.ref.size());

    // Untraced and traced passes alternate; the counters come from the
    // last traced pass (they repeat exactly), the overhead from the
    // medians.
    Tally tally;
    std::vector<double> untracedSec, tracedSec;
    std::vector<CallTimes> calls;
    std::vector<core::ExperimentResult> results;
    for (int k = 0; k < kTracePairs; ++k) {
        untracedSec.push_back(
            serialPass(s, &tally, nullptr, nullptr, nullptr, nullptr));
        calls.clear();
        results.clear();
        int passSpan = tracer.begin("traced_pass", -1);
        tracedSec.push_back(
            serialPass(s, &tally, nullptr, &tracer, &calls, &results));
        tracer.end(passSpan);
    }
    double untraced = median(untracedSec);
    double traced = median(tracedSec);

    // Totals over the traced pass, and one line per experiment.
    std::printf("traced pass, per experiment:\n");
    double lowerS = 0, executeS = 0, resultsS = 0, desExecuteS = 0;
    double allocCount = 0, allocBytes = 0;
    double popped = 0, cancelled = 0, compactions = 0, aggEvents = 0;
    double flows = 0, fullRecomputes = 0, fastOps = 0, faultsInjected = 0;
    double gpuTicks = 0, simIters = 0, logical = 0, physical = 0;
    double samples = 0, failures = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const core::ExperimentResult& r = results[i];
        const core::ExperimentConfig& cfg = s.entries[i].cfg;
        const CallTimes& t = calls[i];
        lowerS += t.lower;
        executeS += t.execute;
        resultsS += t.results;
        allocCount += static_cast<double>(t.alloc.count);
        allocBytes += static_cast<double>(t.alloc.bytes);
        const obs::SimCounters& c = r.counters;
        popped += static_cast<double>(c.eventsPopped);
        cancelled += static_cast<double>(c.eventsCancelled);
        compactions += static_cast<double>(c.eventCompactions);
        flows += static_cast<double>(c.flowsStarted);
        fullRecomputes += static_cast<double>(c.flowFullRecomputes);
        fastOps += static_cast<double>(c.flowFastJoins +
                                       c.flowFastCompletions);
        faultsInjected += static_cast<double>(c.faultsInjected);
        double world = static_cast<double>(cfg.par.worldSize());
        double phys = r.symmetry.collapsed ? r.symmetry.physicalWorld : world;
        logical += world;
        physical += phys;
        double end = 0.0;
        for (const auto& span : r.iterationSpans)
            end = std::max(end, span.endSec);
        if (cfg.backend == sim::BackendKind::Des) {
            desExecuteS += t.execute;
            aggEvents += static_cast<double>(c.eventsPopped) *
                         (r.symmetry.collapsed ? r.symmetry.multiplicity : 1);
            gpuTicks +=
                std::floor(end / hw::calib::kGovernorPeriodSec) * phys;
        }
        simIters += static_cast<double>(r.iterationSpans.size());
        std::size_t expSamples = 0, expFailures = 0;
        for (const auto& series : r.series)
            expSamples += series.size();
        // The schedule covers the whole failure horizon; count the
        // failures that land inside the simulated run.
        for (const auto& f : r.failureSchedule)
            expFailures += f.timeSec <= end;
        samples += static_cast<double>(expSamples);
        failures += static_cast<double>(expFailures);
        std::printf("  %-64s execute %9.2f ms, simulated %8.2f s, %9llu "
                    "events, %5zu failures, %8zu samples\n",
                    s.entries[i].key.c_str(), 1e3 * t.execute, end,
                    static_cast<unsigned long long>(c.eventsPopped),
                    expFailures, expSamples);
    }
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    // SweepRunner overhead: the run's wall time beyond its per-task
    // time spread over its workers.
    obs::MetricsRegistry sweepMetrics;
    int sweepSpan = tracer.begin("core.SweepRunner::run", -1);
    double sweepSec = sweepPass(w, s, &tally, &sweepMetrics);
    tracer.end(sweepSpan);
    const obs::Histogram* tasks =
        sweepMetrics.findHistogram("sweep.task_wall_seconds");
    double sweepOverheadMs =
        1e3 * (sweepSec - tasks->sum() / std::max(1, w.sweepThreads));

    // Layer probes on inputs derived from the drawn configs.
    double tickSec = 0, buildSec = 0, generateSec = 0, analyzeSec = 0;
    std::uint64_t ops = 0;
    int probeSpan = tracer.begin("probes", -1);
    for (std::size_t i = 0; i < s.entries.size(); ++i) {
        const core::ExperimentConfig& cfg = s.entries[i].cfg;
        int id = tracer.begin("hw.Platform::tick", static_cast<int>(i));
        tickSec += probeTick(cfg, kTickProbeTicks);
        tracer.end(id);
        id = tracer.begin("runtime.ProgramBuilder::build",
                          static_cast<int>(i));
        buildSec += probeBuild(cfg, &ops);
        tracer.end(id);
        id = tracer.begin("resil.FailureGenerator::generate",
                          static_cast<int>(i));
        generateSec += probeGenerate(cfg);
        tracer.end(id);
        id = tracer.begin("scale.SymmetryAnalyzer::analyze",
                          static_cast<int>(i));
        analyzeSec += probeAnalyze(cfg, kAnalyzeProbeCalls);
        tracer.end(id);
    }
    // Critical-path recording cost: execute time of the first config
    // with the recorder off and on, alternating.
    std::vector<double> off, on;
    for (int k = 0; k < kCritPathPairs; ++k)
        for (bool enable : {false, true}) {
            core::ExperimentConfig cfg = s.entries.front().cfg;
            cfg.enableCriticalPath = enable;
            CallTimes t;
            runPipeline(cfg, &tracer, 0, &t);
            (enable ? on : off).push_back(t.execute);
        }
    tracer.end(probeSpan);

    std::filesystem::create_directories(a.traceDir);
    std::string tracePath = a.traceDir + "/" + w.name + "-seed" +
                            std::to_string(a.seed) + ".json";
    if (!tracer.write(tracePath)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     tracePath.c_str());
        return 1;
    }
    double nEntries = static_cast<double>(s.entries.size());
    double physRate = ratio(popped, desExecuteS);
    double aggRate = ratio(aggEvents, desExecuteS);
    std::printf("traced: %zu spans written to %s\n", tracer.size(),
                tracePath.c_str());
    std::printf("outputs digest: %016llx\n",
                static_cast<unsigned long long>(outputsDigest(s, results)));
    std::printf("trace overhead: traced pass %.4f s vs untraced %.4f s "
                "(%+.1f%%)\n",
                traced, untraced, 100.0 * (traced / untraced - 1.0));
    std::printf("event rate: logical %.4g events/s beside physical %.4g "
                "events/s (fold %.4gx)\n",
                aggRate, physRate, ratio(logical, physical));
    printResult(
        tally,
        {{"core.lower_ms", 1e3 * lowerS, "ms"},
         {"core.execute_ms", 1e3 * executeS, "ms"},
         {"core.results_ms", 1e3 * resultsS, "ms"},
         {"core.sweep_overhead_ms", sweepOverheadMs, "ms"},
         {"core.alloc_count", allocCount, "count"},
         {"core.alloc_mb", allocBytes / 1e6, "MB"},
         {"core.allocs_per_event", ratio(allocCount, popped), "ratio"},
         {"core.ref_err_max", tally.refErrMax, "ratio"},
         {"parallel.fits_ms", 1e3 * s.fitsSec, "ms"},
         {"sim.events", popped, "count"},
         {"sim.compactions", compactions, "count"},
         {"sim.cancel_ratio", ratio(cancelled, popped + cancelled), "ratio"},
         {"sim.ns_per_event", 1e9 * ratio(desExecuteS, popped), "ns/event"},
         {"hw.gpu_ticks", gpuTicks, "count"},
         {"hw.tick_us", 1e6 * tickSec / (kTickProbeTicks * nEntries), "us"},
         {"net.flows", flows, "count"},
         {"net.full_recomputes", fullRecomputes, "count"},
         {"net.fast_ratio", ratio(fastOps, 2.0 * flows), "ratio"},
         {"runtime.build_ms", 1e3 * buildSec, "ms"},
         {"runtime.ops", static_cast<double>(ops), "count"},
         {"runtime.sim_iters", simIters, "count"},
         {"scale.fold_ratio", ratio(logical, physical), "ratio"},
         {"scale.agg_events_per_s", aggRate, "1/s"},
         {"scale.phys_events_per_s", physRate, "1/s"},
         {"scale.ns_per_logical_gpu", 1e9 * ratio(executeS, logical), "ns"},
         {"scale.analyze_ns", 1e9 * analyzeSec / (kAnalyzeProbeCalls * nEntries),
          "ns"},
         {"telemetry.samples", samples, "count"},
         {"telemetry.series_mb", samples * sizeof(telemetry::Sample) / 1e6,
          "MB"},
         {"resil.failures", failures, "count"},
         {"resil.generate_ms", 1e3 * generateSec, "ms"},
         {"faults.injected", faultsInjected, "count"},
         {"obs.critpath_overhead", median(on) / median(off) - 1.0, "ratio"},
         {"trace.overhead", traced / untraced - 1.0, "ratio"}});
    return 0;
}

// ---- other modes -----------------------------------------------------------

int
listConfigs(const Workload& w, const Args& a)
{
    for (const Entry& e : drawnEntries(w, a.seed))
        std::printf("%s%s\n", e.key.c_str(),
                    e.cfg.enableCriticalPath ? " [critical path]" : "");
    return 0;
}

int
generateReference(const Workload& w, const Args& a)
{
    std::vector<Entry> all = space(w);
    std::vector<core::ExperimentConfig> cfgs;
    for (const Entry& e : all)
        cfgs.push_back(referenceConfig(e));
    std::fprintf(stderr, "perfbench: running %zu reference configs\n",
                 cfgs.size());
    std::vector<core::ExperimentResult> rs =
        core::SweepRunner(kRefThreads).run(cfgs);
    std::map<std::string, Outputs> rows;
    for (std::size_t i = 0; i < all.size(); ++i)
        rows[all[i].key] = Outputs::of(rs[i]);
    if (rows.size() != all.size()) {
        std::fprintf(stderr, "perfbench: duplicate config keys in %s\n",
                     w.name.c_str());
        return 1;
    }
    std::string path = a.refDir + "/" + w.name + ".tsv";
    std::string header =
        "# Reference outputs of workload " + w.name +
        ": DES" +
        (all.front().cfg.backend == sim::BackendKind::Des
             ? ""
             : " (symmetry collapse where symmetric)") +
        " on every config of its space.\n# Regenerate only when the "
        "simulated model changes on purpose: perfbench --workload " +
        w.name + " --gen-ref\n";
    if (!Reference::save(path, header, rows)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(stderr, "perfbench: wrote %zu rows to %s\n", rows.size(),
                 path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    Args a = parseArgs(argc, argv);
    const Workload& w = *findWorkload(a.workload);
    if (a.list)
        return listConfigs(w, a);
    if (a.genRef)
        return generateReference(w, a);
    printHeader(w, a);
    return a.trace ? tracedRun(w, a) : timedRun(w, a);
}
