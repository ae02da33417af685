#include "reference.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

namespace perfbench {

Outputs
Outputs::of(const charllm::core::ExperimentResult& r)
{
    return {r.feasible, r.avgIterationSeconds, r.tokensPerJoule,
            r.peakTempC, r.throttleRatio};
}

namespace {

bool
parseDouble(const std::string& s, double* out)
{
    if (s.empty())
        return false;
    char* end = nullptr;
    *out = std::strtod(s.c_str(), &end);
    return *end == '\0';
}

double
relDev(double got, double ref)
{
    if (got == ref)
        return 0.0;
    return std::abs(got - ref) / std::max(std::abs(ref), 1e-300);
}

} // namespace

bool
Reference::load(const std::string& path, std::string* error)
{
    std::ifstream in(path);
    if (!in) {
        *error = "cannot read " + path;
        return false;
    }
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> f;
        std::stringstream ss(line);
        std::string cell;
        while (std::getline(ss, cell, '\t'))
            f.push_back(cell);
        Outputs o;
        if (f.size() != 6 || (f[1] != "0" && f[1] != "1") ||
            !parseDouble(f[2], &o.iterationSec) ||
            !parseDouble(f[3], &o.tokensPerJoule) ||
            !parseDouble(f[4], &o.peakTempC) ||
            !parseDouble(f[5], &o.throttleRatio)) {
            *error = path + ":" + std::to_string(lineNo) + ": malformed row";
            return false;
        }
        o.feasible = f[1] == "1";
        rows[f[0]] = o;
    }
    return true;
}

bool
Reference::save(const std::string& path, const std::string& header,
                const std::map<std::string, Outputs>& rows)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "%s", header.c_str());
    std::fprintf(f, "# key\tfeasible\titeration_s\ttokens_per_J\tpeak_C\t"
                    "throttle_ratio\n");
    for (const auto& [key, o] : rows)
        std::fprintf(f, "%s\t%d\t%.17g\t%.17g\t%.17g\t%.17g\n", key.c_str(),
                     o.feasible ? 1 : 0, o.iterationSec, o.tokensPerJoule,
                     o.peakTempC, o.throttleRatio);
    return std::fclose(f) == 0;
}

Verdict
Reference::check(const std::string& key, const Outputs& got,
                 bool exact) const
{
    Verdict v;
    auto it = rows.find(key);
    if (it == rows.end()) {
        v.failed = true;
        v.why = "no reference row";
        return v;
    }
    const Outputs& ref = it->second;
    for (double x : {got.iterationSec, got.tokensPerJoule, got.peakTempC,
                     got.throttleRatio})
        if (!std::isfinite(x)) {
            v.failed = true;
            v.why = "non-finite output";
            return v;
        }
    if (ref.feasible && !got.feasible) {
        v.failed = true;
        v.why = "infeasible, reference feasible";
        return v;
    }
    if (ref.feasible && got.feasible)
        v.deviation = std::max(
            {relDev(got.iterationSec, ref.iterationSec),
             relDev(got.tokensPerJoule, ref.tokensPerJoule),
             relDev(got.peakTempC, ref.peakTempC),
             std::abs(got.throttleRatio - ref.throttleRatio)});
    if (exact && !(got == ref)) {
        v.failed = true;
        v.why = "DES output differs from reference";
    }
    return v;
}

} // namespace perfbench
