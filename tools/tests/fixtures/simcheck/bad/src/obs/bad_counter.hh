// Fixture: hot-dir-alloc must fire on an allocating increment path.
#ifndef FIXTURE_BAD_COUNTER_HH
#define FIXTURE_BAD_COUNTER_HH

#include <vector>

namespace fixture {

class Counter {
public:
    void increment(int v) { samples.push_back(v); }

private:
    std::vector<int> samples;
};

} // namespace fixture

#endif
