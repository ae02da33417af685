// Fixture: an allocation-free inline increment path. Prose may name
// push_back, make_shared, new or std::function; only code is checked.
#ifndef FIXTURE_CLEAN_COUNTER_HH
#define FIXTURE_CLEAN_COUNTER_HH

namespace fixture {

class Counter {
public:
    void increment(long v) { total += v; }
    const char* help() const { return "never push_back(v) or new here"; }

private:
    long total = 0;
};

} // namespace fixture

#endif
