// Fixture: obs .cc files may grow containers; registration runs once
// per run, outside the event loop.
#include <vector>

namespace fixture {

std::vector<long> g_registry;

void
registerCounter(long id)
{
    g_registry.reserve(16);
    g_registry.push_back(id);
}

} // namespace fixture
