// Fixture: det-ambient-entropy must fire on both wall clocks and on
// time(nullptr).
#include <chrono>
#include <ctime>

namespace fixture {

long
hostTime()
{
    auto mono = std::chrono::steady_clock::now();
    auto wall = std::chrono::system_clock::now();
    long since = static_cast<long>(time(nullptr));
    return since + static_cast<long>((wall.time_since_epoch() +
                                      mono.time_since_epoch()).count());
}

} // namespace fixture
