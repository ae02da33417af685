// Fixture: det-ambient-entropy must fire on each line below. Line 12
// is the string-literal case: the `//` inside the literal is content,
// not a comment, and must not hide the banned construct after it.
#include <cstdlib>
#include <random>

namespace fixture {

unsigned
entropy()
{
    const char* docs = "https://example.com/docs"; std::random_device rd;
    (void)docs;
    unsigned r = static_cast<unsigned>(rand());
    const char* home = getenv("HOME");
    (void)home;
    return r + rd();
}

} // namespace fixture
