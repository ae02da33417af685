// Fixture: clean counterpart. Prose below mentions rand() and
// std::random_device only in comments, which must not trip the checker:
// rand() is banned, std::random_device is banned, getenv is banned.
/* Block comments mentioning steady_clock must not trip either,
#include <iostream>
   nor a directive inside one. */
#include <functional>

namespace fixture {

// A string containing a protocol separator is not a comment start.
const char* kDocsUrl = "https://example.com/docs";

// Banned names inside string literals are content, not code.
const char* kPolicy =
    "no rand(), getenv(\"HOME\"), time(nullptr) or system_clock here";

// std::function is banned by directory (sim/net/obs), not in core.
std::function<void()> g_onDone;

unsigned
next(unsigned state)
{
    return state * 1664525u + 1013904223u;
}

} // namespace fixture
