// Fixture: a hot-directory callback held by a concrete callable type,
// not std::function; records live in a fixed slab, not make_shared.
#include <array>

namespace fixture {

struct Record {
    int id;
};

template <typename Fn>
void
dispatch(std::array<Record, 8>& slab, int id, Fn&& fn)
{
    slab[static_cast<unsigned>(id % 8)] = Record{id};
    fn(id);
}

} // namespace fixture
