// Fixture: unit-raw-double must fire in a physics header.
#ifndef FIXTURE_BAD_UNITS_HH
#define FIXTURE_BAD_UNITS_HH

namespace fixture {

void setPower(double power_w);

} // namespace fixture

#endif
