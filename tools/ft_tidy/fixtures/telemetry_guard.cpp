// Fixture for the ft-telemetry-guard check (driven by
// run_check_tests.py). Uses the real sink header so the fixture
// exercises exactly the macros src/ uses.

#include "telemetry/sink.hpp"

namespace tel = fasttrack::telemetry;
using tel::EventKind;

// --- positive case -----------------------------------------------------

void bareEmit(tel::ThreadLog &log)
{
    log.emit(EventKind::inject, // expect-warning: ft-telemetry-guard
             1, 2, 0, 42, 0);
}

// --- negative case -----------------------------------------------------

template <bool HasTelem> void staticallyGated(tel::ThreadLog *log)
{
    FT_TELEM(HasTelem, log, EventKind::route, 3, 4, 1, 43, 0);
}
template void staticallyGated<true>(tel::ThreadLog *);
template void staticallyGated<false>(tel::ThreadLog *);

// --- suppression -------------------------------------------------------

void sanctionedBareEmit(tel::ThreadLog &log)
{
    log.emit(EventKind::deflect, // ft-lint: allow(ft-telemetry-guard)
             7, 8, 3, 45, 0);
}
