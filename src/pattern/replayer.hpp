// Generic pattern replayer: drives a JobPattern through the existing io::
// interface layers (Posix/Stdio/MpiIo/Hdf5/CompressedPosix) and the
// workflow DAG engine. Each lane is one simulated process; spawn, app
// registration, rng and await order are fixed by the pattern, so a replay
// is deterministic.
#pragma once

#include "pattern/pattern.hpp"
#include "runtime/simulation.hpp"

namespace wasp::pattern {

/// Spawn every lane (and the DAG driver, when the pattern has one) of
/// `pat` into the simulation's engine; the caller runs the engine
/// afterwards. The pattern is copied; the caller's object need not outlive
/// the run. A handle used on a layer it was not opened on throws SimError.
void replay(runtime::Simulation& sim, const JobPattern& pat);

}  // namespace wasp::pattern
