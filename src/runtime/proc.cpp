#include "runtime/proc.hpp"

#include "util/error.hpp"

namespace wasp::runtime {

mpi::Comm& Proc::comm() {
  WASP_CHECK_MSG(comm_ != nullptr, "process has no communicator");
  return *comm_;
}

sim::Task<void> Proc::timed_span(trace::Iface iface, sim::Time duration) {
  const sim::Time t0 = now();
  co_await sim::Delay(engine(), duration);
  record(iface, trace::Op::kCompute, {}, 0, 0, 1, t0);
}

sim::Task<void> Proc::compute(sim::Time duration) {
  return timed_span(trace::Iface::kCpu, duration);
}

sim::Task<void> Proc::gpu_compute(sim::Time duration) {
  return timed_span(trace::Iface::kGpu, duration);
}

sim::Task<void> Proc::barrier() {
  const sim::Time t0 = now();
  co_await comm().barrier();
  record(trace::Iface::kMpi, trace::Op::kBarrier, {}, 0, 0, 1, t0);
}

}  // namespace wasp::runtime
