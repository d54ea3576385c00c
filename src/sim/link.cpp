#include "sim/link.hpp"

#include <algorithm>

namespace wasp::sim {

double SharedLink::snapshot_rate(util::Bytes granularity) const noexcept {
  const double streams = static_cast<double>(std::max<std::size_t>(active_, 1));
  double rate = std::min(cfg_.per_stream_bps, cfg_.capacity_bps / streams);
  if (cfg_.efficiency_bytes > 0 && granularity > 0) {
    const double s = static_cast<double>(granularity);
    rate *= s / (s + static_cast<double>(cfg_.efficiency_bytes));
  }
  return std::max(rate, 1.0);  // never stall completely
}

Task<void> SharedLink::transfer(util::Bytes n, util::Bytes granularity) {
  if (granularity == 0) granularity = n;
  ResourceGuard slot = co_await slots_.acquire();
  ++active_;
  peak_ = std::max(peak_, active_);
  const double rate = snapshot_rate(granularity);
  co_await Delay(eng_, cfg_.latency + seconds(static_cast<double>(n) / rate));
  --active_;
  ++completed_;
  bytes_ += n;
}

}  // namespace wasp::sim
