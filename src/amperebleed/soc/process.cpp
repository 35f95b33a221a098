#include "amperebleed/soc/process.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "amperebleed/util/rng.hpp"

namespace amperebleed::soc {

power::RailActivity make_background_os_activity(
    const BackgroundActivityParams& params, sim::TimeNs end,
    std::uint64_t seed) {
  if (end.ns < 0) {
    throw std::invalid_argument("background activity: negative end");
  }
  power::RailActivity out;
  auto& fpd = out.on(power::Rail::FpdCpu);
  auto& ddr = out.on(power::Rail::Ddr);
  auto& lpd = out.on(power::Rail::LpdCpu);

  // Housekeeping bursts: Poisson arrivals, exponential durations, run
  // back-to-back if they would overlap (one background core).
  if (params.burst_rate_hz > 0.0) {
    util::Rng rng(util::hash_combine(seed, 0xb6));
    sim::TimeNs cursor{0};
    for (;;) {
      const double gap_s =
          -std::log(1.0 - rng.uniform()) / params.burst_rate_hz;
      const double dur_s = -std::log(1.0 - rng.uniform()) *
                           params.mean_burst_duration.seconds();
      const sim::TimeNs start{
          cursor.ns + std::max<std::int64_t>(
                          1, sim::from_seconds(gap_s).ns)};
      const sim::TimeNs stop{
          start.ns + std::max<std::int64_t>(1, sim::from_seconds(dur_s).ns)};
      if (start >= end) break;
      fpd.append(start, params.cpu_burst_current_amps);
      ddr.append(start, params.dram_burst_current_amps);
      fpd.append(stop, 0.0);
      ddr.append(stop, 0.0);
      cursor = stop;
    }
  }

  // Timer tick through the low-power domain.
  if (params.lpd_tick_period.ns > 0 && params.lpd_tick_width.ns > 0 &&
      params.lpd_tick_width < params.lpd_tick_period) {
    for (sim::TimeNs t{params.lpd_tick_period}; t < end;
         t += params.lpd_tick_period) {
      lpd.append(t, params.lpd_tick_current_amps);
      lpd.append(t + params.lpd_tick_width, 0.0);
    }
  }
  return out;
}

}  // namespace amperebleed::soc
