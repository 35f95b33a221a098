#pragma once
// Background CPU-side activity for the ARM application processor. The
// attacker and the victim's host tasks share the board with PetaLinux
// housekeeping; what the power model needs from that is the current it adds
// to the FPD (application cores), DDR and LPD (timer) rails, and when. This
// background draw is the baseline the attack must see through.

#include <cstdint>

#include "amperebleed/power/activity.hpp"
#include "amperebleed/sim/time.hpp"

namespace amperebleed::soc {

/// Background OS noise on a PetaLinux board: housekeeping bursts on the
/// application cores (with their DRAM traffic) and the periodic timer tick
/// serviced through the low-power domain. This is the "process scheduling
/// interference" the paper minimizes by core-pinning but cannot remove; it
/// is what keeps the CPU-side channels weaker than the FPGA channel.
struct BackgroundActivityParams {
  double burst_rate_hz = 25.0;  // Poisson arrival rate of housekeeping work
  sim::TimeNs mean_burst_duration = sim::milliseconds(4);
  double cpu_burst_current_amps = 0.35;   // one core waking up
  double dram_burst_current_amps = 0.05;  // its memory traffic
  double lpd_tick_current_amps = 0.006;   // PMU/timer blip
  sim::TimeNs lpd_tick_period = sim::milliseconds(10);  // 100 Hz jiffies
  sim::TimeNs lpd_tick_width = sim::microseconds(300);
};

/// Build a background activity schedule covering [0, end).
power::RailActivity make_background_os_activity(
    const BackgroundActivityParams& params, sim::TimeNs end,
    std::uint64_t seed);

}  // namespace amperebleed::soc
