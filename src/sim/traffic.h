#pragma once
// The intersection traffic simulator — the substrate that replaces the
// paper's 180-day Belarus surveillance feed.
//
// Poisson arrivals feed four routes; left-turning routes hold at their
// stop line until a gap-acceptance check against conflicting through
// traffic passes. Oncoming blockers (vans/trucks waiting to turn left on
// the opposite side) create the blind areas the paper studies. The
// simulator exposes the *ground truth* needed to label segments exactly
// the way the paper labels them: whether a blind area exists (big vehicle
// opposite), whether the subject turned (keyframe = front wheel on the
// lane line), and whether the danger zone held a threat.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "sim/intersection.h"
#include "sim/vehicle.h"
#include "sim/weather.h"

namespace safecross::sim {

struct TrafficConfig {
  double dt = 1.0 / 30.0;        // matches the paper's 30 Hz frame rate
  double critical_gap_s = 5.0;   // base gap drivers demand before turning
  double blocker_critical_gap_s = 6.5;  // opposite-side turners are more cautious
  // Pedestrian arrivals per second per crosswalk. 0 (default) disables
  // pedestrians entirely — they are the "blind spot pedestrian warning"
  // extension (§VI-B), not part of the paper's core scenario.
  double pedestrian_rate = 0.0;
};

/// A pedestrian on one of the two crosswalks (north exit / south exit of
/// the junction). Walks across the crossing road at walking speed; left
/// turners completing their turn must yield.
struct Pedestrian {
  std::uint64_t id = 0;
  int crosswalk = 0;     // 0 = north (EB-left exit), 1 = south (WB-left exit)
  double progress = 0.0; // metres walked from the crosswalk's start
  double speed = 1.3;    // m/s
  int direction = 1;     // +1 walks +x, -1 walks -x
};

/// The two left-turn approaches SafeCross can guard at this junction
/// (the paper's future work asks for all four directions; the east-west
/// pair is the symmetric core — each side's waiters are the other side's
/// blockers).
enum class Approach { EastboundLeft = 0, WestboundLeft = 1 };
constexpr int kNumApproaches = 2;

const char* approach_name(Approach a);

class TrafficSimulator {
 public:
  TrafficSimulator(WeatherParams weather, std::uint64_t seed, IntersectionGeometry geometry = {},
                   TrafficConfig config = {});

  /// Advance one step of config().dt seconds.
  void step();

  double time() const { return time_; }
  const TrafficConfig& config() const { return config_; }
  const Intersection& intersection() const { return intersection_; }
  const WeatherParams& weather() const { return weather_; }
  const std::vector<Vehicle>& vehicles() const { return vehicles_; }

  /// World position of a vehicle's front bumper.
  Point2 position(const Vehicle& v) const;
  /// Unit heading of a vehicle.
  Point2 heading(const Vehicle& v) const;

  // --- ground truth for labeling (per approach; the no-argument
  // overloads keep the paper's primary EastboundLeft scenario terse) ---

  /// The left-turner whose decision is "live" on the given approach: the
  /// one nearest its stop line that has not yet passed the keyframe point.
  const Vehicle* subject(Approach approach) const;
  const Vehicle* subject() const { return subject(Approach::EastboundLeft); }

  /// The opposite-side left-waiting vehicle at its stop line, if any —
  /// the potential view blocker for this approach's subject.
  const Vehicle* blocker(Approach approach) const;
  const Vehicle* blocker() const { return blocker(Approach::EastboundLeft); }

  /// True when blocker() exists and is big enough to occlude (van/truck) —
  /// the paper's "segment with a blind area" rule.
  bool blind_area_present(Approach approach) const;
  bool blind_area_present() const { return blind_area_present(Approach::EastboundLeft); }

  /// Seconds until the nearest oncoming through vehicle reaches the
  /// approach's conflict point; +inf when the lane is empty.
  double nearest_threat_gap_s(Approach approach) const;
  double nearest_threat_gap_s() const { return nearest_threat_gap_s(Approach::EastboundLeft); }

  /// True when it is unsafe to turn right now: a threat reaches the
  /// conflict point within the weather-adjusted gap this approach's
  /// drivers demand. This is the binary class-0/class-1 label truth.
  bool dangerous_to_turn(Approach approach) const;
  bool dangerous_to_turn() const { return dangerous_to_turn(Approach::EastboundLeft); }

  /// X-coordinate of the point where the approach's turn path crosses the
  /// oncoming through lane.
  double conflict_x(Approach approach) const;
  double conflict_x() const { return conflict_x(Approach::EastboundLeft); }

  /// Vehicle ids whose turn keyframe (front wheel on the lane line) fired
  /// during the *last* step() call.
  const std::vector<std::uint64_t>& turn_keyframes(Approach approach) const {
    return keyframes_[static_cast<std::size_t>(approach)];
  }
  const std::vector<std::uint64_t>& turn_keyframes() const {
    return turn_keyframes(Approach::EastboundLeft);
  }

  /// Count of completed left turns on an approach since construction.
  std::uint64_t completed_turns(Approach approach) const {
    return completed_turns_[static_cast<std::size_t>(approach)];
  }
  std::uint64_t completed_turns() const { return completed_turns(Approach::EastboundLeft); }

  // --- pedestrians (extension; empty unless config.pedestrian_rate > 0) ---

  const std::vector<Pedestrian>& pedestrians() const { return pedestrians_; }

  /// World position of a pedestrian.
  Point2 pedestrian_position(const Pedestrian& p) const;

  /// True when a pedestrian is inside the approach's exit corridor on its
  /// crosswalk — the turner must yield even if the vehicle gap is open.
  bool pedestrian_conflict(Approach approach) const;

  /// Crosswalk centre-line y coordinate (0 = north, 1 = south).
  double crosswalk_y(int crosswalk) const;

  // --- checkpoint serialization ---
  // Captures the full dynamic state (RNG stream, clock, every vehicle and
  // pedestrian, spawn timers, keyframe/turn tallies) so a restored
  // simulator continues the *same* trajectory bit-exactly. Static inputs
  // (weather, geometry, config) are reconstruction parameters, not state —
  // the owner must rebuild the simulator from the same config first.
  void save_state(common::StateWriter& w) const;
  void load_state(common::StateReader& r);

 private:
  template <class Self, class A>
  static void persist(Self& self, A& a);

  void maybe_spawn();
  void spawn(RouteId route);
  void update_pedestrians();
  void update_route(RouteId route);
  bool gap_acceptable(const Vehicle& v) const;
  double accel_limit() const;
  double brake_limit() const;

  TrafficConfig config_;
  WeatherParams weather_;
  Intersection intersection_;
  safecross::Rng rng_;
  double time_ = 0.0;
  std::uint64_t next_id_ = 1;
  std::vector<Vehicle> vehicles_;
  std::vector<double> next_spawn_;  // per-route next arrival time
  std::array<std::vector<std::uint64_t>, kNumApproaches> keyframes_;
  std::array<std::uint64_t, kNumApproaches> completed_turns_{};
  std::vector<Pedestrian> pedestrians_;
  std::array<double, 2> next_pedestrian_{};  // per-crosswalk next arrival
};

}  // namespace safecross::sim
