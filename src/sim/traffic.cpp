#include "sim/traffic.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace safecross::sim {

namespace {
constexpr double kGravity = 9.81;
constexpr double kKeyframeOffset = 0.5;  // metres past the stop line = "wheel on the line"

double route_rate(RouteId route, const WeatherParams& w) {
  switch (route) {
    case RouteId::WestboundThrough: return w.through_rate;
    case RouteId::WestboundLeftWait: return w.blocker_rate;
    case RouteId::EastboundLeft: return w.left_turn_rate;
    case RouteId::EastboundThrough: return w.through_rate * 0.8;
  }
  return 0.0;
}

bool yields(RouteId route) {
  return route == RouteId::EastboundLeft || route == RouteId::WestboundLeftWait;
}

RouteId subject_route(Approach a) {
  return a == Approach::EastboundLeft ? RouteId::EastboundLeft : RouteId::WestboundLeftWait;
}

RouteId threat_route(Approach a) {
  return a == Approach::EastboundLeft ? RouteId::WestboundThrough : RouteId::EastboundThrough;
}

}  // namespace

const char* approach_name(Approach a) {
  switch (a) {
    case Approach::EastboundLeft: return "eastbound-left";
    case Approach::WestboundLeft: return "westbound-left";
  }
  return "?";
}

TrafficSimulator::TrafficSimulator(WeatherParams weather, std::uint64_t seed,
                                   IntersectionGeometry geometry, TrafficConfig config)
    : config_(config), weather_(weather), intersection_(geometry), rng_(seed) {
  next_spawn_.resize(kNumRoutes);
  for (int r = 0; r < kNumRoutes; ++r) {
    const double rate = route_rate(static_cast<RouteId>(r), weather_);
    next_spawn_[r] = rate > 0.0 ? rng_.exponential(rate) : std::numeric_limits<double>::infinity();
  }
  for (int c = 0; c < 2; ++c) {
    next_pedestrian_[c] = config_.pedestrian_rate > 0.0
                              ? rng_.exponential(config_.pedestrian_rate)
                              : std::numeric_limits<double>::infinity();
  }
}

double TrafficSimulator::crosswalk_y(int crosswalk) const {
  const auto& g = intersection_.geometry();
  // Just outside the junction box on the crossing (north-south) road.
  return crosswalk == 0 ? g.center_y - 2.0 * g.lane_width - 1.5
                        : g.center_y + 2.0 * g.lane_width + 1.5;
}

Point2 TrafficSimulator::pedestrian_position(const Pedestrian& p) const {
  const auto& g = intersection_.geometry();
  const double span = 3.0 * g.lane_width;  // crosswalk length across the NS road
  const double start_x = g.center_x - 1.5 * g.lane_width;
  const double x = p.direction > 0 ? start_x + p.progress : start_x + span - p.progress;
  return {x, crosswalk_y(p.crosswalk)};
}

bool TrafficSimulator::pedestrian_conflict(Approach approach) const {
  const auto& g = intersection_.geometry();
  // The turner's exit corridor crosses crosswalk 0 (EB-left exits north)
  // or crosswalk 1 (WB-left exits south).
  const int crosswalk = approach == Approach::EastboundLeft ? 0 : 1;
  const double exit_x = approach == Approach::EastboundLeft ? g.center_x + 0.5 * g.lane_width
                                                            : g.center_x - 0.5 * g.lane_width;
  for (const Pedestrian& p : pedestrians_) {
    if (p.crosswalk != crosswalk) continue;
    if (std::abs(pedestrian_position(p).x - exit_x) < 2.5) return true;
  }
  return false;
}

void TrafficSimulator::update_pedestrians() {
  const auto& g = intersection_.geometry();
  const double span = 3.0 * g.lane_width;
  for (int c = 0; c < 2; ++c) {
    if (time_ < next_pedestrian_[static_cast<std::size_t>(c)]) continue;
    Pedestrian p;
    p.id = next_id_++;
    p.crosswalk = c;
    p.speed = 1.3 * rng_.uniform(0.8, 1.2);
    p.direction = rng_.bernoulli(0.5) ? 1 : -1;
    pedestrians_.push_back(p);
    next_pedestrian_[static_cast<std::size_t>(c)] =
        time_ + rng_.exponential(config_.pedestrian_rate);
  }
  for (Pedestrian& p : pedestrians_) p.progress += p.speed * config_.dt;
  std::erase_if(pedestrians_, [&](const Pedestrian& p) { return p.progress >= span; });
}

double TrafficSimulator::accel_limit() const {
  return 2.5 * std::min(1.0, weather_.friction / 0.7);
}

double TrafficSimulator::brake_limit() const { return weather_.friction * kGravity; }

Point2 TrafficSimulator::position(const Vehicle& v) const {
  return intersection_.route(v.route).position(v.s);
}

Point2 TrafficSimulator::heading(const Vehicle& v) const {
  return intersection_.route(v.route).tangent(v.s);
}

void TrafficSimulator::spawn(RouteId route) {
  Vehicle v;
  v.id = next_id_++;
  v.route = route;
  // Bigger vehicles dominate the opposite left-wait route — they are the
  // blockers the scenario needs; elsewhere cars dominate.
  const double roll = rng_.uniform();
  if (route == RouteId::WestboundLeftWait) {
    v.type = roll < 0.5 ? VehicleType::Truck : (roll < 0.8 ? VehicleType::Van : VehicleType::Car);
  } else {
    v.type = roll < 0.85 ? VehicleType::Car : (roll < 0.95 ? VehicleType::Van : VehicleType::Truck);
  }
  const VehicleDims dims = vehicle_dims(v.type);
  v.length = dims.length;
  v.width = dims.width;
  v.s = v.length;  // front bumper just inside the world
  v.free_speed = 13.9 * weather_.speed_factor * rng_.uniform(0.9, 1.1);
  v.speed = v.free_speed * rng_.uniform(0.8, 1.0);
  v.intensity = rng_.uniform(0.5, 0.95);
  v.aggressiveness = rng_.normal(0.0, weather_.driver_sigma_s);
  vehicles_.push_back(v);
}

void TrafficSimulator::maybe_spawn() {
  for (int r = 0; r < kNumRoutes; ++r) {
    if (time_ < next_spawn_[r]) continue;
    // Entry must be clear: no vehicle still occupying the first metres.
    const auto route = static_cast<RouteId>(r);
    bool clear = true;
    for (const Vehicle& v : vehicles_) {
      if (v.route == route && v.rear_s() < vehicle_dims(VehicleType::Truck).length + 3.0) {
        clear = false;
        break;
      }
    }
    if (!clear) continue;  // retry next step without rescheduling
    spawn(route);
    const double rate = route_rate(route, weather_);
    next_spawn_[r] = time_ + rng_.exponential(rate);
  }
}

double TrafficSimulator::conflict_x(Approach approach) const {
  const auto& g = intersection_.geometry();
  // The turner crosses the oncoming through lane at its exit lane's x.
  return approach == Approach::EastboundLeft ? g.center_x + 0.5 * g.lane_width
                                             : g.center_x - 0.5 * g.lane_width;
}

double TrafficSimulator::nearest_threat_gap_s(Approach approach) const {
  const double cx = conflict_x(approach);
  // Oncoming traffic travels -x toward the EB subject, +x toward the WB
  // subject; `toward` gives the signed distance still to cover.
  const double dir = approach == Approach::EastboundLeft ? 1.0 : -1.0;
  const RouteId lane = threat_route(approach);
  double best = std::numeric_limits<double>::infinity();
  for (const Vehicle& v : vehicles_) {
    if (v.route != lane) continue;
    const double to_conflict = (position(v).x - cx) * dir;
    if (to_conflict < -3.0) continue;     // already past the conflict point
    if (to_conflict < 3.0) return 0.0;    // inside the conflict box right now
    best = std::min(best, to_conflict / std::max(v.speed, 1.0));
  }
  return best;
}

bool TrafficSimulator::dangerous_to_turn(Approach approach) const {
  // Each approach's population has its own demanded gap (WB waiters are
  // the more cautious crowd); the label truth matches the behaviour.
  const double base = approach == Approach::EastboundLeft ? config_.critical_gap_s
                                                          : config_.blocker_critical_gap_s;
  return nearest_threat_gap_s(approach) < base + weather_.gap_margin_s;
}

bool TrafficSimulator::gap_acceptable(const Vehicle& v) const {
  if (v.route == RouteId::EastboundLeft) {
    const double demand = std::max(
        2.0, config_.critical_gap_s + weather_.gap_margin_s - v.aggressiveness);
    return nearest_threat_gap_s(Approach::EastboundLeft) > demand &&
           !pedestrian_conflict(Approach::EastboundLeft);
  }
  // WestboundLeftWait yields to eastbound through traffic and pedestrians.
  const double demand = std::max(
      2.5, config_.blocker_critical_gap_s + weather_.gap_margin_s - v.aggressiveness);
  return nearest_threat_gap_s(Approach::WestboundLeft) > demand &&
         !pedestrian_conflict(Approach::WestboundLeft);
}

void TrafficSimulator::update_route(RouteId route) {
  // Collect indices on this route ordered by decreasing s (leader first).
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < vehicles_.size(); ++i) {
    if (vehicles_[i].route == route) order.push_back(i);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return vehicles_[a].s > vehicles_[b].s; });

  const double stop_s = intersection_.stop_line_s(route);
  const Vehicle* leader = nullptr;
  for (const std::size_t idx : order) {
    Vehicle& v = vehicles_[idx];
    double gap = std::numeric_limits<double>::max();
    if (leader != nullptr) gap = leader->rear_s() - v.s;

    if (yields(route) && v.state != DriverState::Proceeding && v.state != DriverState::Done) {
      if (v.s < stop_s - 0.6) {
        // Approach: brake for the stop line (and the leader, whichever is
        // closer). The controller rests ~2 m short of its obstruction, so
        // aim past the line to come to rest just behind it.
        v.state = DriverState::Cruising;
        gap = std::min(gap, stop_s + 1.7 - v.s);
      } else {
        // At the line: hold until the gap opens.
        v.state = DriverState::HoldingAtStop;
        v.speed = 0.0;
        v.hold_time += config_.dt;
        if (gap_acceptable(v)) v.state = DriverState::Proceeding;
        leader = &v;
        continue;
      }
    }

    const bool was_before_keyframe = v.s < stop_s + kKeyframeOffset;
    advance_vehicle(v, config_.dt, gap, accel_limit(), brake_limit());

    if (yields(route) && was_before_keyframe && v.s >= stop_s + kKeyframeOffset &&
        v.state == DriverState::Proceeding) {
      const Approach approach = route == RouteId::EastboundLeft ? Approach::EastboundLeft
                                                                : Approach::WestboundLeft;
      keyframes_[static_cast<std::size_t>(approach)].push_back(v.id);
      ++completed_turns_[static_cast<std::size_t>(approach)];
    }
    leader = &v;
  }
}

void TrafficSimulator::step() {
  for (auto& k : keyframes_) k.clear();
  maybe_spawn();
  if (config_.pedestrian_rate > 0.0) update_pedestrians();
  for (int r = 0; r < kNumRoutes; ++r) update_route(static_cast<RouteId>(r));
  // Remove vehicles that have fully left their route.
  std::erase_if(vehicles_, [&](const Vehicle& v) {
    return v.rear_s() >= intersection_.route(v.route).length();
  });
  time_ += config_.dt;
}

const Vehicle* TrafficSimulator::subject(Approach approach) const {
  const RouteId route = subject_route(approach);
  const double stop_s = intersection_.stop_line_s(route);
  const Vehicle* best = nullptr;
  for (const Vehicle& v : vehicles_) {
    if (v.route != route) continue;
    if (v.s >= stop_s + kKeyframeOffset) continue;  // already past the keyframe
    if (best == nullptr || v.s > best->s) best = &v;
  }
  return best;
}

const Vehicle* TrafficSimulator::blocker(Approach approach) const {
  // This approach's blocker is the OTHER side's left-waiting vehicle.
  const RouteId route = subject_route(approach == Approach::EastboundLeft
                                          ? Approach::WestboundLeft
                                          : Approach::EastboundLeft);
  const double stop_s = intersection_.stop_line_s(route);
  const Vehicle* best = nullptr;
  for (const Vehicle& v : vehicles_) {
    if (v.route != route) continue;
    // "At the line": holding, or crawling within a car length of it, or
    // just entering the turn (still physically in front of the subject).
    if (v.s < stop_s - 8.0 || v.s > stop_s + 6.0) continue;
    if (best == nullptr || std::abs(v.s - stop_s) < std::abs(best->s - stop_s)) best = &v;
  }
  return best;
}

bool TrafficSimulator::blind_area_present(Approach approach) const {
  const Vehicle* b = blocker(approach);
  return b != nullptr && is_view_blocking(b->type);
}

template <class Self, class A>
void TrafficSimulator::persist(Self& self, A& a) {
  a.nested(self.rng_);
  a.f64(self.time_);
  a.u64(self.next_id_);
  a.seq(self.vehicles_, [](auto& a, auto& v) {
    a.u64(v.id);
    a.enum_u8(v.route, RouteId::EastboundThrough);
    a.enum_u8(v.type, VehicleType::Truck);
    a.f64(v.s);
    a.f64(v.speed);
    a.f64(v.free_speed);
    a.f64(v.length);
    a.f64(v.width);
    a.f64(v.intensity);
    a.enum_u8(v.state, DriverState::Done);
    a.f64(v.hold_time);
    a.f64(v.aggressiveness);
  });
  a.seq(self.next_spawn_, [](auto& a, auto& t) { a.f64(t); });
  for (auto& keys : self.keyframes_) a.seq(keys, [](auto& a, auto& id) { a.u64(id); });
  for (auto& n : self.completed_turns_) a.u64(n);
  a.seq(self.pedestrians_, [](auto& a, auto& p) {
    a.u64(p.id);
    a.i32(p.crosswalk);
    a.f64(p.progress);
    a.f64(p.speed);
    a.i32(p.direction);
  });
  for (auto& t : self.next_pedestrian_) a.f64(t);
}

void TrafficSimulator::save_state(common::StateWriter& w) const { persist(*this, w); }

void TrafficSimulator::load_state(common::StateReader& r) {
  persist(*this, r);
  // maybe_spawn() indexes the spawn timers by route.
  if (next_spawn_.size() != static_cast<std::size_t>(kNumRoutes)) {
    throw common::StateError("traffic: spawn timers are not one per route");
  }
}

}  // namespace safecross::sim
