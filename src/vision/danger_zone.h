#pragma once
// Danger-zone geometry (Fig. 2 of the paper).
//
// When a blocking vehicle waits to turn left on the opposite side, the
// lane area behind it — from which a straight-going vehicle would emerge —
// is invisible to the turning driver. The zone is an axis-aligned
// rectangle in *ground* (top-down) coordinates anchored at the blocker's
// rear and extending upstream along the oncoming lane.
//
// Weather scales the zone: stopping distance grows on wet/icy roads, so
// the zone must reach further upstream for the same safety margin
// (DangerZoneModel::for_weather).

#include <vector>

#include "vision/image.h"

namespace safecross::vision {

struct Rect {
  float min_x = 0.0f, min_y = 0.0f, max_x = 0.0f, max_y = 0.0f;

  bool contains(float x, float y) const {
    return x >= min_x && x <= max_x && y >= min_y && y <= max_y;
  }
  float width() const { return max_x - min_x; }
  float height() const { return max_y - min_y; }
  float area() const { return width() * height(); }
};

/// The paper's three conditions plus the two "extreme scenes" its
/// future-work section calls for (Night, Fog).
enum class Weather { Daytime, Rain, Snow, Night, Fog };

constexpr int kNumWeathers = 5;
constexpr Weather kAllWeathers[kNumWeathers] = {Weather::Daytime, Weather::Rain, Weather::Snow,
                                                Weather::Night, Weather::Fog};

const char* weather_name(Weather w);

struct DangerZoneParams {
  float oncoming_speed = 13.9f;      // m/s (~50 km/h) assumed approach speed
  float reaction_time = 1.0f;        // s, turning driver reaction
  float turn_clear_time = 3.0f;      // s to clear the intersection
  float friction = 0.7f;             // road/tyre friction coefficient
  float lane_width = 3.7f;           // m
};

/// Computes the upstream reach (metres) a vehicle travelling at
/// `oncoming_speed` covers during reaction + turn, plus its braking
/// distance at the given friction: the zone any threat must be outside of.
float danger_zone_reach_m(const DangerZoneParams& params);

class DangerZoneModel {
 public:
  /// Zone parameters appropriate for the weather (friction drops in rain
  /// and further in snow, so the zone grows).
  static DangerZoneParams for_weather(Weather weather);

  /// The zone rectangle in ground coordinates, given the blocking
  /// vehicle's rear bumper position. `oncoming_dir` is the sign of the
  /// oncoming lane's direction of travel along x; the zone extends
  /// *against* it (upstream), where unseen threats come from.
  static Rect zone_rect(float blocker_rear_x, float lane_center_y, const DangerZoneParams& params,
                        int oncoming_dir = 1);
};

/// True if any set pixel of the top-down occupancy mask falls inside the
/// zone rectangle (mask pixel (x,y) == ground cell (x,y) scaled by
/// metres_per_pixel).
bool zone_occupied(const Image& topdown_mask, const Rect& zone, float metres_per_pixel);

}  // namespace safecross::vision
