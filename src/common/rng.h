#pragma once
// Deterministic pseudo-random number generation.
//
// Every stochastic component in SafeCross (traffic generator, weight init,
// dataset shuffles, sensor noise) takes an explicit Rng so experiments are
// reproducible from a single seed. The engine is SplitMix64-seeded
// xoshiro256**, which is fast, high quality, and trivially portable.

#include <cstdint>
#include <cmath>
#include <numbers>

#include "common/state_io.h"

namespace safecross {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5AFEC705u) {
    // SplitMix64 expansion of the seed into the 4-word xoshiro state.
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      word = z ^ (z >> 31);
    }
  }

  /// Next raw 64-bit value (xoshiro256**).
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n) { return next_u64() % n; }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    return lo + static_cast<int>(uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Box–Muller.
  double normal() {
    if (have_cached_) {
      have_cached_ = false;
      return cached_;
    }
    double u1 = uniform();
    double u2 = uniform();
    // Guard against log(0).
    if (u1 < 1e-300) u1 = 1e-300;
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * std::numbers::pi * u2;
    cached_ = r * std::sin(theta);
    have_cached_ = true;
    return r * std::cos(theta);
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential inter-arrival draw with the given rate (events per unit time).
  double exponential(double rate) {
    double u = uniform();
    if (u < 1e-300) u = 1e-300;
    return -std::log(u) / rate;
  }

  /// Derive an independent child stream (for per-component determinism).
  Rng fork() { return Rng(next_u64() ^ 0xD3C0DEDBADC0FFEEULL); }

  /// Raw engine state, exposed so durable components can checkpoint a
  /// stream mid-sequence and resume it bit-exactly after a restart.
  struct State {
    std::uint64_t s[4] = {};
    double cached = 0.0;
    bool have_cached = false;
  };

  State state() const {
    State st;
    for (int i = 0; i < 4; ++i) st.s[i] = state_[i];
    st.cached = cached_;
    st.have_cached = have_cached_;
    return st;
  }

  void set_state(const State& st) {
    for (int i = 0; i < 4; ++i) state_[i] = st.s[i];
    cached_ = st.cached;
    have_cached_ = st.have_cached;
  }

  void save_state(common::StateWriter& w) const { persist(*this, w); }
  void load_state(common::StateReader& r) { persist(*this, r); }

 private:
  template <class Self, class A>
  static void persist(Self& self, A& a) {
    for (auto& word : self.state_) a.u64(word);
    a.f64(self.cached_);
    a.boolean(self.have_cached_);
  }

  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t state_[4] = {};
  double cached_ = 0.0;
  bool have_cached_ = false;
};

/// Fisher–Yates shuffle of any random-access container.
template <typename Container>
void shuffle(Container& c, Rng& rng) {
  for (std::size_t i = c.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.uniform_int(i));
    using std::swap;
    swap(c[i - 1], c[j]);
  }
}

}  // namespace safecross
