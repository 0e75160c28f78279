#pragma once
// Binary state (de)serialization for checkpoint/restore.
//
// One layout per component. Every component with resumable state (RNG
// streams, images, the background model, the traffic simulator, the
// segment collector, health/fault/recalibration state machines, the
// per-stream scorecard, the stream and the server snapshot, the journal
// records) spells its byte layout exactly once, in a body both archives
// drive:
//
//   template <class Self, class A>
//   void T::persist(Self& self, A& a) {
//     a.u64(self.frames_);
//     a.enum_u8(self.state_, State::Last);
//     a.seq(self.items_, [](auto& a, auto& item) { a.f64(item.x); });
//     a.nested(self.rng_);
//   }
//
// StateWriter runs it with Self = const T and writes each field;
// StateReader runs it with Self = T and reads each field into place, so
// save and load cannot drift apart. save_state(StateWriter&) and
// load_state(StateReader&) are one-line calls to the body; a load_state
// may add checks of invariants *between* fields after the call.
// `nested` persists a sub-component through its own save_state /
// load_state, so those checks run wherever the component is nested.
//
// The format is deliberately dumb: fixed-width host-order scalars (this
// is a single-machine reproduction, matching the nn checkpoint
// convention) with u64 element counts for containers — no framing, no
// schema. Integrity is the *container's* job: the snapshot store and the
// journal wrap these bytes in magic + CRC32 frames.
//
// StateReader still trusts nothing it parses, and it is the one place
// that checks what the format itself implies: every read is
// bounds-checked, a `seq` count is bounded by remaining() / the element's
// minimum encoded size before anything is sized from it, `raw_array`
// bounds its element count the same way, and `enum_u8` / `boolean`
// reject bytes no writer produces. Each failure throws StateError, so a
// CRC-valid but hostile count or enum byte is a typed error at load,
// never bad_alloc, length_error or an enum that crashes a later step.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace safecross::common {

struct StateError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class StateWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i32(std::int32_t v) { raw(&v, sizeof(v)); }
  void f32(float v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// An enum as one byte; `last` is its largest enumerator (read side).
  template <class E>
  void enum_u8(E v, E /*last*/) {
    static_assert(std::is_enum_v<E>);
    u8(static_cast<std::uint8_t>(v));
  }

  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  /// A u64 element count, then `each(*this, element)` per element.
  template <class C, class F>
  void seq(const C& c, F&& each) {
    u64(c.size());
    for (const auto& e : c) each(*this, e);
  }

  /// The raw bytes of `v`, whose element count the layout already holds.
  template <class T>
  void raw_array(const std::vector<T>& v, std::size_t /*n*/) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(v.data(), v.size() * sizeof(T));
  }

  /// A sub-component, through its own save_state.
  template <class T>
  void nested(const T& part) {
    part.save_state(*this);
  }

  void raw(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

  /// Overwrite the u32 written earlier at byte offset `at`: a length word
  /// whose value is known only once the body behind it is written.
  void patch_u32(std::size_t at, std::uint32_t v) {
    std::memcpy(buf_.data() + at, &v, sizeof(v));
  }

  /// Drop the bytes but keep the capacity, so a reused writer stops
  /// allocating once it has seen its largest payload.
  void clear() { buf_.clear(); }

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

class StateReader {
 public:
  StateReader(const void* data, std::size_t len)
      : p_(static_cast<const char*>(data)), len_(len) {}
  explicit StateReader(const std::string& bytes) : StateReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() { return scalar<std::uint8_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int32_t i32() { return scalar<std::int32_t>(); }
  float f32() { return scalar<float>(); }
  double f64() { return scalar<double>(); }
  bool boolean() {
    const std::uint8_t b = u8();
    if (b > 1) throw StateError("state: boolean byte is neither 0 nor 1");
    return b != 0;
  }

  // The read-into forms a persist() body calls. Each takes exactly the
  // field type its writer twin writes, so a body whose field types do not
  // match the layout fails to compile on the read side.
  void u8(std::uint8_t& v) { v = u8(); }
  void u32(std::uint32_t& v) { v = u32(); }
  void u64(std::uint64_t& v) { v = u64(); }
  void i32(std::int32_t& v) { v = i32(); }
  void f32(float& v) { v = f32(); }
  void f64(double& v) { v = f64(); }
  void boolean(bool& v) { v = boolean(); }
  void boolean(char& v) { v = boolean() ? 1 : 0; }
  void boolean(std::atomic<bool>& v) { v.store(boolean()); }

  template <class E>
  void enum_u8(E& v, E last) {
    static_assert(std::is_enum_v<E>);
    const std::uint8_t b = u8();
    if (b > static_cast<std::uint8_t>(last)) throw StateError("state: enum byte out of range");
    v = static_cast<E>(b);
  }

  std::string str() {
    const std::uint64_t n = u64();
    std::string s(checked(n), static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// An untrusted element count: throws unless `min_elem_bytes` bytes per
  /// element are still left to read.
  std::size_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / (min_elem_bytes == 0 ? 1 : min_elem_bytes)) {
      throw StateError("state: element count exceeds the payload");
    }
    return static_cast<std::size_t>(n);
  }

  /// Replaces `c` with a counted sequence. The minimum element size is
  /// the encoding of a default element, so the bound follows the layout.
  template <class C, class F>
  void seq(C& c, F&& each) {
    using T = typename C::value_type;
    StateWriter probe;
    each(probe, static_cast<const T&>(T{}));
    const std::size_t n = count(probe.bytes().size());
    c.clear();
    if constexpr (requires { c.reserve(n); }) c.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      T e{};
      each(*this, e);
      c.push_back(std::move(e));
    }
  }

  template <class T>
  void raw_array(std::vector<T>& v, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (n > remaining() / sizeof(T)) throw StateError("state: array exceeds the payload");
    v.resize(n);
    raw(v.data(), n * sizeof(T));
  }

  template <class T>
  void nested(T& part) {
    part.load_state(*this);
  }

  void raw(void* out, std::size_t len) {
    // An empty buffer may hand in a null `out`; memcpy's arguments must
    // never be null, even for zero bytes.
    if (len == 0) return;
    std::memcpy(out, checked(len), len);
    pos_ += len;
  }

  std::size_t remaining() const { return len_ - pos_; }
  bool at_end() const { return pos_ == len_; }

 private:
  template <typename T>
  T scalar() {
    T v;
    std::memcpy(&v, checked(sizeof(T)), sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const char* checked(std::uint64_t len) const {
    if (len > len_ - pos_) throw StateError("state underrun");
    return p_ + pos_;
  }

  const char* p_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

}  // namespace safecross::common
