#pragma once
// Binary state (de)serialization for checkpoint/restore.
//
// Every component with resumable state (RNG streams, the traffic
// simulator, the segment collector, health/fault state machines, the
// per-stream scorecard) exposes save_state(StateWriter&) /
// load_state(StateReader&) built on these two helpers, so a server
// snapshot is one flat byte string assembled field by field in a fixed
// order. The format is deliberately dumb: fixed-width host-order scalars
// (this is a single-machine reproduction, matching the nn checkpoint
// convention) with explicit lengths for containers — no framing, no
// schema. Integrity is the *container's* job: the snapshot store and the
// journal wrap these bytes in magic + CRC32 frames, so a StateReader only
// ever parses bytes that already passed a checksum. Reads are still
// bounds-checked and throw StateError on underrun — a defence-in-depth
// backstop, never the primary corruption detector.

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

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

  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  void raw(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }

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
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint64_t n = u64();
    std::string s(checked(n), static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
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
