#include "runtime/journal.h"

#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "common/checksum.h"
#include "common/state_io.h"

namespace safecross::runtime {

namespace {

/// One record payload: the type byte, then that type's entry body.
template <class Record, class A>
void persist_record(Record& rec, A& a) {
  a.enum_u8(rec.type, JournalRecordType::ModelSwitchAbort);
  switch (rec.type) {
    case JournalRecordType::Decision:
      DecisionEntry::persist(rec.decision, a);
      return;
    case JournalRecordType::Recalibration:
      RecalibrationEntry::persist(rec.recalibration, a);
      return;
    case JournalRecordType::ModelSwitchBegin:
    case JournalRecordType::ModelSwitchCommit:
    case JournalRecordType::ModelSwitchAbort:
      SwitchPhaseEntry::persist(rec.switch_phase, a);
      return;
  }
  throw common::StateError("journal: unknown record type");
}

/// Append one frame to `out`: the length word is written as a
/// placeholder and patched once the payload behind it is encoded.
void encode_frame(const JournalRecord& record, common::StateWriter& out) {
  const std::size_t at = out.bytes().size();
  out.u32(0);
  persist_record(record, out);
  const std::size_t len = out.bytes().size() - at - 4;
  out.patch_u32(at, static_cast<std::uint32_t>(len));
  out.u32(common::crc32(out.bytes().data() + at + 4, len));
}

}  // namespace

const char* fsync_policy_name(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::None: return "none";
    case FsyncPolicy::EveryN: return "every-n";
    case FsyncPolicy::Every: return "every";
  }
  return "?";
}

void Journal::open(const std::filesystem::path& path, JournalConfig config,
                   CrashInjector* crash) {
  close();
  config_ = config;
  crash_ = crash;
  records_appended_ = 0;
  records_since_sync_ = 0;
  syncs_ = 0;

  std::error_code ec;
  const bool fresh =
      !std::filesystem::exists(path, ec) ||
      std::filesystem::file_size(path, ec) == 0;

  file_ = std::fopen(path.string().c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("journal: cannot open " + path.string());
  }
  if (fresh) {
    frames_.clear();
    frames_.u32(kMagic);
    frames_.u32(kVersion);
    write_bytes(frames_.bytes().size());
    fsync_now();
  }
}

std::string Journal::encode(const JournalRecord& record) {
  common::StateWriter frame;
  encode_frame(record, frame);
  return frame.take();
}

void Journal::append(const JournalRecord& record) { append({&record, 1}); }

void Journal::append(std::span<const JournalRecord> group) {
  if (file_ == nullptr) {
    throw std::runtime_error("journal: append on closed journal");
  }
  if (group.empty()) return;
  frames_.clear();
  for (const JournalRecord& record : group) {
    // Crash points keep their per-record meaning inside a group: a kill
    // at record j leaves exactly the bytes sequential appends would have.
    const std::size_t start = frames_.bytes().size();
    crash_at(CrashPoint::BeforeJournalAppend, start);
    encode_frame(record, frames_);
    // Mid: a genuine torn tail — replay must drop exactly this frame.
    crash_at(CrashPoint::MidJournalAppend, start + (frames_.bytes().size() - start) / 2);
    crash_at(CrashPoint::AfterJournalAppend, frames_.bytes().size());
  }

  write_bytes(frames_.bytes().size());
  records_appended_ += group.size();
  records_since_sync_ += group.size();
  switch (config_.fsync) {
    case FsyncPolicy::None:
      break;
    case FsyncPolicy::EveryN:
      if (records_since_sync_ >= config_.fsync_every) fsync_now();
      break;
    case FsyncPolicy::Every:
      fsync_now();
      break;
  }
}

void Journal::crash_at(CrashPoint point, std::size_t bytes) {
  if (crash_ == nullptr || !crash_->fire_now(point)) return;
  write_bytes(bytes);
  throw CrashInjected{point, crash_->hits(point)};
}

void Journal::sync() {
  if (file_ == nullptr) return;
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("journal: flush failed");
  }
  fsync_now();
}

void Journal::close() {
  if (file_ == nullptr) return;
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
}

void Journal::write_bytes(std::size_t n) {
  if (std::fwrite(frames_.bytes().data(), 1, n, file_) != n) {
    throw std::runtime_error("journal: short write");
  }
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("journal: flush failed");
  }
}

void Journal::fsync_now() {
  // In-process kills cannot lose user-space buffers, but a machine-level
  // crash can lose the OS cache; fsync is what the policy knob actually
  // buys. Failure here is a real durability violation, not a soft error.
  if (::fsync(::fileno(file_)) != 0) {
    throw std::runtime_error("journal: fsync failed");
  }
  ++syncs_;
  records_since_sync_ = 0;
}

Journal::ReplayReport Journal::replay(const std::filesystem::path& path) {
  ReplayReport report;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return report;
  report.missing = false;

  const std::string bytes = common::read_file(path);
  report.file_bytes = bytes.size();

  if (bytes.size() < kHeaderBytes) {
    report.bad_header = true;
    report.tail_error = "journal shorter than header";
    return report;
  }
  {
    common::StateReader header(bytes.data(), kHeaderBytes);
    if (header.u32() != kMagic || header.u32() != kVersion) {
      report.bad_header = true;
      report.tail_error = "bad journal magic/version";
      return report;
    }
  }

  std::size_t pos = kHeaderBytes;
  report.valid_bytes = pos;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < 4) {
      report.tail_error = "torn length word";
      break;
    }
    std::uint32_t len = 0;
    std::memcpy(&len, bytes.data() + pos, 4);
    if (len == 0 || len > kMaxRecordBytes) {
      report.tail_error = "implausible record length";
      break;
    }
    if (remaining < 4u + len + 4u) {
      report.tail_error = "torn record body";
      break;
    }
    const char* payload = bytes.data() + pos + 4;
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, payload + len, 4);
    if (common::crc32(payload, static_cast<std::size_t>(len)) != stored_crc) {
      report.tail_error = "record checksum mismatch";
      break;
    }
    JournalRecord record;
    bool ok = false;
    try {
      common::StateReader body(payload, len);
      persist_record(record, body);
      // A payload with bytes left over passed the CRC but does not match
      // any record layout we ever wrote — corruption, not a record.
      ok = body.at_end();
    } catch (const common::StateError&) {
      ok = false;
    }
    if (!ok) {
      report.tail_error = "record body does not decode";
      break;
    }
    report.records.push_back(record);
    pos += 4u + len + 4u;
    report.valid_bytes = pos;
  }
  report.torn_tail = report.valid_bytes < report.file_bytes;
  return report;
}

}  // namespace safecross::runtime
