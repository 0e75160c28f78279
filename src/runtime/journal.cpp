#include "runtime/journal.h"

#include <unistd.h>

#include <cstring>
#include <stdexcept>

#include "common/checksum.h"
#include "common/state_io.h"

namespace safecross::runtime {

namespace {

void fsync_file(std::FILE* file) {
  // In-process kills cannot lose user-space buffers, but a machine-level
  // crash can lose the OS cache; fsync is what the policy knob actually
  // buys. Failure here is a real durability violation, not a soft error.
  if (::fsync(::fileno(file)) != 0) {
    throw std::runtime_error("journal: fsync failed");
  }
}

std::string encode_header() {
  common::StateWriter w;
  w.u32(Journal::kMagic);
  w.u32(Journal::kVersion);
  return w.take();
}

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

  std::error_code ec;
  const bool fresh =
      !std::filesystem::exists(path, ec) ||
      std::filesystem::file_size(path, ec) == 0;

  file_ = std::fopen(path.string().c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("journal: cannot open " + path.string());
  }
  if (fresh) {
    write_bytes(encode_header());
    if (std::fflush(file_) != 0) {
      throw std::runtime_error("journal: header flush failed");
    }
    fsync_file(file_);
  }
}

std::string Journal::encode(const JournalRecord& record) {
  common::StateWriter payload;
  persist_record(record, payload);

  common::StateWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.bytes().size()));
  frame.raw(payload.bytes().data(), payload.bytes().size());
  frame.u32(common::crc32(payload.bytes()));
  return frame.take();
}

void Journal::append(const JournalRecord& record) {
  if (file_ == nullptr) {
    throw std::runtime_error("journal: append on closed journal");
  }
  if (crash_ != nullptr) crash_->maybe_crash(CrashPoint::BeforeJournalAppend);

  const std::string bytes = encode(record);

  if (crash_ != nullptr && crash_->fire_now(CrashPoint::MidJournalAppend)) {
    // Simulate a kill half-way through the frame write: flush a genuine
    // torn tail to disk, then die. Replay must drop exactly this frame.
    const std::size_t half = bytes.size() / 2;
    write_bytes(bytes.substr(0, half));
    std::fflush(file_);
    throw CrashInjected{CrashPoint::MidJournalAppend,
                        crash_->hits(CrashPoint::MidJournalAppend)};
  }

  write_bytes(bytes);
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("journal: flush failed");
  }
  ++records_appended_;
  ++records_since_sync_;
  switch (config_.fsync) {
    case FsyncPolicy::None:
      break;
    case FsyncPolicy::EveryN:
      if (records_since_sync_ >= config_.fsync_every) {
        fsync_file(file_);
        records_since_sync_ = 0;
      }
      break;
    case FsyncPolicy::Every:
      fsync_file(file_);
      records_since_sync_ = 0;
      break;
  }
  if (crash_ != nullptr) crash_->maybe_crash(CrashPoint::AfterJournalAppend);
}

void Journal::sync() {
  if (file_ == nullptr) return;
  if (std::fflush(file_) != 0) {
    throw std::runtime_error("journal: flush failed");
  }
  fsync_file(file_);
  records_since_sync_ = 0;
}

void Journal::close() {
  if (file_ == nullptr) return;
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
}

void Journal::write_bytes(const std::string& bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    throw std::runtime_error("journal: short write");
  }
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
