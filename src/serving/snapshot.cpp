#include "serving/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "common/checksum.h"
#include "common/state_io.h"

namespace safecross::serving {

namespace {

constexpr const char* kPrefix = "snap-";
constexpr const char* kSuffix = ".bin";

/// Parse "snap-XXXXXXXX.bin" → generation; 0 when the name doesn't match.
std::uint64_t parse_generation(const std::string& name) {
  const std::size_t prefix_len = std::strlen(kPrefix);
  const std::size_t suffix_len = std::strlen(kSuffix);
  if (name.size() <= prefix_len + suffix_len) return 0;
  if (name.compare(0, prefix_len, kPrefix) != 0) return 0;
  if (name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0) return 0;
  std::uint64_t gen = 0;
  for (std::size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    gen = gen * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return gen;
}

void fsync_fd(int fd, const char* what) {
  if (::fsync(fd) != 0) {
    throw std::runtime_error(std::string("snapshot: fsync failed on ") + what);
  }
}

void fsync_dir(const std::filesystem::path& dir) {
  const int fd = ::open(dir.string().c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw std::runtime_error("snapshot: cannot open dir " + dir.string());
  ::fsync(fd);  // best effort: some filesystems reject directory fsync
  ::close(fd);
}

std::vector<std::uint64_t> list_generations(const std::filesystem::path& dir) {
  std::vector<std::uint64_t> gens;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::uint64_t gen = parse_generation(entry.path().filename().string());
    if (gen > 0) gens.push_back(gen);
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

}  // namespace

std::filesystem::path SnapshotStore::generation_path(const std::filesystem::path& dir,
                                                     std::uint64_t generation) {
  char name[32];
  std::snprintf(name, sizeof(name), "%s%08llu%s", kPrefix,
                static_cast<unsigned long long>(generation), kSuffix);
  return dir / name;
}

SnapshotStore::SnapshotStore(std::filesystem::path dir, std::size_t keep)
    : dir_(std::move(dir)), keep_(keep == 0 ? 1 : keep) {
  std::filesystem::create_directories(dir_);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::filesystem::remove(entry.path(), ec);  // a killed writer's debris
    }
  }
  const std::vector<std::uint64_t> gens = list_generations(dir_);
  next_gen_ = gens.empty() ? 1 : gens.back() + 1;
}

std::uint64_t SnapshotStore::write(const std::string& payload,
                                   runtime::CrashInjector* crash) {
  const std::uint64_t gen = next_gen_;

  common::StateWriter frame;
  frame.u32(kMagic);
  frame.u32(kVersion);
  frame.u64(gen);
  frame.str(payload);
  frame.u32(common::crc32(frame.bytes()));
  const std::string bytes = frame.take();

  const std::filesystem::path final_path = generation_path(dir_, gen);
  std::filesystem::path tmp_path = final_path;
  tmp_path.replace_extension(".tmp");

  if (crash != nullptr) crash->maybe_crash(runtime::CrashPoint::BeforeSnapshotWrite);

  std::FILE* file = std::fopen(tmp_path.string().c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("snapshot: cannot create " + tmp_path.string());
  }

  if (crash != nullptr && crash->fire_now(runtime::CrashPoint::MidSnapshotWrite)) {
    // A kill half-way through the temp-file write: half the bytes land,
    // the rename never happens, so recovery must never even look at it.
    const std::size_t half = bytes.size() / 2;
    std::fwrite(bytes.data(), 1, half, file);
    std::fflush(file);
    std::fclose(file);
    throw runtime::CrashInjected{runtime::CrashPoint::MidSnapshotWrite,
                                 crash->hits(runtime::CrashPoint::MidSnapshotWrite)};
  }

  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size() &&
                     std::fflush(file) == 0;
  if (!wrote) {
    std::fclose(file);
    throw std::runtime_error("snapshot: short write to " + tmp_path.string());
  }
  fsync_fd(::fileno(file), "temp snapshot");
  std::fclose(file);

  if (crash != nullptr) crash->maybe_crash(runtime::CrashPoint::BeforeSnapshotRename);

  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    throw std::runtime_error("snapshot: rename failed: " + ec.message());
  }
  fsync_dir(dir_);
  next_gen_ = gen + 1;

  if (crash != nullptr) crash->maybe_crash(runtime::CrashPoint::AfterSnapshotRename);

  // Prune only after the new generation is durable.
  const std::vector<std::uint64_t> gens = list_generations(dir_);
  if (gens.size() > keep_) {
    for (std::size_t i = 0; i + keep_ < gens.size(); ++i) {
      std::filesystem::remove(generation_path(dir_, gens[i]), ec);
    }
  }
  return gen;
}

SnapshotStore::Loaded SnapshotStore::load_newest_valid(const std::filesystem::path& dir,
                                                       const PayloadCheck& check) {
  // A writer may prune every generation one walk listed before the walk
  // reads them. A prune only ever follows a newer publish, so a fresh
  // listing finds that one: walk again (bounded) while files vanish.
  constexpr int kMaxWalks = 8;
  for (int walk = 1;; ++walk) {
    bool vanished = false;
    Loaded out = walk_newest_valid(dir, check, vanished);
    if (out.found || !vanished || walk == kMaxWalks) return out;
  }
}

SnapshotStore::Loaded SnapshotStore::walk_newest_valid(const std::filesystem::path& dir,
                                                       const PayloadCheck& check,
                                                       bool& vanished) {
  Loaded out;
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) return out;

  std::vector<std::uint64_t> gens = list_generations(dir);
  std::reverse(gens.begin(), gens.end());  // newest first

  for (std::uint64_t gen : gens) {
    const std::filesystem::path path = generation_path(dir, gen);
    const std::string name = path.filename().string();
    std::string bytes;
    try {
      bytes = common::read_file(path);
    } catch (const std::exception& e) {
      if (!std::filesystem::exists(path, ec)) {
        vanished = true;  // pruned since it was listed
        continue;
      }
      out.rejected.push_back(name + ": unreadable");
      continue;
    }
    // Frame: magic u32, version u32, generation u64, payload (u64 len +
    // bytes), crc u32 over everything before it.
    if (bytes.size() < 4 + 4 + 8 + 8 + 4) {
      out.rejected.push_back(name + ": truncated frame");
      continue;
    }
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
    if (common::crc32(bytes.data(), bytes.size() - 4) != stored_crc) {
      out.rejected.push_back(name + ": checksum mismatch");
      continue;
    }
    try {
      common::StateReader r(bytes.data(), bytes.size() - 4);
      if (r.u32() != kMagic || r.u32() != kVersion) {
        out.rejected.push_back(name + ": bad magic/version");
        continue;
      }
      const std::uint64_t file_gen = r.u64();
      if (file_gen != gen) {
        out.rejected.push_back(name + ": generation mismatch");
        continue;
      }
      std::string payload = r.str();
      if (!r.at_end()) {
        out.rejected.push_back(name + ": trailing bytes inside frame");
        continue;
      }
      if (check) {
        const std::string refused = check(payload);
        if (!refused.empty()) {
          out.rejected.push_back(name + ": payload: " + refused);
          continue;
        }
      }
      out.found = true;
      out.generation = gen;
      out.payload = std::move(payload);
      return out;
    } catch (const common::StateError&) {
      out.rejected.push_back(name + ": frame does not decode");
      continue;
    }
  }
  return out;
}

}  // namespace safecross::serving
