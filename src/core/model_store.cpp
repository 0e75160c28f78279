#include "core/model_store.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/checksum.h"
#include "common/logging.h"
#include "nn/serialize.h"

namespace safecross::core {

ModelStore::ModelStore(std::filesystem::path directory) : dir_(std::move(directory)) {}

std::filesystem::path ModelStore::path_for(dataset::Weather weather) const {
  return dir_ / (std::string(vision::weather_name(weather)) + ".safecross");
}

void ModelStore::save(SafeCross& safecross) const {
  std::filesystem::create_directories(dir_);
  for (const auto weather : vision::kAllWeathers) {
    if (!safecross.has_model(weather)) continue;
    models::VideoClassifier& model = safecross.model_for(weather);
    // Serialize the nn blocks in memory first so the integrity footer can
    // cover every byte that precedes it.
    std::ostringstream blocks;
    nn::save_params(blocks, model.params());
    nn::save_tensors(blocks, model.buffers());
    const std::string bytes = blocks.str();
    const std::uint32_t crc = common::crc32(bytes);
    std::ofstream os(path_for(weather), std::ios::binary);
    if (!os) throw std::runtime_error("ModelStore: cannot write " + path_for(weather).string());
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.write(reinterpret_cast<const char*>(&kFooterMagic), sizeof(kFooterMagic));
    os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    if (!os) throw std::runtime_error("ModelStore: short write to " + path_for(weather).string());
    log_info() << "model-store: saved " << vision::weather_name(weather) << " ("
               << nn::param_count(model.params()) << " params)";
  }
}

std::vector<dataset::Weather> ModelStore::available() const {
  std::vector<dataset::Weather> out;
  for (const auto weather : vision::kAllWeathers) {
    if (std::filesystem::exists(path_for(weather))) out.push_back(weather);
  }
  return out;
}

std::vector<dataset::Weather> ModelStore::warm_manifest(std::size_t max_models) const {
  struct Candidate {
    dataset::Weather weather;
    std::uintmax_t bytes;
  };
  std::vector<Candidate> candidates;
  for (const auto weather : available()) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path_for(weather), ec);
    candidates.push_back({weather, ec ? 0 : size});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) { return a.bytes > b.bytes; });
  if (max_models > 0 && candidates.size() > max_models) candidates.resize(max_models);
  std::vector<dataset::Weather> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates) out.push_back(c.weather);
  return out;
}

namespace {

/// Reads a checkpoint once and validates its structure and integrity
/// before any tensor data is parsed: it must start with the checkpoint
/// magic and end with the ModelStore footer, whose CRC32 must cover every
/// byte before it. On success `payload` holds exactly the bytes the CRC
/// covered (the nn blocks) and the result is empty; the caller decodes
/// that buffer, never a second read of a file that may have changed.
std::string read_checkpoint(const std::filesystem::path& path, std::string& payload) {
  std::string bytes;
  try {
    bytes = common::read_file(path);
  } catch (const std::exception&) {
    return "cannot open checkpoint";
  }
  // Smallest well-formed file: magic + count for params and buffers
  // blocks, then the footer.
  constexpr std::size_t kFooterBytes = 2 * sizeof(std::uint32_t);
  constexpr std::size_t kMinBytes =
      2 * (sizeof(std::uint32_t) + sizeof(std::uint64_t)) + kFooterBytes;
  if (bytes.empty()) return "checkpoint is empty (0 bytes)";
  if (bytes.size() < kMinBytes) {
    return "checkpoint truncated (" + std::to_string(bytes.size()) + " bytes)";
  }
  std::uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), sizeof(magic));
  if (magic != nn::kCheckpointMagic) return "bad checkpoint magic";
  std::uint32_t footer_magic = 0;
  std::uint32_t stored_crc = 0;
  std::memcpy(&footer_magic, bytes.data() + bytes.size() - kFooterBytes, sizeof(footer_magic));
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(stored_crc), sizeof(stored_crc));
  if (footer_magic != ModelStore::kFooterMagic) return "missing checkpoint footer";
  bytes.resize(bytes.size() - kFooterBytes);
  if (common::crc32(bytes) != stored_crc) return "checkpoint checksum mismatch";
  payload = std::move(bytes);
  return {};
}

}  // namespace

ModelStore::LoadReport ModelStore::load_report(SafeCross& safecross,
                                               const SafeCrossConfig& config) const {
  LoadReport report;
  for (const auto weather : available()) {
    const auto path = path_for(weather);
    std::string error;
    const auto attempt_once = [&]() -> bool {
      std::string payload;
      error = read_checkpoint(path, payload);
      if (!error.empty()) return false;
      // The model is only registered once the whole file deserialized:
      // a half-loaded graph must never serve.
      auto model = std::make_unique<models::SlowFast>(config.model);
      try {
        std::istringstream is(std::move(payload));
        nn::load_params(is, model->params());
        nn::load_tensors(is, model->buffers());
        if (is.peek() != std::istringstream::traits_type::eof()) {
          throw std::runtime_error("checkpoint has bytes between its tensors and footer");
        }
        safecross.set_model(weather, std::move(model));
        return true;
      } catch (const std::exception& e) {
        error = e.what();
        return false;
      }
    };
    // A failure here may be transient (stat/open on flaky storage, a
    // concurrent writer mid-save): retry with bounded backoff before
    // declaring the checkpoint bad. The jitter seed is fixed per weather
    // so a load's retry timing is reproducible.
    const auto retry = runtime::retry_with_backoff(
        retry_policy_, 0x10ADull ^ static_cast<std::uint64_t>(weather), attempt_once);
    if (retry.ok) {
      report.loaded.push_back(weather);
      continue;
    }
    log_warn() << "model-store: skipping " << vision::weather_name(weather) << " ("
               << path.string() << ") after " << retry.attempts << " attempt(s): " << error;
    report.errors.push_back({weather, std::move(error), retry.attempts});
  }
  return report;
}

std::vector<dataset::Weather> ModelStore::load(SafeCross& safecross,
                                               const SafeCrossConfig& config) const {
  return load_report(safecross, config).loaded;
}

}  // namespace safecross::core
