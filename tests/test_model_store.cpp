#include "core/model_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "core/offline.h"
#include "dataset/builder.h"

namespace safecross::core {
namespace {

namespace fs = std::filesystem;

SafeCrossConfig tiny_config() {
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  return cfg;
}

std::vector<const dataset::VideoSegment*> ptrs(const std::vector<dataset::VideoSegment>& v) {
  std::vector<const dataset::VideoSegment*> out;
  for (const auto& s : v) out.push_back(&s);
  return out;
}

struct TempDir {
  fs::path path;
  TempDir() : path(fs::temp_directory_path() / ("safecross_store_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Engine holding one untrained tiny daytime model: enough to save a
/// well-formed checkpoint without training.
SafeCross untrained_daytime() {
  SafeCross sc(tiny_config());
  sc.set_model(dataset::Weather::Daytime, std::make_unique<models::SlowFast>(tiny_config().model));
  return sc;
}

/// A checkpoint's tensor blocks: the file without its 8-byte footer.
std::string tensor_blocks(const fs::path& path) {
  std::string bytes = common::read_file(path);
  bytes.resize(bytes.size() - 2 * sizeof(std::uint32_t));
  return bytes;
}

/// Write `blocks` with a footer whose CRC covers them, as save() does.
void write_with_footer(const fs::path& path, const std::string& blocks) {
  const std::uint32_t crc = common::crc32(blocks);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(blocks.data(), static_cast<std::streamsize>(blocks.size()));
  os.write(reinterpret_cast<const char*>(&ModelStore::kFooterMagic), sizeof(std::uint32_t));
  os.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

runtime::BackoffPolicy no_retry() {
  runtime::BackoffPolicy policy;
  policy.initial_ms = 0.0;
  policy.max_ms = 0.0;
  policy.max_restarts = 0;
  return policy;
}

TEST(ModelStore, SaveLoadRoundTripPreservesDecisions) {
  dataset::BuildRequest req;
  req.target_segments = 40;
  req.max_sim_hours = 2.0;
  req.seed = 91;
  const auto day = dataset::build_dataset(req);

  SafeCross original(tiny_config());
  train_basic(original, ptrs(day.segments), {.epochs = 2});

  TempDir tmp;
  ModelStore store(tmp.path);
  store.save(original);
  EXPECT_TRUE(fs::exists(store.path_for(dataset::Weather::Daytime)));

  SafeCross restored(tiny_config());
  const auto loaded = store.load(restored, tiny_config());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0], dataset::Weather::Daytime);

  // Identical decisions, including BatchNorm running statistics.
  for (std::size_t i = 0; i < 10 && i < day.segments.size(); ++i) {
    const auto a = original.classify_as(dataset::Weather::Daytime, day.segments[i].frames);
    const auto b = restored.classify_as(dataset::Weather::Daytime, day.segments[i].frames);
    EXPECT_EQ(a.predicted_class, b.predicted_class);
    EXPECT_FLOAT_EQ(a.prob_danger, b.prob_danger);
  }
}

TEST(ModelStore, SavesEveryTrainedWeather) {
  dataset::BuildRequest req;
  req.target_segments = 30;
  req.max_sim_hours = 2.0;
  req.seed = 92;
  const auto day = dataset::build_dataset(req);
  req.weather = dataset::Weather::Snow;
  req.seed = 93;
  const auto snow = dataset::build_dataset(req);

  SafeCross sc(tiny_config());
  train_basic(sc, ptrs(day.segments), {.epochs = 2});
  adapt_weather(sc, dataset::Weather::Snow, ptrs(snow.segments), fewshot_schedule(2));

  TempDir tmp;
  ModelStore store(tmp.path);
  store.save(sc);
  const auto avail = store.available();
  ASSERT_EQ(avail.size(), 2u);
  EXPECT_EQ(avail[0], dataset::Weather::Daytime);
  EXPECT_EQ(avail[1], dataset::Weather::Snow);
}

TEST(ModelStore, EmptyDirectoryLoadsNothing) {
  TempDir tmp;
  ModelStore store(tmp.path);
  EXPECT_TRUE(store.available().empty());
  SafeCross sc(tiny_config());
  EXPECT_TRUE(store.load(sc, tiny_config()).empty());
}

TEST(ModelStore, MismatchedArchitectureSkippedWithError) {
  dataset::BuildRequest req;
  req.target_segments = 25;
  req.max_sim_hours = 2.0;
  req.seed = 94;
  const auto day = dataset::build_dataset(req);
  SafeCross sc(tiny_config());
  train_basic(sc, ptrs(day.segments), {.epochs = 2});
  TempDir tmp;
  ModelStore store(tmp.path);
  store.save(sc);

  SafeCrossConfig other = tiny_config();
  other.model.slow_channels = 8;  // different graph
  SafeCross fresh(other);
  const auto report = store.load_report(fresh, other);
  EXPECT_TRUE(report.loaded.empty());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].weather, dataset::Weather::Daytime);
  EXPECT_FALSE(report.errors[0].message.empty());
  EXPECT_FALSE(fresh.has_model(dataset::Weather::Daytime));  // no half-loaded graph serves
}

// A roadside unit rebooting after a power cut may find one checkpoint
// truncated mid-write. The store must report the bad file and still bring
// up every healthy model — not abort the whole load.
TEST(ModelStore, TruncatedWeatherFileSkippedHealthyOnesLoad) {
  dataset::BuildRequest req;
  req.target_segments = 30;
  req.max_sim_hours = 2.0;
  req.seed = 95;
  const auto day = dataset::build_dataset(req);
  req.weather = dataset::Weather::Rain;
  req.seed = 96;
  const auto rain = dataset::build_dataset(req);

  SafeCross sc(tiny_config());
  train_basic(sc, ptrs(day.segments), {.epochs = 2});
  adapt_weather(sc, dataset::Weather::Rain, ptrs(rain.segments), fewshot_schedule(2));

  TempDir tmp;
  ModelStore store(tmp.path);
  store.save(sc);

  // Truncate the rain checkpoint to half its size (lost tail of a write).
  const auto rain_path = store.path_for(dataset::Weather::Rain);
  const auto full_size = fs::file_size(rain_path);
  common::truncate_file(rain_path, full_size / 2);

  SafeCross restored(tiny_config());
  const auto report = store.load_report(restored, tiny_config());
  ASSERT_EQ(report.loaded.size(), 1u);
  EXPECT_EQ(report.loaded[0], dataset::Weather::Daytime);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].weather, dataset::Weather::Rain);
  EXPECT_TRUE(restored.has_model(dataset::Weather::Daytime));
  EXPECT_FALSE(restored.has_model(dataset::Weather::Rain));

  // The healthy daytime model must decide identically to the original.
  for (std::size_t i = 0; i < 5 && i < day.segments.size(); ++i) {
    const auto a = sc.classify_as(dataset::Weather::Daytime, day.segments[i].frames);
    const auto b = restored.classify_as(dataset::Weather::Daytime, day.segments[i].frames);
    EXPECT_EQ(a.predicted_class, b.predicted_class);
    EXPECT_FLOAT_EQ(a.prob_danger, b.prob_danger);
  }
}

TEST(ModelStore, ZeroByteAndBadMagicFilesSkipped) {
  dataset::BuildRequest req;
  req.target_segments = 25;
  req.max_sim_hours = 2.0;
  req.seed = 97;
  const auto day = dataset::build_dataset(req);
  SafeCross sc(tiny_config());
  train_basic(sc, ptrs(day.segments), {.epochs = 2});

  TempDir tmp;
  ModelStore store(tmp.path);
  store.save(sc);

  // Fabricate a zero-byte snow checkpoint and a garbage fog checkpoint.
  common::write_garbage(store.path_for(dataset::Weather::Snow), 0, 1);
  common::write_garbage(store.path_for(dataset::Weather::Fog), 4096, 2);
  // And flip the magic on a copy of the healthy daytime file as night.
  fs::copy_file(store.path_for(dataset::Weather::Daytime),
                store.path_for(dataset::Weather::Night));
  common::corrupt_magic(store.path_for(dataset::Weather::Night));

  SafeCross restored(tiny_config());
  const auto report = store.load_report(restored, tiny_config());
  ASSERT_EQ(report.loaded.size(), 1u);
  EXPECT_EQ(report.loaded[0], dataset::Weather::Daytime);
  EXPECT_EQ(report.errors.size(), 3u);
  for (const auto& err : report.errors) {
    EXPECT_NE(err.weather, dataset::Weather::Daytime);
    EXPECT_FALSE(err.message.empty());
  }
  // load() is the forgiving wrapper: loaded weathers only.
  SafeCross again(tiny_config());
  EXPECT_EQ(store.load(again, tiny_config()),
            std::vector<dataset::Weather>{dataset::Weather::Daytime});
}

// The structural checks (magic, size) cannot see a bit flip deep inside
// the tensor data — the CRC32 footer can. The corrupted checkpoint must
// be rejected by checksum before any weights deserialize.
TEST(ModelStore, MidFileBitFlipCaughtByChecksum) {
  dataset::BuildRequest req;
  req.target_segments = 25;
  req.max_sim_hours = 2.0;
  req.seed = 98;
  const auto day = dataset::build_dataset(req);
  SafeCross sc(tiny_config());
  train_basic(sc, ptrs(day.segments), {.epochs = 2});

  TempDir tmp;
  ModelStore store(tmp.path);
  store.save(sc);

  const auto path = store.path_for(dataset::Weather::Daytime);
  common::flip_byte(path, fs::file_size(path) / 2);

  runtime::BackoffPolicy policy;
  policy.initial_ms = 0.1;
  policy.max_restarts = 0;
  store.set_retry_policy(policy);

  SafeCross restored(tiny_config());
  const auto report = store.load_report(restored, tiny_config());
  EXPECT_TRUE(report.loaded.empty());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].message, "checkpoint checksum mismatch");
  EXPECT_FALSE(restored.has_model(dataset::Weather::Daytime));
}

// The footer is required: a damaged footer magic or a file cut just
// before its footer must not switch the checksum off.
TEST(ModelStore, DamagedOrMissingFooterIsRejected) {
  dataset::BuildRequest req;
  req.target_segments = 25;
  req.max_sim_hours = 2.0;
  req.seed = 98;
  const auto day = dataset::build_dataset(req);
  SafeCross sc(tiny_config());
  train_basic(sc, ptrs(day.segments), {.epochs = 2});

  TempDir tmp;
  ModelStore store(tmp.path);
  store.save(sc);

  const auto day_path = store.path_for(dataset::Weather::Daytime);
  const auto size = fs::file_size(day_path);
  // Rain: one byte of the footer magic flipped. Snow: exactly the 8
  // footer bytes cut, leaving a well-formed footer-less checkpoint.
  fs::copy_file(day_path, store.path_for(dataset::Weather::Rain));
  common::flip_byte(store.path_for(dataset::Weather::Rain), size - 8);
  fs::copy_file(day_path, store.path_for(dataset::Weather::Snow));
  common::truncate_file(store.path_for(dataset::Weather::Snow), size - 8);

  runtime::BackoffPolicy policy;
  policy.initial_ms = 0.1;
  policy.max_restarts = 0;
  store.set_retry_policy(policy);

  SafeCross restored(tiny_config());
  const auto report = store.load_report(restored, tiny_config());
  EXPECT_EQ(report.loaded, std::vector<dataset::Weather>{dataset::Weather::Daytime});
  ASSERT_EQ(report.errors.size(), 2u);
  for (const auto& err : report.errors) {
    EXPECT_EQ(err.message, "missing checkpoint footer") << vision::weather_name(err.weather);
  }
  EXPECT_FALSE(restored.has_model(dataset::Weather::Rain));
  EXPECT_FALSE(restored.has_model(dataset::Weather::Snow));
}

// The load decodes the very bytes the CRC covered, and the tensor blocks
// must end exactly at the footer: bytes between them are refused, not
// ignored.
TEST(ModelStore, BytesBetweenTensorsAndFooterAreRejected) {
  SafeCross sc = untrained_daytime();
  TempDir tmp;
  ModelStore store(tmp.path);
  store.save(sc);
  const auto path = store.path_for(dataset::Weather::Daytime);
  write_with_footer(path, tensor_blocks(path) + std::string(16, '\0'));
  store.set_retry_policy(no_retry());

  SafeCross restored(tiny_config());
  const auto report = store.load_report(restored, tiny_config());
  EXPECT_TRUE(report.loaded.empty());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].message, "checkpoint has bytes between its tensors and footer");
  EXPECT_FALSE(restored.has_model(dataset::Weather::Daytime));
}

// A checkpoint that fails persistently is retried with bounded backoff
// (a stat/open failure could be an NFS blip) and only then declared bad —
// with the attempt count surfaced so operators can tell "file is corrupt"
// from "file vanished on the first read".
TEST(ModelStore, PersistentlyBadCheckpointExhaustsRetryBudget) {
  TempDir tmp;
  fs::create_directories(tmp.path);
  ModelStore store(tmp.path);
  common::write_garbage(store.path_for(dataset::Weather::Snow), 4096, 5);

  runtime::BackoffPolicy policy;
  policy.initial_ms = 0.1;  // keep the test fast
  policy.max_ms = 0.5;
  policy.max_restarts = 2;
  store.set_retry_policy(policy);

  SafeCross sc(tiny_config());
  const auto report = store.load_report(sc, tiny_config());
  EXPECT_TRUE(report.loaded.empty());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].weather, dataset::Weather::Snow);
  EXPECT_EQ(report.errors[0].attempts, 1 + policy.max_restarts);
  EXPECT_FALSE(report.errors[0].message.empty());
  EXPECT_FALSE(sc.has_model(dataset::Weather::Snow));
}

TEST(ModelStore, RetryBudgetIsConfigurable) {
  TempDir tmp;
  fs::create_directories(tmp.path);
  ModelStore store(tmp.path);
  common::write_garbage(store.path_for(dataset::Weather::Fog), 64, 6);

  runtime::BackoffPolicy policy = store.retry_policy();
  policy.initial_ms = 0.1;
  policy.max_restarts = 0;  // fail fast: exactly one attempt
  store.set_retry_policy(policy);

  SafeCross sc(tiny_config());
  const auto report = store.load_report(sc, tiny_config());
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_EQ(report.errors[0].attempts, 1);
}

// The warm-up manifest orders checkpoints by on-disk size descending
// (costliest cold loads first), truncates to the cache capacity, and
// breaks size ties in the stable weather enumeration order.
TEST(ModelStore, WarmManifestOrdersBySizeAndTruncatesToCapacity) {
  TempDir tmp;
  fs::create_directories(tmp.path);
  ModelStore store(tmp.path);
  // Fabricated checkpoints: the manifest reads sizes only, never content.
  common::write_garbage(store.path_for(dataset::Weather::Daytime), 100, 1);
  common::write_garbage(store.path_for(dataset::Weather::Rain), 300, 2);
  common::write_garbage(store.path_for(dataset::Weather::Snow), 200, 3);
  common::write_garbage(store.path_for(dataset::Weather::Fog), 300, 4);

  const auto all = store.warm_manifest();
  ASSERT_EQ(all.size(), 4u);
  // Rain and Fog tie at 300 bytes: enumeration order (Rain before Fog).
  EXPECT_EQ(all[0], dataset::Weather::Rain);
  EXPECT_EQ(all[1], dataset::Weather::Fog);
  EXPECT_EQ(all[2], dataset::Weather::Snow);
  EXPECT_EQ(all[3], dataset::Weather::Daytime);

  const auto top2 = store.warm_manifest(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0], dataset::Weather::Rain);
  EXPECT_EQ(top2[1], dataset::Weather::Fog);

  // Capacity larger than the inventory keeps everything.
  EXPECT_EQ(store.warm_manifest(16).size(), 4u);
}

TEST(ModelStore, WarmManifestOnEmptyDirectoryIsEmpty) {
  TempDir tmp;
  fs::create_directories(tmp.path);
  ModelStore store(tmp.path);
  EXPECT_TRUE(store.warm_manifest().empty());
  EXPECT_TRUE(store.warm_manifest(3).empty());
}

/// Offsets of every framing field (magic, count, rank, dim) in the tensor
/// blocks save() writes for `model`: the params block, then the buffers.
std::vector<std::size_t> framing_offsets(models::VideoClassifier& model) {
  std::vector<std::size_t> offsets;
  std::size_t at = 0;
  const auto block = [&](const std::vector<const nn::Tensor*>& tensors) {
    offsets.push_back(at);                          // magic
    offsets.push_back(at + sizeof(std::uint32_t));  // count
    at += sizeof(std::uint32_t) + sizeof(std::uint64_t);
    for (const nn::Tensor* t : tensors) {
      for (std::size_t field = 0; field <= t->ndim(); ++field) {  // rank, dims
        offsets.push_back(at);
        at += sizeof(std::uint32_t);
      }
      at += t->numel() * sizeof(float);
    }
  };
  std::vector<const nn::Tensor*> params, buffers;
  for (const nn::Param* p : model.params()) params.push_back(&p->value);
  for (const nn::Tensor* t : model.buffers()) buffers.push_back(t);
  block(params);
  block(buffers);
  offsets.push_back(at);  // end of the blocks
  return offsets;
}

/// One seeded damage to a checkpoint's tensor blocks: a flipped bit
/// anywhere, a framing field set to a stressing value, or bytes cut,
/// inserted or deleted at a framing field.
std::string mutate(std::string blocks, const std::vector<std::size_t>& fields, Rng& rng) {
  const std::size_t field = fields[rng.uniform_int(fields.size() - 1)];
  switch (rng.uniform_int(std::uint64_t{5})) {
    case 0: {
      const std::size_t at = rng.uniform_int(blocks.size());
      blocks[at] = static_cast<char>(blocks[at] ^ (1 << rng.uniform_int(std::uint64_t{8})));
      break;
    }
    case 1: {
      const std::uint64_t values[] = {0, 1, 2, 5, 0x7FFFFFFFu, 0xFFFFFFFFu, std::uint64_t{1} << 32,
                                      std::uint64_t{1} << 61, ~std::uint64_t{0}, rng.next_u64()};
      const std::uint64_t v = values[rng.uniform_int(std::uint64_t{10})];
      const std::size_t width = rng.uniform_int(std::uint64_t{2}) == 0 ? 4 : 8;
      std::memcpy(blocks.data() + field, &v, std::min(width, blocks.size() - field));
      break;
    }
    case 2:
      blocks.resize(rng.uniform_int(blocks.size()));
      break;
    case 3:
      blocks.insert(field, 1 + rng.uniform_int(std::uint64_t{16}),
                    static_cast<char>(rng.uniform_int(std::uint64_t{256})));
      break;
    default:
      blocks.erase(field, 1 + rng.uniform_int(std::uint64_t{16}));
      break;
  }
  return blocks;
}

// Seeded damage to a saved checkpoint, re-framed with a fresh footer CRC
// so that every mutation reaches nn::load_params / nn::load_tensors. Each
// one must load or be reported in LoadReport::errors; none may throw.
TEST(ModelStoreMutation, DamagedTensorBlocksLoadOrAreReported) {
  SafeCross sc = untrained_daytime();
  TempDir tmp;
  ModelStore store(tmp.path);
  store.save(sc);
  store.set_retry_policy(no_retry());
  const auto path = store.path_for(dataset::Weather::Daytime);
  const std::string blocks = tensor_blocks(path);
  const std::vector<std::size_t> fields = framing_offsets(sc.model_for(dataset::Weather::Daytime));
  ASSERT_EQ(fields.back(), blocks.size()) << "the framing walk disagrees with save()";

  Rng rng(0xC4EC4B01u);
  int loaded = 0, refused = 0;
  for (int t = 0; t < 240; ++t) {
    write_with_footer(path, mutate(blocks, fields, rng));
    SafeCross restored(tiny_config());
    ModelStore::LoadReport report;
    ASSERT_NO_THROW(report = store.load_report(restored, tiny_config())) << "trial " << t;
    if (!report.loaded.empty()) {
      ++loaded;
      EXPECT_TRUE(report.errors.empty()) << "trial " << t;
      EXPECT_TRUE(restored.has_model(dataset::Weather::Daytime)) << "trial " << t;
      continue;
    }
    ++refused;
    ASSERT_EQ(report.errors.size(), 1u) << "trial " << t;
    EXPECT_FALSE(report.errors[0].message.empty()) << "trial " << t;
    EXPECT_FALSE(restored.has_model(dataset::Weather::Daytime)) << "trial " << t;
  }
  EXPECT_GT(loaded, 0) << "no mutation loaded; the damage never spares the weights";
  EXPECT_GT(refused, 0) << "no mutation was refused; the property is vacuous";
}

}  // namespace
}  // namespace safecross::core
