// Checkpoint format and sharded-campaign determinism tests: round
// trips, version and spec pinning (named-field diagnostics), truncated
// tail tolerance vs hard corruption errors, in-process resume, and the
// shard/merge path reproducing a single-process run byte for byte.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/checkpoint.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/sinks.hpp"
#include "metrics/record.hpp"

namespace cbus::exp {
namespace {

[[nodiscard]] ExperimentSpec parse(const std::string& text) {
  std::istringstream in(text);
  return parse_experiment(in);
}

/// A small streaming campaign: 2 sweep jobs x 6 runs in 3 slices each.
[[nodiscard]] ExperimentSpec stream_spec() {
  return parse(
      "name = ckpt-test\n"
      "scenario = con\n"
      "kernel = matrix\n"
      "sweep setup = rp cba\n"
      "runs = 6\n"
      "batch = 2\n"
      "seed = 0xABCD\n"
      "retain = stream\n"
      "summary = off\n");
}

/// A scratch file path, with any leftover from a previous run removed
/// (a stale corrupted checkpoint would otherwise poison resume tests).
[[nodiscard]] std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

[[nodiscard]] std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The JSON sink rendering of a result -- the byte-identity yardstick
/// for resume and shard/merge (it covers stats, metrics and counters).
[[nodiscard]] std::string json_of(const ExperimentSpec& spec,
                                  const ExperimentResult& result) {
  std::ostringstream out;
  make_sink(SinkKind::kJson)->write(spec, result.jobs, out);
  return out.str();
}

/// Run the spec's campaign once and leave a complete checkpoint behind.
[[nodiscard]] ExperimentResult run_with_checkpoint(
    const ExperimentSpec& spec, const std::string& path) {
  RunOptions options;
  options.threads_override = 1;
  options.checkpoint_path = path;
  return run_experiment(spec, options);
}

void expect_throws_with(const std::function<void()>& op,
                        const std::string& fragment) {
  try {
    op();
    FAIL() << "should have thrown (wanted: " << fragment << ")";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

// --- format round trip and pinning ------------------------------------------

TEST(Checkpoint, RoundTripsMetaAndSlices) {
  const ExperimentSpec spec = stream_spec();
  const std::string path = temp_path("roundtrip.ckpt");
  const ExperimentResult direct = run_with_checkpoint(spec, path);
  ASSERT_EQ(direct.failed_jobs(), 0u);

  const LoadedCheckpoint loaded = load_checkpoint(path);
  validate_checkpoint_meta(loaded.meta, make_meta(spec, 0, 1));
  EXPECT_EQ(loaded.meta.job_count, 2u);
  EXPECT_EQ(loaded.meta.slice_count, 6u);
  ASSERT_EQ(loaded.slices.size(), 6u);
  std::uint64_t runs_total = 0;
  for (const SliceState& slice : loaded.slices) {
    EXPECT_LT(slice.job, 2u);
    EXPECT_EQ(slice.run_count, 2u);
    EXPECT_FALSE(slice.aggregate.retains_raw());
    runs_total += slice.aggregate.runs();
  }
  EXPECT_EQ(runs_total, 12u);
  // valid_bytes covers the whole file when nothing was truncated.
  EXPECT_EQ(loaded.valid_bytes, file_bytes(path).size());
}

TEST(Checkpoint, RejectsBadMagicAndUnsupportedVersion) {
  const std::string path = temp_path("badmagic.ckpt");
  write_file(path, "definitely not a checkpoint file");
  expect_throws_with([&] { (void)load_checkpoint(path); },
                     "not a cbus checkpoint file (bad magic)");

  // Same magic, version bumped to 2: a future format must be refused
  // by this reader, not misparsed.
  std::string future = "CBUSCKPT";
  const std::uint32_t version = 2;
  future.append(reinterpret_cast<const char*>(&version), sizeof version);
  write_file(path, future);
  expect_throws_with(
      [&] { (void)load_checkpoint(path); },
      "checkpoint format version 2 is not supported (this build reads "
      "version 1)");
}

TEST(Checkpoint, RejectsCorruptedHeaderChecksum) {
  const ExperimentSpec spec = stream_spec();
  const std::string path = temp_path("hdrsum.ckpt");
  (void)run_with_checkpoint(spec, path);
  std::string bytes = file_bytes(path);
  // Flip one bit inside the header payload (past magic+version+len).
  bytes[18] = static_cast<char>(bytes[18] ^ 0x01);
  write_file(path, bytes);
  expect_throws_with([&] { (void)load_checkpoint(path); },
                     "checkpoint header failed its checksum");
}

TEST(Checkpoint, RejectsCorruptedSliceEntry) {
  const ExperimentSpec spec = stream_spec();
  const std::string path = temp_path("slicesum.ckpt");
  (void)run_with_checkpoint(spec, path);
  const std::string original = file_bytes(path);
  const LoadedCheckpoint loaded = load_checkpoint(path);
  ASSERT_GT(loaded.slices.size(), 1u);

  // Find the first entry's start: it is where "SLCE" first appears.
  const std::size_t entry = original.find("SLCE");
  ASSERT_NE(entry, std::string::npos);

  // A flipped byte inside a COMPLETE entry is corruption, not a
  // kill-mid-append artifact: hard error.
  std::string corrupted = original;
  corrupted[entry + 10] = static_cast<char>(corrupted[entry + 10] ^ 0x40);
  write_file(path, corrupted);
  expect_throws_with([&] { (void)load_checkpoint(path); },
                     "checkpoint slice entry failed its checksum");

  // A trashed entry magic likewise.
  corrupted = original;
  corrupted[entry] = 'X';
  write_file(path, corrupted);
  expect_throws_with([&] { (void)load_checkpoint(path); },
                     "checkpoint slice entry has a bad magic");
}

TEST(Checkpoint, ToleratesTruncatedTailEntry) {
  const ExperimentSpec spec = stream_spec();
  const std::string path = temp_path("tail.ckpt");
  (void)run_with_checkpoint(spec, path);
  const std::string original = file_bytes(path);
  const LoadedCheckpoint full = load_checkpoint(path);
  ASSERT_EQ(full.slices.size(), 6u);

  // Chop the file mid-way through the last entry, as a SIGKILL between
  // write() and flush would: the prefix loads cleanly, the tail slice
  // is simply gone, and valid_bytes marks the cut for append_to.
  write_file(path, original.substr(0, original.size() - 7));
  const LoadedCheckpoint chopped = load_checkpoint(path);
  EXPECT_EQ(chopped.slices.size(), 5u);
  EXPECT_LT(chopped.valid_bytes, original.size() - 7);

  // Appending after the valid prefix heals the file: rewrite the lost
  // slice and the checkpoint reads complete again.
  {
    CheckpointWriter writer =
        CheckpointWriter::append_to(path, chopped.valid_bytes);
    writer.append(full.slices.back());
  }
  const LoadedCheckpoint healed = load_checkpoint(path);
  ASSERT_EQ(healed.slices.size(), 6u);
  EXPECT_EQ(healed.slices.back().slice, full.slices.back().slice);
}

TEST(Checkpoint, MetaMismatchNamesTheField) {
  const ExperimentSpec spec = stream_spec();
  const CheckpointMeta mine = make_meta(spec, 0, 1);

  CheckpointMeta other = mine;
  other.seed = 999;
  expect_throws_with([&] { validate_checkpoint_meta(other, mine); },
                     "checkpoint does not match this campaign: seed is "
                     "999 in the file but 43981 here");

  other = mine;
  other.name = "someone-elses-study";
  expect_throws_with([&] { validate_checkpoint_meta(other, mine); },
                     "name is 'someone-elses-study' in the file but "
                     "'ckpt-test' here");

  // Any result-shaping spec edit moves the hash, even when every named
  // header field still matches.
  ExperimentSpec edited = stream_spec();
  edited.platform_keys.emplace_back("maxl", "7");
  expect_throws_with(
      [&] {
        validate_checkpoint_meta(make_meta(edited, 0, 1), mine);
      },
      "spec_hash is ");
}

TEST(Checkpoint, SpecHashCoversResultShapingFieldsOnly) {
  const ExperimentSpec spec = stream_spec();
  const std::uint64_t base = spec_hash(spec);

  ExperimentSpec edited = stream_spec();
  edited.threads = 7;
  edited.json_path = "elsewhere.json";
  edited.summary = true;
  EXPECT_EQ(spec_hash(edited), base)
      << "output routing must not invalidate checkpoints";

  edited = stream_spec();
  edited.seed += 1;
  EXPECT_NE(spec_hash(edited), base);
  edited = stream_spec();
  edited.kernel = "tblook";
  EXPECT_NE(spec_hash(edited), base);
  edited = stream_spec();
  edited.max_cycles += 1;
  EXPECT_NE(spec_hash(edited), base);
}

TEST(Checkpoint, HeaderBytesGolden) {
  // Locks the on-disk header layout for version 1 (host byte order; the
  // golden is for the little-endian hosts CI runs on). Any layout edit
  // must bump kFormatVersion instead of silently moving fields.
  if constexpr (std::endian::native != std::endian::little) {
    GTEST_SKIP() << "golden bytes assume a little-endian host";
  }
  CheckpointMeta meta;
  meta.name = "g";
  meta.seed = 0x0102030405060708ull;
  meta.max_cycles = 9;
  meta.spec_hash = 0x1122334455667788ull;
  meta.runs = 10;
  meta.batch = 2;
  meta.job_count = 3;
  meta.slice_count = 15;
  meta.shard_index = 1;
  meta.shard_count = 4;
  const std::string path = temp_path("golden.ckpt");
  { (void)CheckpointWriter::create(path, meta); }
  const std::string bytes = file_bytes(path);

  const unsigned char expected[] = {
      // magic, version 1
      'C', 'B', 'U', 'S', 'C', 'K', 'P', 'T', 1, 0, 0, 0,
      // header frame: payload length 53
      53, 0, 0, 0,
      // seed, max_cycles, spec_hash (u64 little-endian each)
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,
      9, 0, 0, 0, 0, 0, 0, 0,
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
      // runs, batch, job_count, slice_count, shard_index, shard_count
      10, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 15, 0, 0, 0,
      1, 0, 0, 0, 4, 0, 0, 0,
      // name: u32 length + bytes
      1, 0, 0, 0, 'g'};
  ASSERT_EQ(bytes.size(), sizeof expected + 8);  // + payload checksum
  EXPECT_EQ(std::memcmp(bytes.data(), expected, sizeof expected), 0);
  // The trailing FNV-1a checksum is itself pinned by the layout.
  const LoadedCheckpoint reread = load_checkpoint(path);
  validate_checkpoint_meta(reread.meta, meta);
}

// --- resume -----------------------------------------------------------------

TEST(CheckpointResume, SkipsCompletedSlicesAndMatchesBytes) {
  const ExperimentSpec spec = stream_spec();
  const std::string full_path = temp_path("resume-full.ckpt");
  const ExperimentResult uninterrupted =
      run_with_checkpoint(spec, full_path);
  const std::string expected = json_of(spec, uninterrupted);
  const LoadedCheckpoint full = load_checkpoint(full_path);

  // Replay a kill after two finished slices: a fresh checkpoint holding
  // only those, plus a truncated garbage tail as the kill artifact.
  const std::string partial_path = temp_path("resume-partial.ckpt");
  {
    CheckpointWriter writer =
        CheckpointWriter::create(partial_path, make_meta(spec, 0, 1));
    writer.append(full.slices[0]);
    writer.append(full.slices[3]);
  }
  const std::uint64_t valid = load_checkpoint(partial_path).valid_bytes;
  {
    std::ofstream out(partial_path,
                      std::ios::binary | std::ios::app);
    out.write("SLCE\x40\x00", 6);  // half an entry header
  }

  const ExperimentResult resumed =
      run_with_checkpoint(spec, partial_path);
  EXPECT_EQ(json_of(spec, resumed), expected);

  // The healed file is complete and its valid prefix grew.
  const LoadedCheckpoint after = load_checkpoint(partial_path);
  EXPECT_EQ(after.slices.size(), 6u);
  EXPECT_GT(after.valid_bytes, valid);

  // A second resume finds nothing to do and still matches.
  const ExperimentResult again = run_with_checkpoint(spec, partial_path);
  EXPECT_EQ(json_of(spec, again), expected);
}

TEST(CheckpointResume, RejectsACheckpointFromAnotherCampaign) {
  const ExperimentSpec spec = stream_spec();
  const std::string path = temp_path("foreign.ckpt");
  (void)run_with_checkpoint(spec, path);

  ExperimentSpec other = stream_spec();
  other.seed = 0xFEED;
  expect_throws_with([&] { (void)run_with_checkpoint(other, path); },
                     "checkpoint does not match this campaign: seed is ");
}

TEST(CheckpointResume, CheckpointingRequiresStreaming) {
  ExperimentSpec spec = stream_spec();
  spec.retain_raw = true;
  expect_throws_with(
      [&] {
        (void)run_with_checkpoint(spec, temp_path("raw.ckpt"));
      },
      "checkpointing requires retain = stream");
}

// --- sharding and merge -----------------------------------------------------

TEST(ShardMerge, ShardsReassembleToSingleProcessBytes) {
  const ExperimentSpec spec = stream_spec();
  RunOptions single;
  single.threads_override = 2;
  const std::string expected =
      json_of(spec, run_experiment(spec, single));

  for (const std::uint32_t shard_count : {1u, 3u}) {
    for (const std::uint32_t threads : {1u, 2u}) {
      std::vector<std::string> paths;
      for (std::uint32_t i = 0; i < shard_count; ++i) {
        RunOptions options;
        options.threads_override = threads;
        options.shard_index = i;
        options.shard_count = shard_count;
        options.checkpoint_path =
            temp_path("shard-" + std::to_string(shard_count) + "-" +
                      std::to_string(threads) + "-" + std::to_string(i) +
                      ".ckpt");
        paths.push_back(options.checkpoint_path);
        const ExperimentResult shard = run_experiment(spec, options);
        ASSERT_EQ(shard.failed_jobs(), 0u);
      }
      const ExperimentResult result = fold_checkpoints_streaming(spec, paths);
      EXPECT_EQ(json_of(spec, result), expected)
          << shard_count << " shards, " << threads << " threads";
    }
  }
}

TEST(ShardMerge, ShardOwnsOnlyItsSlices) {
  const ExperimentSpec spec = stream_spec();
  RunOptions options;
  options.threads_override = 1;
  options.shard_index = 1;
  options.shard_count = 3;
  options.checkpoint_path = temp_path("own.ckpt");
  (void)run_experiment(spec, options);
  const LoadedCheckpoint loaded = load_checkpoint(options.checkpoint_path);
  ASSERT_FALSE(loaded.slices.empty());
  for (const SliceState& slice : loaded.slices) {
    EXPECT_EQ(slice.slice % 3u, 1u);
  }
  EXPECT_EQ(loaded.meta.shard_index, 1u);
  EXPECT_EQ(loaded.meta.shard_count, 3u);
}

TEST(ShardMerge, MergeValidatesTheShardSet) {
  const ExperimentSpec spec = stream_spec();
  std::vector<std::string> paths;
  for (std::uint32_t i = 0; i < 3; ++i) {
    RunOptions options;
    options.threads_override = 1;
    options.shard_index = i;
    options.shard_count = 3;
    options.checkpoint_path =
        temp_path("vs-" + std::to_string(i) + ".ckpt");
    paths.push_back(options.checkpoint_path);
    (void)run_experiment(spec, options);
  }

  // Wrong file count for the recorded shard geometry.
  expect_throws_with(
      [&] { (void)fold_checkpoints_streaming(spec, {paths[0], paths[1]}); },
      "ran as 3 shard(s) but 2 checkpoint file(s) were given");

  // The same shard twice (and another missing).
  expect_throws_with(
      [&] {
        (void)fold_checkpoints_streaming(spec, {paths[0], paths[1], paths[1]});
      },
      "two checkpoint files claim shard 1");

  // An unfinished shard: keep its header but drop its slices.
  const LoadedCheckpoint loaded = load_checkpoint(paths[2]);
  {
    CheckpointWriter writer =
        CheckpointWriter::create(paths[2], loaded.meta);
  }
  expect_throws_with(
      [&] { (void)fold_checkpoints_streaming(spec, paths); },
      "checkpoint set is incomplete: slice 2 (shard 2) has not "
      "finished");
}

TEST(ShardMerge, ShardedRunRequiresACheckpoint) {
  const ExperimentSpec spec = stream_spec();
  RunOptions options;
  options.shard_index = 0;
  options.shard_count = 2;
  expect_throws_with([&] { (void)run_experiment(spec, options); },
                     "sharded runs need a checkpoint file");
}

TEST(ShardMerge, FinalizeRejectsForeignSlices) {
  // A well-formed file (header and checksums intact) whose first slice
  // claims a job the campaign does not have.
  const ExperimentSpec spec = stream_spec();
  const std::string path = temp_path("foreign-slice.ckpt");
  (void)run_with_checkpoint(spec, path);
  std::vector<SliceState> slices = load_checkpoint(path).slices;
  slices[0].job = 99;
  {
    CheckpointWriter writer =
        CheckpointWriter::create(path, make_meta(spec, 0, 1));
    for (const SliceState& slice : slices) writer.append(slice);
  }
  expect_throws_with(
      [&] { (void)fold_checkpoints_streaming(spec, {path}); },
      "slice state references job 99 of 2");
}

}  // namespace
}  // namespace cbus::exp
