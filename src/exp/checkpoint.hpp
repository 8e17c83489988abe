// Slice-granularity campaign checkpoints and multi-process sharding.
//
// A checkpoint file records which work slices of an experiment finished
// and each slice's folded aggregator digest (metrics::Aggregator
// serialize()), so a campaign can be killed and resumed -- or split
// across processes (`cbus_sim --shard i/N`) and merged (`cbus_merge`)
// -- with byte-identical final output. That guarantee rests on two
// legs: slice results are exactly mergeable in any order, and the file
// header pins every input that shapes the run (spec hash, seed, runs,
// batch, slice plan, shard geometry), so a stale or foreign checkpoint
// is rejected with a named-field diagnostic instead of quietly mixing
// campaigns.
//
// File layout (host byte order; a working file, not interchange):
//
//   header  "CBUSCKPT" u32:version u32:len payload u64:fnv1a(payload)
//   entry*  "SLCE"     u32:len payload u64:fnv1a(payload)
//
// Entries are appended and flushed one per finished slice. A process
// killed mid-append leaves a truncated final entry; load_checkpoint
// drops that tail (the slice just reruns) and resume rewrites it. Any
// other malformation -- bad magic, unsupported version, checksum
// mismatch, header fields from a different campaign -- is a hard
// std::invalid_argument.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "exp/experiment.hpp"
#include "metrics/aggregator.hpp"

namespace cbus::exp {

/// Everything the header pins. Two runs with equal metas execute the
/// same slice plan over the same seeds and may share checkpoint state.
struct CheckpointMeta {
  std::string name;
  std::uint64_t seed = 0;
  std::uint64_t max_cycles = 0;
  std::uint64_t spec_hash = 0;   ///< spec_hash() over the full spec
  std::uint32_t runs = 0;        ///< per job
  std::uint32_t batch = 0;       ///< slice width
  std::uint32_t job_count = 0;
  std::uint32_t slice_count = 0; ///< global, job-major slice plan
  std::uint32_t shard_index = 0; ///< this file owns slices s with
  std::uint32_t shard_count = 1; ///<   s % shard_count == shard_index
};

/// FNV-1a over a canonical rendering of every spec field that shapes
/// simulation results (workloads, platform, sweeps, runs, seeds --
/// not output paths or thread counts).
[[nodiscard]] std::uint64_t spec_hash(const ExperimentSpec& spec);

/// The meta a run of `spec` as shard `shard_index` of `shard_count`
/// writes; derives job/slice counts from the sweep grid and batch.
[[nodiscard]] CheckpointMeta make_meta(const ExperimentSpec& spec,
                                       std::uint32_t shard_index,
                                       std::uint32_t shard_count);

/// Throw std::invalid_argument naming the first mismatching field when
/// `on_disk` was not written by a run shaped like `expected`.
void validate_checkpoint_meta(const CheckpointMeta& on_disk,
                              const CheckpointMeta& expected);

/// One finished slice: its place in the global slice plan plus the
/// streaming digest of its finished runs.
struct SliceState {
  std::uint32_t slice = 0;      ///< global slice index
  std::uint32_t job = 0;
  std::uint32_t first_run = 0;
  std::uint32_t run_count = 0;
  std::uint32_t unfinished = 0; ///< runs that hit max_cycles
  metrics::Aggregator aggregate;
};

struct LoadedCheckpoint {
  CheckpointMeta meta;
  std::vector<SliceState> slices;
  /// Byte length of the valid prefix; a truncated tail entry (kill
  /// mid-append) lies beyond it and is discarded on resume.
  std::uint64_t valid_bytes = 0;
};

/// Parse a checkpoint file. Tolerates exactly one truncated tail entry;
/// throws std::invalid_argument on every other malformation.
[[nodiscard]] LoadedCheckpoint load_checkpoint(const std::string& path);

/// Single-pass streaming read: `on_meta` fires once with the parsed
/// header, then `on_slice` once per complete entry, in file order. The
/// caller folds each slice and drops it, so reading an N-slice
/// checkpoint needs O(1) live slice states instead of O(N) -- the
/// foundation of cbus_merge's streaming fold. Same error/truncation
/// contract as load_checkpoint (which is built on this). Returns the
/// valid-prefix byte length.
std::uint64_t stream_checkpoint(
    const std::string& path,
    const std::function<void(const CheckpointMeta&)>& on_meta,
    const std::function<void(SliceState&&)>& on_slice);

/// Appends finished slices to a checkpoint file, one flushed entry per
/// append() so a kill loses at most the entry in flight.
class CheckpointWriter {
 public:
  /// Start a fresh checkpoint at `path` (truncates) with `meta`.
  [[nodiscard]] static CheckpointWriter create(const std::string& path,
                                               const CheckpointMeta& meta);

  /// Reopen an existing checkpoint for appending after its valid prefix
  /// (load_checkpoint's valid_bytes); a truncated tail entry is cut off.
  [[nodiscard]] static CheckpointWriter append_to(const std::string& path,
                                                  std::uint64_t valid_bytes);

  void append(const SliceState& slice);

 private:
  CheckpointWriter() = default;
  std::ofstream out_;
};

}  // namespace cbus::exp
