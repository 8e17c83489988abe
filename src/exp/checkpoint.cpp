#include "exp/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "common/binary_io.hpp"
#include "common/build_info.hpp"
#include "common/contracts.hpp"
#include "platform/scenarios.hpp"

namespace cbus::exp {

namespace {

constexpr char kFileMagic[8] = {'C', 'B', 'U', 'S', 'C', 'K', 'P', 'T'};
/// Owned by common/build_info.hpp so --version and the telemetry headers
/// report the format this build actually reads and writes.
constexpr std::uint32_t kFormatVersion = common::kCheckpointFormatVersion;
constexpr std::uint32_t kSliceMagic = 0x45434C53;  // "SLCE"
/// An entry holds one slice's digest: far below this even for huge
/// metric catalogs. Guards length-prefixed reads of corrupted files.
constexpr std::uint32_t kMaxPayload = 1u << 30;

/// Canonical-rendering separators: never appear in config values.
constexpr char kUnit = '\x1f';
constexpr char kGroup = '\x1e';

[[nodiscard]] bool read_raw(std::istream& in, char* buf, std::size_t n) {
  in.read(buf, static_cast<std::streamsize>(n));
  return in.gcount() == static_cast<std::streamsize>(n);
}

[[nodiscard]] std::string header_payload(const CheckpointMeta& meta) {
  std::ostringstream out;
  io::write_u64(out, meta.seed);
  io::write_u64(out, meta.max_cycles);
  io::write_u64(out, meta.spec_hash);
  io::write_u32(out, meta.runs);
  io::write_u32(out, meta.batch);
  io::write_u32(out, meta.job_count);
  io::write_u32(out, meta.slice_count);
  io::write_u32(out, meta.shard_index);
  io::write_u32(out, meta.shard_count);
  io::write_string(out, meta.name);
  return out.str();
}

[[nodiscard]] CheckpointMeta parse_header_payload(const std::string& bytes) {
  std::istringstream in(bytes);
  CheckpointMeta meta;
  meta.seed = io::read_u64(in, "checkpoint seed");
  meta.max_cycles = io::read_u64(in, "checkpoint max_cycles");
  meta.spec_hash = io::read_u64(in, "checkpoint spec hash");
  meta.runs = io::read_u32(in, "checkpoint runs");
  meta.batch = io::read_u32(in, "checkpoint batch");
  meta.job_count = io::read_u32(in, "checkpoint job count");
  meta.slice_count = io::read_u32(in, "checkpoint slice count");
  meta.shard_index = io::read_u32(in, "checkpoint shard index");
  meta.shard_count = io::read_u32(in, "checkpoint shard count");
  meta.name = io::read_string(in, "checkpoint name", 4096);
  return meta;
}

[[nodiscard]] std::string slice_payload(const SliceState& slice) {
  std::ostringstream out;
  io::write_u32(out, slice.slice);
  io::write_u32(out, slice.job);
  io::write_u32(out, slice.first_run);
  io::write_u32(out, slice.run_count);
  io::write_u32(out, slice.unfinished);
  slice.aggregate.serialize(out);
  return out.str();
}

[[nodiscard]] SliceState parse_slice_payload(const std::string& bytes) {
  std::istringstream in(bytes);
  SliceState slice;
  slice.slice = io::read_u32(in, "slice index");
  slice.job = io::read_u32(in, "slice job");
  slice.first_run = io::read_u32(in, "slice first run");
  slice.run_count = io::read_u32(in, "slice run count");
  slice.unfinished = io::read_u32(in, "slice unfinished count");
  slice.aggregate = metrics::Aggregator::deserialize(in);
  return slice;
}

void write_framed(std::ostream& out, const std::string& payload) {
  io::write_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  io::write_u64(out, io::fnv1a(payload));
}

}  // namespace

std::uint64_t spec_hash(const ExperimentSpec& spec) {
  // Canonical rendering of every result-shaping field, in fixed order.
  // Output paths, summary and threads are deliberately absent: they do
  // not change what the slices compute.
  std::ostringstream text;
  text << spec.name << kUnit << spec.kernel << kUnit << spec.scenario
       << kUnit << spec.platform_text << kGroup;
  for (const auto& [key, value] : spec.platform_keys) {
    text << key << '=' << value << kUnit;
  }
  text << kGroup;
  for (const auto& [core, workload] : spec.corunners) {
    text << core << '=' << static_cast<int>(workload.kind) << ':'
         << workload.kernel << ':' << workload.gap;
    // Extra fields render only for the kinds that use them, so hashes
    // of pre-existing workloads stay byte-stable as kinds are added.
    if (workload.kind == WorkloadSpec::Kind::kPhased) {
      text << ':' << workload.period << ':' << workload.offset;
    }
    text << kUnit;
  }
  text << kGroup;
  for (const auto& axis : spec.sweeps) {
    text << axis.key << '=';
    for (const auto& value : axis.values) text << value << kUnit;
    text << kGroup;
  }
  for (const auto& metric : spec.metrics) text << metric << kUnit;
  text << kGroup << spec.runs << kUnit << spec.seed << kUnit
       << spec.max_cycles << kUnit << spec.batch << kUnit
       << (spec.pwcet ? 1 : 0) << kUnit << (spec.retain_raw ? 1 : 0);
  return io::fnv1a(text.str());
}

CheckpointMeta make_meta(const ExperimentSpec& spec,
                         std::uint32_t shard_index,
                         std::uint32_t shard_count) {
  CBUS_EXPECTS(shard_count >= 1 && shard_index < shard_count);
  CheckpointMeta meta;
  meta.name = spec.name;
  meta.seed = spec.seed;
  meta.max_cycles = spec.max_cycles;
  meta.spec_hash = spec_hash(spec);
  meta.runs = spec.runs;
  meta.batch = std::max(1u, spec.batch);
  std::size_t job_count = 1;
  for (const auto& axis : spec.sweeps) job_count *= axis.values.size();
  meta.job_count = static_cast<std::uint32_t>(job_count);
  meta.slice_count = static_cast<std::uint32_t>(
      platform::SlicePlan{job_count, spec.runs, meta.batch}.size());
  meta.shard_index = shard_index;
  meta.shard_count = shard_count;
  return meta;
}

namespace {

template <typename T>
void check_field(const char* field, const T& on_disk, const T& expected) {
  if (on_disk == expected) return;
  std::ostringstream msg;
  msg << "checkpoint does not match this campaign: " << field << " is ";
  if constexpr (std::is_same_v<T, std::string>) {
    msg << '\'' << on_disk << "' in the file but '" << expected
        << "' here";
  } else {
    msg << on_disk << " in the file but " << expected << " here";
  }
  CBUS_EXPECTS_MSG(false, msg.str());
}

}  // namespace

void validate_checkpoint_meta(const CheckpointMeta& on_disk,
                              const CheckpointMeta& expected) {
  check_field("name", on_disk.name, expected.name);
  check_field("seed", on_disk.seed, expected.seed);
  check_field("max_cycles", on_disk.max_cycles, expected.max_cycles);
  check_field("spec_hash", on_disk.spec_hash, expected.spec_hash);
  check_field("runs", on_disk.runs, expected.runs);
  check_field("batch", on_disk.batch, expected.batch);
  check_field("job_count", on_disk.job_count, expected.job_count);
  check_field("slice_count", on_disk.slice_count, expected.slice_count);
  check_field("shard_index", on_disk.shard_index, expected.shard_index);
  check_field("shard_count", on_disk.shard_count, expected.shard_count);
}

std::uint64_t stream_checkpoint(
    const std::string& path,
    const std::function<void(const CheckpointMeta&)>& on_meta,
    const std::function<void(SliceState&&)>& on_slice) {
  std::ifstream in(path, std::ios::binary);
  CBUS_EXPECTS_MSG(in.good(), "cannot open checkpoint file: " + path);

  // Header: every truncation here is a hard error -- a checkpoint is
  // created with a flushed header before any slice runs, so a file
  // without one was never a checkpoint (delete it to start over).
  char magic[sizeof kFileMagic];
  CBUS_EXPECTS_MSG(read_raw(in, magic, sizeof magic) &&
                       std::equal(magic, magic + sizeof magic, kFileMagic),
                   "not a cbus checkpoint file (bad magic): " + path);
  const std::uint32_t version = io::read_u32(in, "checkpoint version");
  CBUS_EXPECTS_MSG(version == kFormatVersion,
                   "checkpoint format version " + std::to_string(version) +
                       " is not supported (this build reads version " +
                       std::to_string(kFormatVersion) + ")");
  const std::uint32_t header_len = io::read_u32(in, "checkpoint header");
  CBUS_EXPECTS_MSG(header_len <= kMaxPayload,
                   "implausible checkpoint header length (corrupted file)");
  std::string header(header_len, '\0');
  CBUS_EXPECTS_MSG(read_raw(in, header.data(), header_len),
                   "truncated checkpoint header: " + path);
  const std::uint64_t header_sum = io::read_u64(in, "checkpoint checksum");
  CBUS_EXPECTS_MSG(header_sum == io::fnv1a(header),
                   "checkpoint header failed its checksum (corrupted "
                   "file): " + path);

  if (on_meta) on_meta(parse_header_payload(header));
  std::uint64_t valid_bytes = static_cast<std::uint64_t>(in.tellg());

  // Entries: a short read anywhere inside one entry is the expected
  // kill-mid-append artifact -- drop the tail and report the prefix. A
  // complete entry that fails its magic or checksum is corruption.
  while (true) {
    char entry_magic[4];
    in.read(entry_magic, sizeof entry_magic);
    if (in.gcount() == 0) break;  // clean end of file
    if (in.gcount() < static_cast<std::streamsize>(sizeof entry_magic)) {
      break;  // truncated tail
    }
    std::uint32_t magic_value;
    std::memcpy(&magic_value, entry_magic, sizeof magic_value);
    CBUS_EXPECTS_MSG(magic_value == kSliceMagic,
                     "checkpoint slice entry has a bad magic (corrupted "
                     "file): " + path);
    char len_bytes[4];
    if (!read_raw(in, len_bytes, sizeof len_bytes)) break;
    std::uint32_t len;
    std::memcpy(&len, len_bytes, sizeof len);
    CBUS_EXPECTS_MSG(len <= kMaxPayload,
                     "implausible slice entry length (corrupted file): " +
                         path);
    std::string payload(len, '\0');
    if (!read_raw(in, payload.data(), len)) break;
    char sum_bytes[8];
    if (!read_raw(in, sum_bytes, sizeof sum_bytes)) break;
    std::uint64_t sum;
    std::memcpy(&sum, sum_bytes, sizeof sum);
    CBUS_EXPECTS_MSG(sum == io::fnv1a(payload),
                     "checkpoint slice entry failed its checksum "
                     "(corrupted file): " + path);
    if (on_slice) on_slice(parse_slice_payload(payload));
    valid_bytes = static_cast<std::uint64_t>(in.tellg());
  }
  return valid_bytes;
}

LoadedCheckpoint load_checkpoint(const std::string& path) {
  LoadedCheckpoint out;
  out.valid_bytes = stream_checkpoint(
      path, [&](const CheckpointMeta& meta) { out.meta = meta; },
      [&](SliceState&& slice) { out.slices.push_back(std::move(slice)); });
  return out;
}

CheckpointWriter CheckpointWriter::create(const std::string& path,
                                          const CheckpointMeta& meta) {
  CheckpointWriter writer;
  writer.out_.open(path, std::ios::binary | std::ios::trunc);
  CBUS_EXPECTS_MSG(writer.out_.good(),
                   "cannot create checkpoint file: " + path);
  writer.out_.write(kFileMagic, sizeof kFileMagic);
  io::write_u32(writer.out_, kFormatVersion);
  write_framed(writer.out_, header_payload(meta));
  writer.out_.flush();
  CBUS_EXPECTS_MSG(writer.out_.good(),
                   "cannot write checkpoint header: " + path);
  return writer;
}

CheckpointWriter CheckpointWriter::append_to(const std::string& path,
                                             std::uint64_t valid_bytes) {
  // Cut off any truncated tail entry first, so appends start at the end
  // of the last complete one.
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  CBUS_EXPECTS_MSG(!ec, "cannot truncate checkpoint file: " + path);
  CheckpointWriter writer;
  writer.out_.open(path, std::ios::binary | std::ios::app);
  CBUS_EXPECTS_MSG(writer.out_.good(),
                   "cannot reopen checkpoint file: " + path);
  return writer;
}

void CheckpointWriter::append(const SliceState& slice) {
  io::write_u32(out_, kSliceMagic);
  write_framed(out_, slice_payload(slice));
  out_.flush();
  CBUS_EXPECTS_MSG(out_.good(), "checkpoint append failed (disk full?)");
}

}  // namespace cbus::exp
