#include "common.hpp"

#include <sys/resource.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/build_info.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::text(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

void Digest::u64(std::uint64_t v) { bytes(&v, sizeof v); }

void Digest::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

std::string Digest::hex() const {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << h_;
  return out.str();
}

std::string SinkBytes::digest() const {
  Digest d;
  d.text(out);
  d.text(csv);
  d.text(json);
  return d.hex();
}

cbus::exp::ExperimentSpec with_output_dir(cbus::exp::ExperimentSpec spec,
                                          const fs::path& dir) {
  const auto redirect = [&](std::string& path) {
    if (!path.empty() && path != "-") {
      path = (dir / fs::path(path).filename()).string();
    }
  };
  redirect(spec.csv_path);
  redirect(spec.json_path);
  return spec;
}

namespace {

std::string slurp(const std::string& path) {
  if (path.empty() || path == "-") return {};
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read sink " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

}  // namespace

SinkBytes read_sinks(const cbus::exp::ExperimentSpec& spec, std::string out) {
  return SinkBytes{std::move(out), slurp(spec.csv_path),
                   slurp(spec.json_path)};
}

std::string records_digest(const std::vector<cbus::exp::JobResult>& jobs) {
  Digest d;
  for (const cbus::exp::JobResult& job : jobs) {
    d.u64(job.index);
    d.text(job.error);
    d.u64(job.campaign.unfinished_runs);
    const cbus::metrics::Aggregator& agg = job.campaign.aggregate;
    d.u64(agg.runs());
    if (agg.retains_raw()) {
      for (const std::string& key : agg.keys()) {
        d.text(key);
        const std::size_t width = agg.width(key);
        d.u64(width);
        for (std::size_t e = 0; e < width; ++e) {
          for (const double x : agg.element_samples(key, e)) d.f64(x);
        }
      }
    } else {
      std::ostringstream state;
      agg.serialize(state);
      d.text(state.str());
    }
  }
  return d.hex();
}

double lane_cycles(const std::vector<cbus::exp::JobResult>& jobs) {
  double total = 0.0;
  for (const cbus::exp::JobResult& job : jobs) {
    if (!job.failed() && job.campaign.aggregate.has("tua.cycles")) {
      total += job.campaign.aggregate.element_sum("tua.cycles");
    }
  }
  return total;
}

std::uint64_t failed_runs(const std::vector<cbus::exp::JobResult>& jobs,
                          std::uint32_t runs) {
  std::uint64_t failed = 0;
  for (const cbus::exp::JobResult& job : jobs) {
    failed += job.failed() ? runs : job.campaign.unfinished_runs;
  }
  return failed;
}

void make_fresh_dir(const fs::path& dir) {
  if (fs::exists(dir) && !fs::is_empty(dir)) {
    throw std::runtime_error("work directory not fresh: " + dir.string());
  }
  fs::create_directories(dir);
}

JsonLine::JsonLine(std::ostream& out) : out_(out) { out_ << '{'; }

void JsonLine::key(std::string_view key) {
  out_ << (first_ ? "" : ", ") << '"' << key << "\": ";
  first_ = false;
}

JsonLine& JsonLine::num(std::string_view k, double value) {
  key(k);
  out_ << std::setprecision(17) << value;
  return *this;
}

JsonLine& JsonLine::num(std::string_view k, std::uint64_t value) {
  key(k);
  out_ << value;
  return *this;
}

JsonLine& JsonLine::str(std::string_view k, std::string_view value) {
  key(k);
  out_ << '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') out_ << '\\';
    out_ << c;
  }
  out_ << '"';
  return *this;
}

JsonLine& JsonLine::boolean(std::string_view k, bool value) {
  key(k);
  out_ << (value ? "true" : "false");
  return *this;
}

JsonLine& JsonLine::list(std::string_view k, const std::vector<double>& values) {
  key(k);
  out_ << '[' << std::setprecision(17);
  for (std::size_t i = 0; i < values.size(); ++i) {
    out_ << (i == 0 ? "" : ", ") << values[i];
  }
  out_ << ']';
  return *this;
}

void JsonLine::end() { out_ << "}\n" << std::flush; }

std::vector<int> cpus_in(const cpu_set_t& mask) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
  }
  return cpus;
}

void pin_thread(pthread_t thread, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(thread, sizeof one, &one);
}

CpuRotation::CpuRotation() : target_(pthread_self()) {
  if (pthread_getaffinity_np(target_, sizeof original_, &original_) != 0) {
    return;
  }
  cpus_ = cpus_in(original_);
  if (cpus_.size() < 2) return;
  mover_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t i = 0; !stop_; ++i) {
      pin_thread(target_, cpus_[i % cpus_.size()]);
      wake_.wait_for(lock, std::chrono::milliseconds(50),
                     [this] { return stop_; });
    }
  });
}

CpuRotation::~CpuRotation() {
  if (!mover_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_one();
  mover_.join();
  pthread_setaffinity_np(target_, sizeof original_, &original_);
}

void write_build_info(JsonLine& line) {
  const cbus::common::BuildInfo& info = cbus::common::build_info();
  line.str("git_hash", info.git_hash)
      .str("build_type", info.build_type)
      .str("simd", info.simd)
      .str("compiler", info.compiler)
      .num("hardware_threads",
           static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
}

}  // namespace perfbench
