// Build provenance, embedded once at configure/compile time and stamped
// into every machine-readable observability output (trace JSON metadata,
// telemetry headers) plus `cbus_sim --version`.
//
// The experiment sinks (CSV/JSON/summary) deliberately do NOT carry
// provenance: their byte layout is locked by golden tests and by the
// shard/merge/resume byte-identity contract, and a git hash in those
// files would break "same spec, same bytes" across builds. Provenance
// lives only in the observability side channels, whose content is
// timing-dependent anyway.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace cbus::common {

/// Version of the Chrome-trace JSON layout obs::Timeline emits.
inline constexpr std::uint32_t kTraceSchemaVersion = 1;
/// Version of the telemetry JSON document obs::write_telemetry_json emits
/// (2 added `slice_paths` and `lane_cycles`; 3 dropped
/// `slice_paths.engine`; 4 dropped `slice_paths`).
inline constexpr std::uint32_t kTelemetrySchemaVersion = 4;
/// Version of the CBUSCKPT checkpoint container (exp/checkpoint.cpp
/// reads and writes exactly this version).
inline constexpr std::uint32_t kCheckpointFormatVersion = 1;

struct BuildInfo {
  std::string_view version;     ///< project version (CMake)
  std::string_view git_hash;    ///< short commit hash; "unknown" outside git
  std::string_view compiler;    ///< e.g. "GNU 12.2.0"
  std::string_view build_type;  ///< e.g. "Release"
  std::string_view flags;       ///< CMAKE_CXX_FLAGS for the build type
  std::string_view simd;        ///< vec kernel implementation: "scalar"
};

[[nodiscard]] const BuildInfo& build_info() noexcept;

/// One human-readable line (the `cbus_sim --version` body).
[[nodiscard]] std::string build_info_line();

/// The provenance fragment shared by every observability JSON document:
/// a complete object value ({"version": ..., "git_hash": ..., ...}),
/// including schema versions.
void write_build_info_json(std::ostream& out);

}  // namespace cbus::common
