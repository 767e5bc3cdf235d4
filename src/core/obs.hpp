// zmail::obs — observability layer: structured (JSON) export of the
// counters the protocol code already keeps.
//
// Nothing here adds instrumentation; it serializes what IspMetrics,
// BankMetrics, and the stats types record, in one machine-readable schema
// ("zmail-obs-v3") that scenario_runner --telemetry-json writes and the
// determinism tests and bench_p1 diff.  Key order is fixed (struct field
// order / sorted names), so two runs of the same experiment diff cleanly.
//
// Every value that depends on how the run executed (the shard partition or
// wall-clock time) lives in one of the sections named by
// kRunDependentSections; everything else is a property of the simulated
// world and is bit-identical at any shard or thread count.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/federated_system.hpp"
#include "core/metrics.hpp"
#include "core/sharded_system.hpp"
#include "core/system.hpp"
#include "telemetry/probes.hpp"
#include "telemetry/series.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace zmail::obs {

inline constexpr const char* kSchemaName = "zmail-obs-v3";

// The sections that describe the run rather than the world: "engine"
// (calendar rebases; windows, cross-shard messages and barrier audits when
// sharded), "timeseries_engine" (per-shard engine series), and the
// flight-recorder "trace_breakdown" and "profiles" (wall-clock timings).
inline constexpr std::array<const char*, 4> kRunDependentSections = {
    "engine", "timeseries_engine", "trace_breakdown", "profiles"};

// `snapshot` without the kRunDependentSections: the artifact bit-identity
// comparisons diff.
json::Value world_state(json::Value snapshot);

json::Value to_json(const core::IspMetrics& m);
json::Value to_json(const core::BankMetrics& m);
json::Value to_json(const core::LegacyHostStats& s);
json::Value to_json(const OnlineStats& s);
json::Value to_json(const Histogram& h);
// Samples export summary percentiles, not raw observations (raw data can be
// millions of points; the consumers in EXPERIMENTS.md only read quantiles).
json::Value to_json(const Sample& s);

// A run's telemetry as the snapshot sections use it: the registries'
// series merged (with the derived series), and the default probe rules
// evaluated over them.
struct MergedTelemetry {
  std::vector<telemetry::Series> series;
  telemetry::ProbeReport probes;
};

// `log_transitions` logs each probe fire/clear through the "probe"
// component; pass false when the live run already logged them.
MergedTelemetry merge_telemetry(
    const std::vector<const telemetry::TelemetryRegistry*>& regs,
    EPenny endowment_epennies, bool log_transitions);

// Every snapshot() below takes an optional `telemetry`: the caller's
// merge_telemetry() of this same world, written as the telemetry sections
// instead of merging and probing the registries a second time.

// Whole-system snapshot: aggregate + per-ISP metrics, bank metrics,
// delivery latency, network totals, conservation status, durable-store
// totals and the "engine" section; "trace_breakdown" + "profiles" when the
// flight recorder is on; "timeseries", "timeseries_engine" and "probes"
// (the default health rules evaluated over the run) when telemetry is on.
json::Value snapshot(const core::ZmailSystem& sys,
                     const MergedTelemetry* telemetry = nullptr);

// Snapshot of a (possibly sharded) world, same layout.  Every world value
// is merged partition-independently (summed counters, ISP-index-ordered
// per-ISP sections, the delivery-latency sample sorted before reduction),
// so in deterministic mode world_state() of it is bit-identical at any
// shard or thread count >= 2; with shards == 1 the whole snapshot matches
// the whole-system one byte for byte.
json::Value snapshot(const core::ShardedSystem& sys,
                     const MergedTelemetry* telemetry = nullptr);

// Snapshot of a federated-bank world: ISP totals plus a "federation"
// section (rounds, inter-bank messages/bytes, cross-bank settlements,
// clearing transfers, robustness counters, violations, and per-bank
// seq/clearing positions), network and conservation status, the per-bank
// durable-store totals, and the telemetry sections when telemetry is on.
json::Value snapshot(const core::FederatedZmailSystem& sys,
                     const MergedTelemetry* telemetry = nullptr);

// Named lazy metric sources.  Providers are invoked at snapshot() time, so
// a registry built before a run observes the state at export, not at
// registration.  Registration order is serialization order.
class MetricsRegistry {
 public:
  using Provider = std::function<json::Value()>;

  // False (with an error log) on a duplicate name: the first registration
  // wins, the new provider is dropped.  Silently shadowing the first in
  // the JSON output was the old behaviour, and it hid wiring bugs.
  bool add(std::string name, Provider provider);
  // Convenience: registers obs::snapshot(sys, telemetry) for any of the
  // three worlds.  The system (and `telemetry`, when given) must outlive
  // the registry's last snapshot() call.
  template <class World>
  bool add_system(std::string name, const World& sys,
                  const MergedTelemetry* telemetry = nullptr) {
    return add(std::move(name),
               [&sys, telemetry] { return obs::snapshot(sys, telemetry); });
  }

  std::size_t size() const noexcept { return providers_.size(); }

  // {"schema": "zmail-obs-v3", "<name>": <provider()>, ...}
  json::Value snapshot() const;
  bool write_file(const std::string& path, std::string* error = nullptr) const;

 private:
  std::vector<std::pair<std::string, Provider>> providers_;
};

}  // namespace zmail::obs
