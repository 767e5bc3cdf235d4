// The benchmark's own arithmetic: percentiles, span self time, failure
// fraction and the per-layer cost ledger.  Pure functions over plain data
// so tests/ledger_test.cpp can pin them without a world.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank quantile of `xs` (need not be sorted), q in [0, 1].
// Returns 0 for an empty sample.
double quantile(std::vector<double> xs, double q);

// Element-wise quantile over equal-length repetitions: out[k] is the
// nearest-rank q-quantile of reps[0][k], reps[1][k], ...  Elements past
// the shortest row's length are ignored; empty when `reps` is.
std::vector<double> per_index_quantile(
    const std::vector<std::vector<double>>& reps, double q);

// The nearest-rank quantile that the per-second times take over n
// repetitions: p90, but never above the second-largest value (the only
// value when n == 1).
double episode_quantile(std::size_t n);

// The highest of p50, p90, p99, p99.9, p99.99 that still has at least
// `min_beyond` samples above it in a sample of size n: the tail a sample
// of this size can actually resolve.  0 when even the median cannot.
double resolvable_percentile(std::size_t n, std::size_t min_beyond = 10);

// One timed interval.  Spans of one operation share `op`; `parent` indexes
// the enclosing span in the same vector (kNoParent for a root).
struct Span {
  static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;
  std::uint32_t name = 0;  // index into the recorder's name table
  std::uint32_t parent = kNoParent;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Self time of every span: its duration minus the part of it that the
// union of its direct children covers (children clipped to the parent).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

// Failed operations as a share of attempted ones (0 when nothing ran).
double failed_frac(std::uint64_t attempted, std::uint64_t failed);

// One line of the cost ledger: a layer's mean cost per call times how
// often the timed phase made that call.
struct LedgerEntry {
  std::string layer;
  double ns_per_call = 0.0;
  double calls = 0.0;
  double total_ns() const noexcept { return ns_per_call * calls; }
};

// Σ ns_per_call × calls over all entries, as a share of `host_ns`.
double attributed_frac(const std::vector<LedgerEntry>& entries,
                       double host_ns);

}  // namespace perfbench
