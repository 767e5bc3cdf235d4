#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {
// Keeps ceil(q * n) exact when q * n lands a rounding error above an
// integer (0.999 * 10000 is not 9990 in binary floating point).
constexpr double kEps = 1e-9;
}  // namespace

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - kEps));
  if (rank == 0) rank = 1;
  return xs[std::min(rank, xs.size()) - 1];
}

std::vector<double> per_index_quantile(
    const std::vector<std::vector<double>>& reps, double q) {
  if (reps.empty()) return {};
  std::size_t n = reps.front().size();
  for (const std::vector<double>& r : reps) n = std::min(n, r.size());
  std::vector<double> out(n), column(reps.size());
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < reps.size(); ++i) column[i] = reps[i][k];
    out[k] = quantile(column, q);
  }
  return out;
}

double episode_quantile(std::size_t n) {
  return n > 1 ? std::min(0.9, 1.0 - 1.0 / static_cast<double>(n)) : 1.0;
}

double resolvable_percentile(std::size_t n, std::size_t min_beyond) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.9, 0.5};
  for (double p : kLadder) {
    // Samples strictly above the nearest-rank p-quantile.
    const auto at =
        static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - kEps));
    if (n >= at && n - at >= min_beyond) return p;
  }
  return 0.0;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans)
    if (s.parent != Span::kNoParent && s.parent < spans.size())
      kids[s.parent].emplace_back(s.start_ns, s.end_ns);

  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (a >= b) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (hi - lo) - covered;
  }
  return out;
}

double failed_frac(std::uint64_t attempted, std::uint64_t failed) {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

double attributed_frac(const std::vector<LedgerEntry>& entries,
                       double host_ns) {
  if (host_ns <= 0.0) return 0.0;
  double sum = 0.0;
  for (const LedgerEntry& e : entries) sum += e.total_ns();
  return sum / host_ns;
}

}  // namespace perfbench
