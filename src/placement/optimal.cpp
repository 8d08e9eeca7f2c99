#include "placement/optimal.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "placement/placement.h"

namespace burstq {

void OptimalOptions::validate() const {
  BURSTQ_REQUIRE(max_vms >= 1 && max_vms <= 24,
                 "optimal search is limited to at most 24 VMs");
  BURSTQ_REQUIRE(max_vms_per_pm >= 1, "d must be at least 1");
  BURSTQ_REQUIRE(node_limit > 0, "node limit must be positive");
}

namespace {

struct Bin {
  Resource rb_sum{0.0};
  Resource max_re{0.0};
  std::size_t count{0};
};

class Search {
 public:
  Search(const ProblemInstance& inst, const MapCalTable& table,
         const OptimalOptions& options, Resource capacity)
      : inst_(&inst),
        table_(&table),
        options_(options),
        capacity_(capacity) {
    // Visit big VMs first: tight branches fail fast.
    order_.resize(inst.n_vms());
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      const double ka = inst.vms[a].rb + inst.vms[a].re;
      const double kb = inst.vms[b].rb + inst.vms[b].re;
      if (ka != kb) return ka > kb;
      return a < b;
    });
    best_ = inst.n_vms() + 1;  // sentinel: worse than one VM per PM
    // Simple volume lower bound: aggregate Rb alone must fit.
    double rb_total = 0.0;
    for (const auto& v : inst.vms) rb_total += v.rb;
    lower_bound_ = static_cast<std::size_t>(
        std::ceil(rb_total / capacity - 1e-9));
    lower_bound_ = std::max<std::size_t>(lower_bound_, 1);
  }

  std::optional<std::size_t> run() {
    std::vector<Bin> bins;
    dfs(0, bins);
    if (nodes_ >= options_.node_limit) return std::nullopt;
    if (best_ > inst_->n_vms()) return std::nullopt;  // nothing feasible
    return best_;
  }

 private:
  bool fits(const Bin& bin, const VmSpec& v) const {
    return bin.count < options_.max_vms_per_pm &&
           eq17_admits(capacity_, bin.count, bin.rb_sum, bin.max_re, v,
                       *table_);
  }

  void dfs(std::size_t depth, std::vector<Bin>& bins) {
    if (nodes_ >= options_.node_limit) return;
    ++nodes_;
    if (bins.size() >= best_) return;  // cannot improve
    if (depth == order_.size()) {
      best_ = bins.size();
      return;
    }
    if (best_ == lower_bound_) return;  // already optimal

    const VmSpec& v = inst_->vms[order_[depth]];

    // Branch 1..b: place into each existing bin that fits.  Symmetry
    // break: identical bins (same count/rb/max_re) produce identical
    // subtrees; skip duplicates.
    for (std::size_t b = 0; b < bins.size(); ++b) {
      bool duplicate = false;
      for (std::size_t b2 = 0; b2 < b; ++b2) {
        if (bins[b2].count == bins[b].count &&
            bins[b2].rb_sum == bins[b].rb_sum &&
            bins[b2].max_re == bins[b].max_re) {
          duplicate = true;
          break;
        }
      }
      if (duplicate || !fits(bins[b], v)) continue;
      const Bin saved = bins[b];
      bins[b].rb_sum += v.rb;
      bins[b].max_re = std::max(bins[b].max_re, v.re);
      ++bins[b].count;
      dfs(depth + 1, bins);
      bins[b] = saved;
    }

    // Branch b+1: open one canonical new bin (PMs are interchangeable).
    if (bins.size() + 1 < best_) {
      Bin fresh;
      if (fits(fresh, v)) {
        bins.push_back(Bin{v.rb, v.re, 1});
        dfs(depth + 1, bins);
        bins.pop_back();
      }
    }
  }

  const ProblemInstance* inst_;
  const MapCalTable* table_;
  OptimalOptions options_;
  Resource capacity_;
  std::vector<std::size_t> order_;
  std::size_t best_;
  std::size_t lower_bound_;
  std::size_t nodes_{0};
};

}  // namespace

std::optional<std::size_t> optimal_pm_count(const ProblemInstance& inst,
                                            const MapCalTable& table,
                                            const OptimalOptions& options) {
  inst.validate();
  options.validate();
  BURSTQ_REQUIRE(inst.n_vms() <= options.max_vms,
                 "instance too large for exact search");
  const Resource capacity = inst.pms.front().capacity;
  for (const auto& pm : inst.pms)
    BURSTQ_REQUIRE(pm.capacity == capacity,
                   "optimal search requires uniform PM capacity");

  Search search(inst, table, options, capacity);
  return search.run();
}

}  // namespace burstq
