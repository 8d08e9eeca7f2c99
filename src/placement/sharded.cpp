#include "placement/sharded.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/obs.h"
#include "placement/incremental.h"

namespace burstq {

namespace {

/// Auto-sizing targets roughly this many PMs per shard so small fleets
/// stay single-shard (identical to the incremental engine) and large
/// fleets expose enough parallelism without shrinking shards into
/// spill-heavy slivers.
constexpr std::size_t kAutoPmsPerShard = 256;
constexpr std::size_t kMaxAutoShards = 64;

constexpr std::size_t kUnplaced = std::numeric_limits<std::size_t>::max();

}  // namespace

void ShardedOptions::validate() const {
  // Every value is meaningful: shards 0 = auto, threads 0 = default pool
  // size, decision_budget 0 = unlimited.  Nothing to reject.
}

std::size_t resolve_shard_count(std::size_t n_pms, std::size_t requested) {
  BURSTQ_REQUIRE(n_pms >= 1, "shard count needs at least one PM");
  if (requested > 0) return std::min(requested, n_pms);
  const std::size_t auto_shards = n_pms / kAutoPmsPerShard;
  return std::clamp<std::size_t>(auto_shards, 1, kMaxAutoShards);
}

ShardedAdmitIndex::ShardedAdmitIndex(std::size_t n_pms, std::size_t shards,
                                     double initial_key) {
  reset(n_pms, shards, initial_key);
}

void ShardedAdmitIndex::reset(std::size_t n_pms, std::size_t shards,
                              double initial_key) {
  const std::size_t s = resolve_shard_count(n_pms, shards);
  n_pms_ = n_pms;
  offsets_.clear();
  trees_.clear();
  offsets_.reserve(s);
  trees_.reserve(s);
  // Contiguous ranges whose sizes differ by at most one: the first
  // (n_pms % s) shards take the extra PM.
  const std::size_t base = n_pms / s;
  const std::size_t extra = n_pms % s;
  std::size_t offset = 0;
  for (std::size_t i = 0; i < s; ++i) {
    const std::size_t size = base + (i < extra ? 1 : 0);
    offsets_.push_back(offset);
    trees_.emplace_back(std::vector<double>(size, initial_key));
    offset += size;
  }
  BURSTQ_ASSERT(offset == n_pms, "shard ranges must tile the PM fleet");
}

std::size_t ShardedAdmitIndex::shard_of(std::size_t pm) const {
  BURSTQ_REQUIRE(pm < n_pms_, "PM index out of range");
  const auto it = std::upper_bound(offsets_.begin(), offsets_.end(), pm);
  return static_cast<std::size_t>(it - offsets_.begin()) - 1;
}

std::size_t ShardedAdmitIndex::shard_begin(std::size_t shard) const {
  BURSTQ_REQUIRE(shard < offsets_.size(), "shard index out of range");
  return offsets_[shard];
}

std::size_t ShardedAdmitIndex::shard_end(std::size_t shard) const {
  BURSTQ_REQUIRE(shard < offsets_.size(), "shard index out of range");
  return offsets_[shard] + trees_[shard].size();
}

void ShardedAdmitIndex::set_key(std::size_t pm, double key) {
  const std::size_t s = shard_of(pm);
  trees_[s].update(pm - offsets_[s], key);
}

double ShardedAdmitIndex::key(std::size_t pm) const {
  const std::size_t s = shard_of(pm);
  return trees_[s].key(pm - offsets_[s]);
}

std::size_t ShardedAdmitIndex::find_in_shard(std::size_t shard, double need,
                                             std::size_t from) const {
  BURSTQ_REQUIRE(shard < trees_.size(), "shard index out of range");
  const std::size_t offset = offsets_[shard];
  const std::size_t local_from = from > offset ? from - offset : 0;
  if (local_from >= trees_[shard].size()) return npos;
  const std::size_t j = trees_[shard].find_first_ge(need, local_from);
  return j == PmSlackTree::npos ? npos : offset + j;
}

ShardedAdmitIndex::RouteOutcome ShardedAdmitIndex::route(
    double need, std::size_t home,
    const std::function<bool(std::size_t)>& exact, std::size_t budget) const {
  BURSTQ_REQUIRE(home < shard_count(), "home shard out of range");
  RouteOutcome out;
  const std::size_t s_count = shard_count();
  for (std::size_t i = 0; i <= s_count; ++i) {
    // Visit order: home, then 0..S-1 in fixed order skipping home.
    const std::size_t s = i == 0 ? home : i - 1;
    if (i > 0 && s == home) continue;
    std::size_t from = shard_begin(s);
    for (;;) {
      ++out.tree_descents;
      const std::size_t j = find_in_shard(s, need, from);
      if (j == npos) break;
      if (budget != 0 && out.exact_checks == budget) {
        out.budget_exhausted = true;
        return out;
      }
      ++out.exact_checks;
      if (exact(j)) {
        out.pm = j;
        return out;
      }
      from = j + 1;  // conservative-filter false positive: keep scanning
    }
  }
  return out;
}

PlacementResult sharded_place_reservation(const ProblemInstance& inst,
                                          std::span<const std::size_t> order,
                                          const MapCalTable& table,
                                          const ShardedOptions& options,
                                          ShardedStats* stats) {
  BURSTQ_SPAN("placement.sharded");
  detail::validate_driver_inputs(inst, order);
  options.validate();

  const std::size_t m = inst.n_pms();
  const std::size_t n_ranks = order.size();
  const std::size_t shards = resolve_shard_count(m, options.shards);
  const std::size_t requested_threads =
      options.threads == 0 ? default_thread_count() : options.threads;
  const std::size_t workers = std::min(requested_threads, shards);

  // Per-PM aggregates mirroring an instance-bound Placement's caches.
  // During phase 1 each entry is written only by the shard owning the PM,
  // so the shard tasks share no mutable state.
  std::vector<std::size_t> vm_count(m, 0);
  std::vector<double> rb_sum(m, 0.0);
  std::vector<double> re_max(m, 0.0);

  ShardedAdmitIndex index(m, shards);
  for (std::size_t j = 0; j < m; ++j)
    index.set_key(j, conservative_admit_key(inst.pms[j].capacity, 0, 0.0, 0.0,
                                            table));

  // Exact Eq. (17) over the raw aggregates; bit-identical to
  // fits_with_reservation on a bound placement with the same load.
  const auto exact_fits = [&](std::size_t vi, std::size_t j) {
    return eq17_admits(inst.pms[j].capacity, vm_count[j], rb_sum[j],
                       re_max[j], inst.vms[vi], table);
  };
  const auto commit = [&](std::size_t vi, std::size_t j) {
    const VmSpec& v = inst.vms[vi];
    vm_count[j] += 1;
    rb_sum[j] += v.rb;
    re_max[j] = std::max(re_max[j], v.re);
    index.set_key(j, conservative_admit_key(inst.pms[j].capacity, vm_count[j],
                                            rb_sum[j], re_max[j], table));
  };

  // chosen[r] = global PM of the VM at rank r, or kUnplaced.  Phase 1
  // writes rank r only from shard r % shards; phase 2 is sequential.
  std::vector<std::size_t> chosen(n_ranks, kUnplaced);

  struct ShardCounters {
    std::size_t descents{0};
    std::size_t checks{0};
    std::size_t placed{0};
    std::size_t budget_exhausted{0};
  };
  std::vector<ShardCounters> counters(shards);
  std::vector<std::vector<std::size_t>> spill_ranks(shards);
  std::atomic<std::size_t> steals{0};

  // Phase 1: each shard first-fits its home VMs over its own PMs.
  parallel_for_workers(
      shards,
      [&](std::size_t s, std::size_t w) {
        if (w != s % workers) steals.fetch_add(1, std::memory_order_relaxed);
        ShardCounters& c = counters[s];
        for (std::size_t r = s; r < n_ranks; r += shards) {
          const std::size_t vi = order[r];
          const double need = inst.vms[vi].rb;
          std::size_t from = index.shard_begin(s);
          std::size_t decision_checks = 0;
          bool placed = false;
          for (;;) {
            ++c.descents;
            const std::size_t j = index.find_in_shard(s, need, from);
            if (j == ShardedAdmitIndex::npos) break;
            if (options.decision_budget != 0 &&
                decision_checks == options.decision_budget) {
              ++c.budget_exhausted;
              break;
            }
            ++decision_checks;
            ++c.checks;
            if (exact_fits(vi, j)) {
              commit(vi, j);
              chosen[r] = j;
              placed = true;
              ++c.placed;
              break;
            }
            from = j + 1;
          }
          if (!placed) spill_ranks[s].push_back(r);
        }
      },
      workers);

  ShardedStats st;
  st.shards = shards;
  st.threads = workers;
  st.steals = steals.load();
  for (const ShardCounters& c : counters) {
    st.tree_descents += c.descents;
    st.exact_checks += c.checks;
    st.local_placed += c.placed;
    st.budget_exhausted += c.budget_exhausted;
  }

  // Phase 2: reconcile spills sequentially in global rank order against
  // shards in fixed order 0..S-1.  The reservation predicate is monotone
  // in PM load, so a single pass is complete: load only grows during
  // reconciliation, and a VM rejected everywhere now stays infeasible.
  std::vector<std::size_t> spills;
  for (const auto& ranks : spill_ranks)
    spills.insert(spills.end(), ranks.begin(), ranks.end());
  std::sort(spills.begin(), spills.end());
  st.spills = spills.size();
  st.reconcile_passes = spills.empty() ? 0 : 1;

  for (std::size_t r : spills) {
    const std::size_t vi = order[r];
    const double need = inst.vms[vi].rb;
    std::size_t decision_checks = 0;
    bool placed = false;
    bool exhausted = false;
    for (std::size_t s = 0; s < shards && !placed && !exhausted; ++s) {
      std::size_t from = index.shard_begin(s);
      for (;;) {
        ++st.tree_descents;
        const std::size_t j = index.find_in_shard(s, need, from);
        if (j == ShardedAdmitIndex::npos) break;
        if (options.decision_budget != 0 &&
            decision_checks == options.decision_budget) {
          ++st.budget_exhausted;
          exhausted = true;
          break;
        }
        ++decision_checks;
        ++st.exact_checks;
        if (exact_fits(vi, j)) {
          commit(vi, j);
          chosen[r] = j;
          placed = true;
          ++st.reconcile_placed;
          break;
        }
        from = j + 1;
      }
    }
  }

  // Phase 3: materialize in global rank order so per-PM float aggregates
  // accumulate deterministically (and, at S = 1, in exactly the order the
  // incremental engine produced them).
  PlacementResult result{Placement(inst), {}};
  for (std::size_t r = 0; r < n_ranks; ++r) {
    const VmId vm{order[r]};
    if (chosen[r] != kUnplaced)
      result.placement.assign(vm, PmId{chosen[r]});
    else
      result.unplaced.push_back(vm);
  }

  detail::record_driver_counts(result, st.exact_checks);
  BURSTQ_COUNT("placement.tree_descents", st.tree_descents);
  BURSTQ_COUNT("placement.shard.tasks", st.shards);
  BURSTQ_COUNT("placement.shard.steals", st.steals);
  BURSTQ_COUNT("placement.shard.spills", st.spills);
  BURSTQ_COUNT("placement.shard.local_placed", st.local_placed);
  BURSTQ_COUNT("placement.shard.reconcile_placed", st.reconcile_placed);
  BURSTQ_COUNT("placement.shard.reconcile_passes", st.reconcile_passes);
  BURSTQ_COUNT("placement.shard.budget_exhausted", st.budget_exhausted);
  if constexpr (obs::kEnabled) {
    for (std::size_t s = 0; s < shards; ++s) {
      BURSTQ_HIST("placement.shard.fill", counters[s].placed);
      BURSTQ_EVENT(obs::EventLevel::kDecisions, "shard.fill", {"shard", s},
                   {"pms", index.shard_end(s) - index.shard_begin(s)},
                   {"placed", counters[s].placed},
                   {"spills", spill_ranks[s].size()});
    }
  }

  if (stats != nullptr) *stats = st;
  return result;
}

}  // namespace burstq
