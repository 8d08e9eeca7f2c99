#include "queuing/mapcal.h"

#include <atomic>
#include <bit>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/error.h"
#include "obs/obs.h"

namespace burstq {

namespace {

[[maybe_unused]] std::string_view method_name(StationaryMethod method) {
  switch (method) {
    case StationaryMethod::kGaussian: return "gaussian";
    case StationaryMethod::kPower: return "power";
    case StationaryMethod::kClosedForm: return "closed";
  }
  return "unknown";
}

/// Cache key: exact value equality (double ==) — callers that re-solve
/// "the same" setting pass the very same values (rounded params, option
/// structs), and near-misses must not alias.
struct TableKey {
  std::size_t d{0};
  double p_on{0.0};
  double p_off{0.0};
  double rho{0.0};
  StationaryMethod method{StationaryMethod::kGaussian};

  friend bool operator==(const TableKey&, const TableKey&) = default;
};

/// Canonical bit pattern of a double for hashing.  operator== on TableKey
/// compares doubles with ==, under which -0.0 == +0.0 — but the two have
/// different bit patterns, so a raw bit_cast would hash equal keys (e.g.
/// rho = 0.0 vs rho = -0.0) into different buckets and the lookup would
/// miss, silently duplicating a cache entry.  Collapse the zeros before
/// casting.  NaN (the other ==/bits mismatch) cannot reach the cache:
/// params and rho are validated.
std::uint64_t canonical_double_bits(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v);
}

struct TableKeyHash {
  std::size_t operator()(const TableKey& k) const noexcept {
    auto mix = [](std::size_t seed, std::uint64_t v) {
      return seed ^ (std::hash<std::uint64_t>{}(v) + 0x9e3779b97f4a7c15ULL +
                     (seed << 6) + (seed >> 2));
    };
    std::size_t h = std::hash<std::size_t>{}(k.d);
    h = mix(h, canonical_double_bits(k.p_on));
    h = mix(h, canonical_double_bits(k.p_off));
    h = mix(h, canonical_double_bits(k.rho));
    h = mix(h, static_cast<std::uint64_t>(k.method));
    return h;
  }
};

std::atomic<bool>& solver_fault_flag() {
  static std::atomic<bool> enabled{false};
  return enabled;
}

[[noreturn]] void throw_solver_fault(const char* where) {
  BURSTQ_COUNT("fault.solver.faults", 1);
  throw SolverUnavailable(std::string(where) +
                          ": injected MapCal solver fault");
}

}  // namespace

void mapcal_set_solver_fault(bool enabled) {
  solver_fault_flag().store(enabled, std::memory_order_relaxed);
}

bool mapcal_solver_fault_enabled() {
  return solver_fault_flag().load(std::memory_order_relaxed);
}

MapCalResult map_cal(std::size_t k, const OnOffParams& params, double rho,
                     StationaryMethod method) {
  BURSTQ_SPAN("mapcal.solve");
  BURSTQ_REQUIRE(k >= 1, "map_cal requires at least one VM");
  BURSTQ_REQUIRE(rho >= 0.0 && rho < 1.0, "map_cal requires rho in [0, 1)");
  params.validate();

  if (mapcal_solver_fault_enabled()) throw_solver_fault("map_cal");

  BURSTQ_COUNT("mapcal.calls", 1);
  BURSTQ_HIST("mapcal.k", k);

  MapCalResult result;
  result.stationary = aggregate_stationary_distribution(k, params, method);

  // Eq. (15): smallest K with CDF(K) >= 1 - rho.  Searching from 0 also
  // covers K = k (no reduction) when rho is tighter than even pi_k allows.
  double cdf = 0.0;
  std::size_t chosen = k;
  for (std::size_t m = 0; m <= k; ++m) {
    cdf += result.stationary[m];
    if (cdf >= 1.0 - rho - kCdfTieEpsilon) {
      chosen = m;
      break;
    }
  }
  result.blocks = chosen;

  // Eq. (16): CVR = 1 - sum_{m<=K} pi_m (clamped against roundoff).
  double mass = 0.0;
  for (std::size_t m = 0; m <= chosen; ++m) mass += result.stationary[m];
  result.cvr_bound = mass >= 1.0 ? 0.0 : 1.0 - mass;

  BURSTQ_EVENT(obs::EventLevel::kDecisions, "mapcal", {"k", k},
               {"rho", rho}, {"blocks", result.blocks},
               {"cvr_bound", result.cvr_bound},
               {"method", method_name(method)});
  return result;
}

std::size_t map_cal_blocks(std::size_t k, const OnOffParams& params,
                           double rho, StationaryMethod method) {
  return map_cal(k, params, rho, method).blocks;
}

namespace {

// Process-wide memoized tables.  Values are type-erased so the free
// cache-introspection functions below need no access to MapCalTable::Data.
std::mutex& table_cache_mutex() {
  static std::mutex mu;
  return mu;
}

std::unordered_map<TableKey, std::shared_ptr<const void>, TableKeyHash>&
table_cache() {
  static std::unordered_map<TableKey, std::shared_ptr<const void>,
                            TableKeyHash>
      cache;
  return cache;
}

}  // namespace

std::shared_ptr<const MapCalTable::Data> MapCalTable::lookup_or_build(
    std::size_t max_vms_per_pm, const OnOffParams& params, double rho,
    StationaryMethod method) {
  const TableKey key{max_vms_per_pm, params.p_on, params.p_off, rho, method};
  {
    std::lock_guard lock(table_cache_mutex());
    const auto it = table_cache().find(key);
    if (it != table_cache().end()) {
      BURSTQ_COUNT("mapcal.table.cache_hits", 1);
      return std::static_pointer_cast<const Data>(it->second);
    }
  }

  // A cache miss needs real solves; during an injected solver outage the
  // miss path fails here, *before* any work, while hits above keep
  // serving (the ladder's first rung).
  if (mapcal_solver_fault_enabled()) throw_solver_fault("MapCalTable");

  // Miss: solve outside the lock (builds may be slow and should not
  // serialize unrelated settings).  A concurrent duplicate build is
  // harmless — first insert wins below.
  BURSTQ_SPAN("mapcal.table.build");
  BURSTQ_COUNT("mapcal.table.builds", 1);
  auto data = std::make_shared<Data>();
  data->params = params;
  data->rho = rho;
  data->method = method;
  data->blocks.resize(max_vms_per_pm + 1, 0);
  data->cvr_bounds.resize(max_vms_per_pm + 1, 0.0);
  // Serial on purpose: each solve emits its `mapcal` event and span
  // events, so the build runs them in k order on the calling thread for
  // the trace to be the same on every core count.  A thread fan-out saves
  // well under a millisecond at the default d = 16, once per setting.
  for (std::size_t k = 1; k <= max_vms_per_pm; ++k) {
    const MapCalResult r = map_cal(k, params, rho, method);
    data->blocks[k] = r.blocks;
    data->cvr_bounds[k] = r.cvr_bound;
  }

  std::lock_guard lock(table_cache_mutex());
  const auto [it, inserted] =
      table_cache().emplace(key, std::shared_ptr<const void>(data));
  return std::static_pointer_cast<const Data>(it->second);
}

MapCalTable::MapCalTable(std::size_t max_vms_per_pm,
                         const OnOffParams& params, double rho,
                         StationaryMethod method) {
  BURSTQ_REQUIRE(max_vms_per_pm >= 1,
                 "MapCalTable requires max_vms_per_pm >= 1");
  params.validate();
  BURSTQ_REQUIRE(rho >= 0.0 && rho < 1.0, "MapCalTable requires rho in [0,1)");
  data_ = lookup_or_build(max_vms_per_pm, params, rho, method);
}

std::size_t MapCalTable::blocks(std::size_t k) const {
  BURSTQ_REQUIRE(k < data_->blocks.size(), "mapping(k) queried beyond table");
  return data_->blocks[k];
}

double MapCalTable::cvr_bound(std::size_t k) const {
  BURSTQ_REQUIRE(k < data_->cvr_bounds.size(),
                 "cvr_bound(k) queried beyond table");
  return data_->cvr_bounds[k];
}

std::size_t mapcal_table_cache_size() {
  std::lock_guard lock(table_cache_mutex());
  return table_cache().size();
}

void mapcal_table_cache_clear() {
  std::lock_guard lock(table_cache_mutex());
  table_cache().clear();
}

}  // namespace burstq
