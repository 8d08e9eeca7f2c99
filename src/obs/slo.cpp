#include "obs/slo.h"

#include <algorithm>
#include <cstdio>

#include "common/error.h"
#include "obs/event_log.h"
#include "obs/obs.h"

namespace burstq::obs {

namespace {

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

void SloOptions::validate() const {
  BURSTQ_REQUIRE(rho > 0.0 && rho <= 1.0,
                 "SloOptions: rho must be in (0, 1]");
  BURSTQ_REQUIRE(fast_window > 0, "SloOptions: fast_window must be > 0");
  BURSTQ_REQUIRE(fast_window <= slow_window,
                 "SloOptions: fast_window must not exceed slow_window");
  BURSTQ_REQUIRE(breach_burn > 0.0, "SloOptions: breach_burn must be > 0");
}

bool SloReport::ok() const {
  if (slow.cvr > rho || cumulative.cvr > rho) return false;
  return std::none_of(pms.begin(), pms.end(),
                      [](const SloPmStats& p) { return p.above_rho; });
}

std::string SloReport::verdict() const { return ok() ? "PASS" : "FAIL"; }

std::string SloReport::render() const {
  std::string out;
  out += "slo.rho=" + fmt(rho) + "\n";
  out += "slo.slots=" + std::to_string(slots) + "\n";
  const auto window = [&out](const char* name, const SloWindowStats& w) {
    const std::string p = std::string("slo.") + name;
    out += p + ".observed=" + std::to_string(w.observed) + "\n";
    out += p + ".violations=" + std::to_string(w.violations) + "\n";
    out += p + ".cvr=" + fmt(w.cvr) + "\n";
    out += p + ".burn=" + fmt(w.burn) + "\n";
  };
  window("fast", fast);
  window("slow", slow);
  window("cumulative", cumulative);
  out += "slo.breaches=" + std::to_string(breaches) + "\n";
  out += "slo.breaching=" + std::to_string(breaching ? 1 : 0) + "\n";
  out += "slo.worst_pm_cvr=" + fmt(worst_pm_cvr) + "\n";
  for (const SloPmStats& p : pms) {
    if (!p.above_rho) continue;  // only exceptions get a per-PM line
    out += "slo.pm." + std::to_string(p.pm) + ".cvr=" + fmt(p.cvr) +
           " violations=" + std::to_string(p.violations) +
           " observed=" + std::to_string(p.observed) + "\n";
  }
  out += "slo.verdict=" + verdict() + "\n";
  return out;
}

SloTracker::SloTracker(std::size_t n_pms, SloOptions options)
    : opt_(options) {
  BURSTQ_REQUIRE(n_pms > 0, "SloTracker: n_pms must be > 0");
  opt_.validate();
  pms_.resize(n_pms);
  for (PerPm& p : pms_) p.ring.assign(opt_.fast_window, kUnobserved);
  cur_.assign(n_pms, kUnobserved);
  cluster_ring_.assign(opt_.slow_window, {0, 0});
}

void SloTracker::record(PmId pm, bool violated) {
  std::lock_guard<std::mutex> lock(mu_);
  BURSTQ_REQUIRE(pm.value < cur_.size(), "SloTracker: PM index out of range");
  cur_[pm.value] = violated ? kViolated : kOk;
}

void SloTracker::record_slot(std::span<const std::size_t> active,
                             std::span<const std::size_t> violated) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::size_t j : active) {
    BURSTQ_REQUIRE(j < cur_.size(), "SloTracker: PM index out of range");
    cur_[j] = kOk;
  }
  for (const std::size_t j : violated) {
    BURSTQ_REQUIRE(j < cur_.size(), "SloTracker: PM index out of range");
    cur_[j] = kViolated;
  }
}

void SloTracker::end_slot() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t ring_pos = slots_ % opt_.fast_window;
  std::uint32_t slot_obs = 0;
  std::uint32_t slot_viol = 0;
  double worst = 0.0;
  for (std::size_t j = 0; j < cur_.size(); ++j) {
    PerPm& p = pms_[j];
    // Retire the state leaving this PM's fast-window ring.
    const std::uint8_t old = p.ring[ring_pos];
    if (old != kUnobserved) {
      --p.ring_observed;
      if (old == kViolated) --p.ring_violated;
    }
    const std::uint8_t now = cur_[j];
    p.ring[ring_pos] = now;
    if (now != kUnobserved) {
      ++p.ring_observed;
      ++p.observed;
      ++slot_obs;
      if (now == kViolated) {
        ++p.ring_violated;
        ++p.violated;
        ++slot_viol;
      }
    }
    cur_[j] = kUnobserved;
    worst = std::max(worst, ratio(p.violated, p.observed));
  }

  // Cluster rings: the fast window is the most recent suffix of the slow
  // ring, so retire the entry leaving each window before inserting.
  const std::size_t slow_pos = slots_ % opt_.slow_window;
  const auto leaving_slow = cluster_ring_[slow_pos];
  slow_obs_ -= leaving_slow.first;
  slow_viol_ -= leaving_slow.second;
  if (slots_ >= opt_.fast_window) {
    const std::size_t fast_leave =
        (slots_ - opt_.fast_window) % opt_.slow_window;
    fast_obs_ -= cluster_ring_[fast_leave].first;
    fast_viol_ -= cluster_ring_[fast_leave].second;
  }
  cluster_ring_[slow_pos] = {slot_obs, slot_viol};
  fast_obs_ += slot_obs;
  fast_viol_ += slot_viol;
  slow_obs_ += slot_obs;
  slow_viol_ += slot_viol;
  cum_obs_ += slot_obs;
  cum_viol_ += slot_viol;
  ++slots_;

  const double fast_cvr = ratio(fast_viol_, fast_obs_);
  const double slow_cvr = ratio(slow_viol_, slow_obs_);
  const double fast_burn = burn(fast_cvr);
  const double slow_burn = burn(slow_cvr);

  BURSTQ_GAUGE("slo.cvr.fast", fast_cvr);
  BURSTQ_GAUGE("slo.cvr.slow", slow_cvr);
  BURSTQ_GAUGE("slo.cvr.cumulative", ratio(cum_viol_, cum_obs_));
  BURSTQ_GAUGE("slo.cvr.worst_pm", worst);
  BURSTQ_GAUGE("obs.slo.cvr_burn_fast", fast_burn);
  BURSTQ_GAUGE("obs.slo.cvr_burn_slow", slow_burn);

  if (!breaching_) {
    if (fast_burn > opt_.breach_burn && slow_burn > opt_.breach_burn) {
      breaching_ = true;
      ++breaches_;
      episodes_.push_back(
          {slots_ - 1, slots_ - 1, true, fast_burn, slow_burn});
      BURSTQ_COUNT("fault.slo.breaches", 1);
      BURSTQ_EVENT(EventLevel::kDecisions, "slo.breach",
                   {"slot", slots_ - 1}, {"fast_burn", fast_burn},
                   {"slow_burn", slow_burn}, {"rho", opt_.rho});
    }
  } else {
    // The episode list can be empty here after import_state (episodes
    // are not part of the durable schema); breach accounting still
    // works, we just cannot attribute this episode's window.
    if (!episodes_.empty() && episodes_.back().open) {
      SloEpisode& ep = episodes_.back();
      ep.end_slot = slots_ - 1;
      ep.peak_fast_burn = std::max(ep.peak_fast_burn, fast_burn);
      ep.peak_slow_burn = std::max(ep.peak_slow_burn, slow_burn);
    }
    if (fast_burn <= opt_.breach_burn) {
      breaching_ = false;
      if (!episodes_.empty() && episodes_.back().open)
        episodes_.back().open = false;
      BURSTQ_EVENT(EventLevel::kDecisions, "slo.recover",
                   {"slot", slots_ - 1}, {"fast_burn", fast_burn});
    }
  }
}

SloReport SloTracker::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  SloReport r;
  r.rho = opt_.rho;
  r.slots = slots_;
  const auto fill = [this](SloWindowStats& w, std::size_t obs,
                           std::size_t viol) {
    w.observed = obs;
    w.violations = viol;
    w.cvr = ratio(viol, obs);
    w.burn = burn(w.cvr);
  };
  fill(r.fast, fast_obs_, fast_viol_);
  fill(r.slow, slow_obs_, slow_viol_);
  fill(r.cumulative, cum_obs_, cum_viol_);
  r.breaches = breaches_;
  r.breaching = breaching_;
  for (std::size_t j = 0; j < pms_.size(); ++j) {
    const PerPm& p = pms_[j];
    if (p.observed == 0) continue;
    SloPmStats s;
    s.pm = j;
    s.observed = p.observed;
    s.violations = p.violated;
    s.cvr = ratio(p.violated, p.observed);
    s.fast_cvr = ratio(p.ring_violated, p.ring_observed);
    s.above_rho = s.cvr > opt_.rho;
    r.worst_pm_cvr = std::max(r.worst_pm_cvr, s.cvr);
    r.pms.push_back(s);
  }
  return r;
}

SloBurnRates SloTracker::burn_rates() const {
  std::lock_guard<std::mutex> lock(mu_);
  return SloBurnRates{burn(ratio(fast_viol_, fast_obs_)),
                      burn(ratio(slow_viol_, slow_obs_))};
}

std::size_t SloTracker::n_pms() const { return pms_.size(); }

std::size_t SloTracker::slots() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_;
}

std::vector<SloEpisode> SloTracker::episodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return episodes_;
}

SloTrackerState SloTracker::export_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  SloTrackerState st;
  st.pms.reserve(pms_.size());
  for (const PerPm& p : pms_) {
    SloTrackerState::PerPm out;
    out.observed = p.observed;
    out.violated = p.violated;
    out.ring = p.ring;
    out.ring_observed = p.ring_observed;
    out.ring_violated = p.ring_violated;
    st.pms.push_back(std::move(out));
  }
  st.cur = cur_;
  st.cluster_ring = cluster_ring_;
  st.slots = slots_;
  st.fast_obs = fast_obs_;
  st.fast_viol = fast_viol_;
  st.slow_obs = slow_obs_;
  st.slow_viol = slow_viol_;
  st.cum_obs = cum_obs_;
  st.cum_viol = cum_viol_;
  st.breaches = breaches_;
  st.breaching = breaching_;
  return st;
}

void SloTracker::import_state(const SloTrackerState& st) {
  std::lock_guard<std::mutex> lock(mu_);
  BURSTQ_REQUIRE(st.pms.size() == pms_.size(),
                 "SloTracker state PM count mismatch");
  for (std::size_t j = 0; j < pms_.size(); ++j) {
    PerPm& p = pms_[j];
    p.observed = st.pms[j].observed;
    p.violated = st.pms[j].violated;
    p.ring = st.pms[j].ring;
    p.ring_observed = st.pms[j].ring_observed;
    p.ring_violated = st.pms[j].ring_violated;
  }
  cur_ = st.cur;
  cluster_ring_ = st.cluster_ring;
  slots_ = st.slots;
  fast_obs_ = st.fast_obs;
  fast_viol_ = st.fast_viol;
  slow_obs_ = st.slow_obs;
  slow_viol_ = st.slow_viol;
  cum_obs_ = st.cum_obs;
  cum_viol_ = st.cum_viol;
  breaches_ = st.breaches;
  breaching_ = st.breaching;
  // Episodes are an in-memory diagnostic; the durable schema cannot
  // carry them, so a restored tracker starts with an empty list.
  episodes_.clear();
}

}  // namespace burstq::obs
