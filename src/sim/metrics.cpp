#include "sim/metrics.h"

#include <algorithm>

#include "common/error.h"

namespace burstq {

CvrTracker::CvrTracker(std::size_t n_pms, std::size_t window)
    : total_(n_pms), window_size_(window) {
  BURSTQ_REQUIRE(n_pms > 0, "CvrTracker needs at least one PM");
  BURSTQ_REQUIRE(window > 0, "CVR window must be positive");
  windows_.assign(n_pms * window, 0);
}

void CvrTracker::record(PmId pm, bool violated) {
  BURSTQ_REQUIRE(pm.value < total_.size(), "PM index out of range");
  PerPm& s = total_[pm.value];
  std::uint8_t* const r = ring(pm.value);
  ++s.observed;
  if (violated) {
    ++s.violated;
    ++s.window_violations;
  }
  if (s.filled < window_size_) {
    std::size_t tail = s.head + s.filled;
    if (tail >= window_size_) tail -= window_size_;
    r[tail] = violated ? 1 : 0;
    ++s.filled;
    return;
  }
  // Full window: the oldest outcome leaves as the new one takes its place.
  if (r[s.head] != 0) --s.window_violations;
  r[s.head] = violated ? 1 : 0;
  if (++s.head == window_size_) s.head = 0;
}

double CvrTracker::cvr(PmId pm) const {
  BURSTQ_REQUIRE(pm.value < total_.size(), "PM index out of range");
  const PerPm& s = total_[pm.value];
  if (s.observed == 0) return 0.0;
  return static_cast<double>(s.violated) / static_cast<double>(s.observed);
}

double CvrTracker::windowed_cvr(PmId pm) const {
  BURSTQ_REQUIRE(pm.value < total_.size(), "PM index out of range");
  const PerPm& s = total_[pm.value];
  if (s.filled == 0) return 0.0;
  return static_cast<double>(s.window_violations) /
         static_cast<double>(s.filled);
}

void CvrTracker::reset_window(PmId pm) {
  BURSTQ_REQUIRE(pm.value < total_.size(), "PM index out of range");
  PerPm& s = total_[pm.value];
  s.head = 0;
  s.filled = 0;
  s.window_violations = 0;
}

CvrTrackerState CvrTracker::export_state() const {
  CvrTrackerState st;
  st.pms.resize(total_.size());
  for (std::size_t j = 0; j < total_.size(); ++j) {
    const PerPm& s = total_[j];
    CvrTrackerState::PerPm& out = st.pms[j];
    out.observed = s.observed;
    out.violated = s.violated;
    out.window.resize(s.filled);
    const std::uint8_t* const r = ring(j);
    for (std::size_t k = 0; k < s.filled; ++k)
      out.window[k] = r[(s.head + k) % window_size_];
  }
  return st;
}

void CvrTracker::import_state(const CvrTrackerState& st) {
  BURSTQ_REQUIRE(st.pms.size() == total_.size(),
                 "CvrTracker state PM count mismatch");
  for (std::size_t j = 0; j < total_.size(); ++j) {
    const CvrTrackerState::PerPm& in = st.pms[j];
    BURSTQ_REQUIRE(in.window.size() <= window_size_,
                   "CvrTracker state window exceeds the tracker's window");
    PerPm& s = total_[j];
    s.observed = in.observed;
    s.violated = in.violated;
    s.head = 0;
    s.filled = in.window.size();
    s.window_violations = 0;
    std::uint8_t* const r = ring(j);
    for (std::size_t k = 0; k < in.window.size(); ++k) {
      r[k] = in.window[k] != 0 ? 1 : 0;
      s.window_violations += r[k];
    }
  }
}

std::size_t CvrTracker::observed_slots(PmId pm) const {
  BURSTQ_REQUIRE(pm.value < total_.size(), "PM index out of range");
  return total_[pm.value].observed;
}

std::size_t CvrTracker::violations(PmId pm) const {
  BURSTQ_REQUIRE(pm.value < total_.size(), "PM index out of range");
  return total_[pm.value].violated;
}

EpisodeStats violation_episodes(const std::vector<bool>& violated) {
  EpisodeStats s;
  std::size_t run = 0;
  for (bool v : violated) {
    if (v) {
      ++run;
      ++s.violated_slots;
      s.longest = std::max(s.longest, run);
    } else {
      if (run > 0) ++s.episodes;
      run = 0;
    }
  }
  if (run > 0) ++s.episodes;
  s.mean_length = s.episodes == 0
                      ? 0.0
                      : static_cast<double>(s.violated_slots) /
                            static_cast<double>(s.episodes);
  return s;
}

double CvrTracker::mean_cvr() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t j = 0; j < total_.size(); ++j) {
    if (total_[j].observed == 0) continue;
    sum += cvr(PmId{j});
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double CvrTracker::max_cvr() const {
  double m = 0.0;
  for (std::size_t j = 0; j < total_.size(); ++j)
    m = std::max(m, cvr(PmId{j}));
  return m;
}

}  // namespace burstq
