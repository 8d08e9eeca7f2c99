#include "check/generator.h"

#include <algorithm>
#include <array>

#include "common/rng.h"

namespace burstq::check {

namespace {

/// Switch-probability palette hugging both ends of the valid (0, 1]
/// domain.  1.0 is the periodic/reducible corner; 1e-6 is the slow-mixing
/// floor the ISSUE's second reproducer lives at.
constexpr std::array<double, 9> kProbPalette = {
    1e-6, 1e-5, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0};

/// rho palette: exact 0 (reserve everything), near-0, typical budgets,
/// and near-1 (reserve almost nothing).
constexpr std::array<double, 7> kRhoPalette = {0.0,  1e-6, 1e-3, 0.01,
                                               0.1,  0.5,  0.99};

/// k palette: the degenerate k = 1, small, the paper's d = 16, and a
/// large-k stressor.
constexpr std::array<std::size_t, 5> kKPalette = {1, 2, 3, 16, 64};

double draw_probability(Rng& rng) {
  if (rng.bernoulli(0.6))
    return kProbPalette[rng.next_below(kProbPalette.size())];
  // Uniform interior of (0, 1]: 1 - U[0,1) excludes exact zero.
  return 1.0 - rng.next_double();
}

}  // namespace

std::uint64_t derive_case_seed(std::uint64_t master_seed,
                               std::uint64_t index) {
  // SplitMix64 finalizer over master_seed + index * odd-constant; the
  // same mixer Rng seeding uses, so streams are independent per case.
  std::uint64_t z = master_seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

FuzzCase generate_case(std::uint64_t case_seed, std::size_t index) {
  Rng rng(case_seed);
  FuzzCase c;
  c.seed = case_seed;
  c.index = index;

  c.params.p_on = draw_probability(rng);
  // Equal switch probabilities are their own bug family (p_on = p_off = 1
  // is periodic, p_on = p_off = eps is the slowest mixer per unit eps);
  // sample them far more often than chance would.
  c.params.p_off = rng.bernoulli(0.3) ? c.params.p_on
                                      : draw_probability(rng);

  c.rho = rng.bernoulli(0.6) ? kRhoPalette[rng.next_below(kRhoPalette.size())]
                             : rng.next_double();

  c.k = rng.bernoulli(0.5)
            ? kKPalette[rng.next_below(kKPalette.size())]
            : static_cast<std::size_t>(rng.uniform_int(1, 32));

  c.n_vms = static_cast<std::size_t>(rng.uniform_int(1, 120));
  c.n_pms = static_cast<std::size_t>(rng.uniform_int(1, 40));
  constexpr std::array<std::size_t, 3> kDs = {4, 8, 16};
  c.max_vms_per_pm = kDs[rng.next_below(kDs.size())];

  // Recovery scenario.  Drawn last: the draws above must stay bit-stable
  // for a given case seed so old discrepancy reports keep replaying.
  c.fault_slots = 30 + rng.next_below(31);       // 30..60
  c.fault_crash_slot = 1 + rng.next_below(10);   // early crash
  // Clamped inside the horizon after the draw, so the draw sequence (and
  // every in-horizon case) stays as it was.
  c.fault_recover_slot = std::min<std::size_t>(
      c.fault_crash_slot + 5 + rng.next_below(20), c.fault_slots - 1);
  c.fault_solver_slot = rng.next_below(c.fault_slots);
  c.fault_solver_len = 1 + rng.next_below(15);
  c.fault_p_mig_fail =
      rng.bernoulli(0.5) ? 0.0 : 0.05 * rng.next_double();
  c.fault_seed = rng.next_u64();
  return c;
}

}  // namespace burstq::check
