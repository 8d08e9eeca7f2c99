// Tests for PlanetLab-format trace import/export, violation-episode
// statistics and the chi-square helper.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "fit/estimator.h"
#include "fit/planetlab.h"
#include "prob/binomial.h"
#include "prob/combinatorics.h"
#include "sim/metrics.h"

namespace burstq {
namespace {

/// A temp file name unique to the running test: ctest -j runs this
/// fixture's tests concurrently, so a shared fixed name would collide.
std::string per_test_path(const std::string& stem, const std::string& ext) {
  return ::testing::TempDir() + "/" + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ext;
}

class PlanetLabTest : public ::testing::Test {
 protected:
  std::string path_ = per_test_path("burstq_pl_test", ".txt");
  std::string path2_ = per_test_path("burstq_pl_test2", ".txt");
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(path2_.c_str());
  }
};

TEST_F(PlanetLabTest, ReadsSimpleFile) {
  {
    std::ofstream out(path_);
    out << "10\n50\n 100 \n\n0\n";
  }
  const auto d = read_planetlab_file(path_, 0.2);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 10.0);
  EXPECT_DOUBLE_EQ(d[2], 20.0);
  EXPECT_DOUBLE_EQ(d[3], 0.0);
}

TEST_F(PlanetLabTest, RoundTrip) {
  const std::vector<double> demand{2.0, 10.0, 20.0, 4.8};
  write_planetlab_file(path_, demand, 0.2);
  const auto back = read_planetlab_file(path_, 0.2);
  ASSERT_EQ(back.size(), demand.size());
  for (std::size_t i = 0; i < demand.size(); ++i)
    EXPECT_NEAR(back[i], demand[i], 0.2);  // integer percent rounding
}

TEST_F(PlanetLabTest, MultiFileTruncatesToShortest) {
  {
    std::ofstream a(path_);
    a << "10\n20\n30\n40\n";
    std::ofstream b(path2_);
    b << "50\n60\n70\n";
  }
  const auto trace = read_planetlab_traces({path_, path2_}, 0.1);
  ASSERT_EQ(trace.size(), 3u);  // truncated to the shorter file
  ASSERT_EQ(trace[0].size(), 2u);
  EXPECT_DOUBLE_EQ(trace[2][0], 3.0);
  EXPECT_DOUBLE_EQ(trace[2][1], 7.0);
}

TEST_F(PlanetLabTest, RejectsMalformed) {
  {
    std::ofstream out(path_);
    out << "10\nbanana\n";
  }
  EXPECT_THROW(read_planetlab_file(path_), InvalidArgument);
  {
    std::ofstream out(path2_);
    out << "-5\n";
  }
  EXPECT_THROW(read_planetlab_file(path2_), InvalidArgument);
}

TEST_F(PlanetLabTest, RejectsEmptyAndMissing) {
  {
    std::ofstream out(path_);
  }
  EXPECT_THROW(read_planetlab_file(path_), InvalidArgument);
  EXPECT_THROW(read_planetlab_file("/nonexistent/pl.txt"), InvalidArgument);
  EXPECT_THROW(read_planetlab_traces({}), InvalidArgument);
}

TEST_F(PlanetLabTest, ImportedTraceFeedsEstimator) {
  // Export a synthetic ON-OFF series through the PlanetLab format, then
  // fit it back: levels recover within rounding error.
  ProblemInstance truth;
  truth.vms = {VmSpec{OnOffParams{0.05, 0.2}, 10.0, 10.0}};
  truth.pms = {PmSpec{100.0}};
  const auto trace = record_demand_trace(truth, 50000, Rng(1));
  std::vector<double> series(trace.size());
  for (std::size_t t = 0; t < trace.size(); ++t) series[t] = trace[t][0];
  write_planetlab_file(path_, series, 0.2);
  const auto imported = read_planetlab_file(path_, 0.2);
  const auto fit = fit_onoff_from_trace(imported);
  EXPECT_NEAR(fit.spec.rb, 10.0, 0.3);
  EXPECT_NEAR(fit.spec.re, 10.0, 0.5);
  EXPECT_NEAR(fit.spec.onoff.p_on, 0.05, 0.01);
}

TEST(ViolationEpisodes, HandComputed) {
  // pattern: 1 1 0 1 0 0 1 1 1  -> episodes {2, 1, 3}
  const std::vector<bool> v{true, true, false, true, false,
                            false, true, true, true};
  const auto s = violation_episodes(v);
  EXPECT_EQ(s.episodes, 3u);
  EXPECT_EQ(s.violated_slots, 6u);
  EXPECT_EQ(s.longest, 3u);
  EXPECT_NEAR(s.mean_length, 2.0, 1e-12);
}

TEST(ViolationEpisodes, NoViolations) {
  const auto s = violation_episodes({false, false, false});
  EXPECT_EQ(s.episodes, 0u);
  EXPECT_EQ(s.longest, 0u);
  EXPECT_DOUBLE_EQ(s.mean_length, 0.0);
}

TEST(ViolationEpisodes, AllViolated) {
  const auto s = violation_episodes(std::vector<bool>(5, true));
  EXPECT_EQ(s.episodes, 1u);
  EXPECT_EQ(s.longest, 5u);
  EXPECT_NEAR(s.mean_length, 5.0, 1e-12);
}

TEST(ChiSquare, UniformDataFitsUniformModel) {
  Rng rng(2);
  std::vector<std::size_t> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.next_below(10)];
  const std::vector<double> probs(10, 0.1);
  const auto r = chi_square_gof(counts, probs);
  EXPECT_EQ(r.degrees_of_freedom, 9u);
  // 99.9th percentile of chi2(9) ~ 27.9.
  EXPECT_LT(r.statistic, 27.9);
}

TEST(ChiSquare, DetectsWrongModel) {
  Rng rng(3);
  std::vector<std::size_t> counts(4, 0);
  // Sample Binomial(3, 0.5), test against Binomial(3, 0.2).
  for (int i = 0; i < 50000; ++i) {
    std::size_t x = 0;
    for (int b = 0; b < 3; ++b)
      if (rng.bernoulli(0.5)) ++x;
    ++counts[x];
  }
  std::vector<double> wrong(4);
  for (std::int64_t x = 0; x <= 3; ++x)
    wrong[static_cast<std::size_t>(x)] = binomial_pmf(3, x, 0.2);
  const auto r = chi_square_gof(counts, wrong);
  EXPECT_GT(r.statistic, 1000.0);
}

TEST(ChiSquare, PoolsTinyBins) {
  // A distribution with a vanishing tail bin must be pooled, not divide
  // by ~zero.
  const std::vector<std::size_t> counts{500, 499, 1};
  const std::vector<double> probs{0.5, 0.4999999, 1e-7};
  const auto r = chi_square_gof(counts, probs, 1e-4);
  EXPECT_LE(r.degrees_of_freedom, 1u);
  EXPECT_LT(r.statistic, 50.0);
}

TEST(ChiSquare, ValidatesInput) {
  EXPECT_THROW(chi_square_gof({1}, {1.0}), InvalidArgument);
  EXPECT_THROW(chi_square_gof({1, 2}, {0.5}), InvalidArgument);
  EXPECT_THROW(chi_square_gof({0, 0}, {0.5, 0.5}), InvalidArgument);
  EXPECT_THROW(chi_square_gof({1, 2}, {0.9, 0.3}), InvalidArgument);
}

TEST(ChiSquare, AggregateChainOccupancyPassesGof) {
  // The empirical theta occupancy must pass a chi-square test against
  // the closed-form Binomial stationary law — a sharper statistical
  // check than per-bin tolerance.
  const OnOffParams p{0.05, 0.15};
  const std::size_t k = 6;
  Rng rng(4);
  std::vector<OnOffChain> chains(k, OnOffChain(p));
  for (auto& c : chains) c.reset_stationary(rng);
  std::vector<std::size_t> counts(k + 1, 0);
  const std::size_t slots = 200000;
  for (std::size_t t = 0; t < slots; ++t) {
    std::size_t on = 0;
    for (auto& c : chains) {
      if (c.on()) ++on;
      c.step(rng);
    }
    ++counts[on];
  }
  const auto probs =
      binomial_pmf_vector(static_cast<std::int64_t>(k),
                          p.stationary_on_probability());
  const auto r = chi_square_gof(counts, probs);
  // Correlated samples inflate the statistic; the effective sample size
  // is slots * (1-r)/(1+r) with r = 0.8, a factor ~9.  A generous bound
  // still rejects gross disagreement.
  EXPECT_LT(r.statistic,
            9.0 * 22.5);  // 22.5 ~ chi2_{0.999}(6)
}

}  // namespace
}  // namespace burstq
