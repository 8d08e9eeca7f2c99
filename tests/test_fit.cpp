// Tests for workload characterization (fit/estimator) and trace I/O.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "fit/estimator.h"
#include "fit/trace_io.h"

namespace burstq {
namespace {

TEST(TwoMeans, SeparatesBimodalData) {
  std::vector<double> values;
  for (int i = 0; i < 50; ++i) values.push_back(10.0 + 0.1 * (i % 5));
  for (int i = 0; i < 10; ++i) values.push_back(20.0 + 0.1 * (i % 3));
  const double t = two_means_threshold(values);
  EXPECT_GT(t, 10.5);
  EXPECT_LT(t, 20.0);
}

TEST(TwoMeans, ConstantInputReturnsConstant) {
  const std::vector<double> values(10, 7.0);
  EXPECT_DOUBLE_EQ(two_means_threshold(values), 7.0);
}

TEST(TwoMeans, EmptyThrows) {
  EXPECT_THROW(two_means_threshold({}), InvalidArgument);
}

TEST(FitOnOff, RecoversParametersFromSyntheticTrace) {
  const VmSpec truth{OnOffParams{0.02, 0.1}, 10.0, 8.0};
  ProblemInstance inst;
  inst.vms = {truth};
  inst.pms = {PmSpec{100.0}};
  const auto trace = record_demand_trace(inst, 200000, Rng(1));

  std::vector<double> series(trace.size());
  for (std::size_t t = 0; t < trace.size(); ++t) series[t] = trace[t][0];
  const FittedVm fit = fit_onoff_from_trace(series);

  EXPECT_TRUE(fit.bursty);
  EXPECT_NEAR(fit.spec.rb, truth.rb, 0.01);
  EXPECT_NEAR(fit.spec.re, truth.re, 0.01);
  EXPECT_NEAR(fit.spec.onoff.p_on, truth.onoff.p_on, 0.004);
  EXPECT_NEAR(fit.spec.onoff.p_off, truth.onoff.p_off, 0.015);
}

TEST(FitOnOff, FlatTraceReportedNonBursty) {
  const std::vector<double> flat(100, 5.0);
  const FittedVm fit = fit_onoff_from_trace(flat);
  EXPECT_FALSE(fit.bursty);
  EXPECT_DOUBLE_EQ(fit.spec.rb, 5.0);
  EXPECT_DOUBLE_EQ(fit.spec.re, 0.0);
  EXPECT_NO_THROW(fit.spec.validate());  // defaults remain a valid model
}

TEST(FitOnOff, TooShortThrows) {
  EXPECT_THROW(fit_onoff_from_trace(std::vector<double>{1.0}),
               InvalidArgument);
}

TEST(FitOnOff, NoisyTraceStillRecoversLevels) {
  // Add +-5% uniform noise on top of the rectangular demand.
  const VmSpec truth{OnOffParams{0.05, 0.15}, 10.0, 10.0};
  Rng rng(2);
  OnOffChain chain(truth.onoff);
  chain.reset_stationary(rng);
  std::vector<double> series;
  for (int t = 0; t < 100000; ++t) {
    const double base = truth.demand(chain.state());
    series.push_back(base * rng.uniform(0.95, 1.05));
    chain.step(rng);
  }
  const FittedVm fit = fit_onoff_from_trace(series);
  EXPECT_NEAR(fit.spec.rb, truth.rb, 0.2);
  EXPECT_NEAR(fit.spec.re, truth.re, 0.4);
  EXPECT_NEAR(fit.spec.onoff.p_on, 0.05, 0.01);
  EXPECT_NEAR(fit.spec.onoff.p_off, 0.15, 0.03);
}

TEST(InstanceFromTraces, ReassemblesWholeFleet) {
  ProblemInstance truth;
  truth.vms = {VmSpec{OnOffParams{0.03, 0.12}, 8.0, 6.0},
               VmSpec{OnOffParams{0.05, 0.2}, 12.0, 10.0}};
  truth.pms = {PmSpec{100.0}};
  const auto trace = record_demand_trace(truth, 100000, Rng(3));

  const auto rebuilt =
      instance_from_traces(trace, {PmSpec{90.0}, PmSpec{95.0}});
  ASSERT_EQ(rebuilt.n_vms(), 2u);
  ASSERT_EQ(rebuilt.n_pms(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(rebuilt.vms[i].rb, truth.vms[i].rb, 0.1);
    EXPECT_NEAR(rebuilt.vms[i].re, truth.vms[i].re, 0.1);
    EXPECT_NEAR(rebuilt.vms[i].onoff.p_on, truth.vms[i].onoff.p_on, 0.01);
  }
}

TEST(InstanceFromTraces, ValidatesInput) {
  EXPECT_THROW(instance_from_traces({}, {PmSpec{10}}), InvalidArgument);
  DemandTrace ragged{{1.0, 2.0}, {1.0}};
  EXPECT_THROW(instance_from_traces(ragged, {PmSpec{10}}), InvalidArgument);
  DemandTrace ok{{1.0}, {2.0}};
  EXPECT_THROW(instance_from_traces(ok, {}), InvalidArgument);
}

/// A temp file name unique to the running test: ctest -j runs this
/// fixture's tests concurrently, so a shared fixed name would collide.
std::string per_test_path(const std::string& stem, const std::string& ext) {
  return ::testing::TempDir() + "/" + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ext;
}

class TraceIoTest : public ::testing::Test {
 protected:
  std::string path_ = per_test_path("burstq_trace_test", ".csv");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(TraceIoTest, RoundTrip) {
  DemandTrace trace{{1.5, 2.0, 3.25}, {4.0, 5.5, 6.0}, {7.0, 8.0, 9.125}};
  write_demand_trace_csv(path_, trace);
  const auto back = read_demand_trace_csv(path_);
  ASSERT_EQ(back.size(), trace.size());
  for (std::size_t t = 0; t < trace.size(); ++t) {
    ASSERT_EQ(back[t].size(), trace[t].size());
    for (std::size_t i = 0; i < trace[t].size(); ++i)
      EXPECT_DOUBLE_EQ(back[t][i], trace[t][i]);
  }
}

TEST_F(TraceIoTest, RoundTripThroughEstimator) {
  ProblemInstance truth;
  truth.vms = {VmSpec{OnOffParams{0.05, 0.2}, 10.0, 10.0}};
  truth.pms = {PmSpec{100.0}};
  const auto trace = record_demand_trace(truth, 50000, Rng(4));
  write_demand_trace_csv(path_, trace);
  const auto rebuilt =
      instance_from_traces(read_demand_trace_csv(path_), {PmSpec{90.0}});
  EXPECT_NEAR(rebuilt.vms[0].rb, 10.0, 0.1);
  EXPECT_NEAR(rebuilt.vms[0].re, 10.0, 0.1);
}

TEST_F(TraceIoTest, RejectsMalformedCsv) {
  {
    std::ofstream out(path_);
    out << "slot,vm0\n0,not_a_number\n";
  }
  EXPECT_THROW(read_demand_trace_csv(path_), InvalidArgument);
}

TEST_F(TraceIoTest, RejectsEmptyFile) {
  {
    std::ofstream out(path_);
  }
  EXPECT_THROW(read_demand_trace_csv(path_), InvalidArgument);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_demand_trace_csv("/nonexistent/trace.csv"),
               InvalidArgument);
}

TEST(TraceIo, RefusesEmptyTrace) {
  EXPECT_THROW(write_demand_trace_csv("/tmp/x.csv", {}), InvalidArgument);
}

}  // namespace
}  // namespace burstq
