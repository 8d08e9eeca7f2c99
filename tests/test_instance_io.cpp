// Tests for problem-instance CSV persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/error.h"
#include "common/rng.h"
#include "fit/instance_io.h"

namespace burstq {
namespace {

/// A temp file name unique to the running test: ctest -j runs this
/// fixture's tests concurrently, so a shared fixed name would collide.
std::string per_test_path(const std::string& stem, const std::string& ext) {
  return ::testing::TempDir() + "/" + stem + "_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ext;
}

class InstanceIoTest : public ::testing::Test {
 protected:
  std::string vm_path_ = per_test_path("burstq_vms_test", ".csv");
  std::string pm_path_ = per_test_path("burstq_pms_test", ".csv");
  void TearDown() override {
    std::remove(vm_path_.c_str());
    std::remove(pm_path_.c_str());
  }
};

TEST_F(InstanceIoTest, VmRoundTrip) {
  Rng rng(1);
  std::vector<VmSpec> vms;
  for (int i = 0; i < 50; ++i)
    vms.push_back(VmSpec{OnOffParams{rng.uniform(0.001, 0.5),
                                     rng.uniform(0.001, 0.5)},
                         rng.uniform(0, 30), rng.uniform(0, 30)});
  write_vm_specs_csv(vm_path_, vms);
  const auto back = read_vm_specs_csv(vm_path_);
  ASSERT_EQ(back.size(), vms.size());
  for (std::size_t i = 0; i < vms.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i].onoff.p_on, vms[i].onoff.p_on);
    EXPECT_DOUBLE_EQ(back[i].onoff.p_off, vms[i].onoff.p_off);
    EXPECT_DOUBLE_EQ(back[i].rb, vms[i].rb);
    EXPECT_DOUBLE_EQ(back[i].re, vms[i].re);
  }
}

TEST_F(InstanceIoTest, PmRoundTrip) {
  std::vector<PmSpec> pms{PmSpec{80.5}, PmSpec{100.0}, PmSpec{96.125}};
  write_pm_specs_csv(pm_path_, pms);
  const auto back = read_pm_specs_csv(pm_path_);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j)
    EXPECT_DOUBLE_EQ(back[j].capacity, pms[j].capacity);
}

TEST_F(InstanceIoTest, RejectsInvalidSpecValues) {
  {
    std::ofstream out(vm_path_);
    out << "p_on,p_off,rb,re\n0.0,0.1,5,5\n";  // p_on = 0 invalid
  }
  EXPECT_THROW(read_vm_specs_csv(vm_path_), InvalidArgument);
}

TEST_F(InstanceIoTest, RejectsWrongArity) {
  {
    std::ofstream out(vm_path_);
    out << "p_on,p_off,rb,re\n0.01,0.09,5\n";
  }
  EXPECT_THROW(read_vm_specs_csv(vm_path_), InvalidArgument);
}

TEST_F(InstanceIoTest, RejectsGarbageNumbers) {
  {
    std::ofstream out(pm_path_);
    out << "capacity\nbanana\n";
  }
  EXPECT_THROW(read_pm_specs_csv(pm_path_), InvalidArgument);
}

TEST_F(InstanceIoTest, RejectsHeaderOnly) {
  {
    std::ofstream out(pm_path_);
    out << "capacity\n";
  }
  EXPECT_THROW(read_pm_specs_csv(pm_path_), InvalidArgument);
}

TEST(InstanceIo, MissingFileThrows) {
  EXPECT_THROW(read_vm_specs_csv("/nonexistent/vms.csv"), InvalidArgument);
}

TEST(InstanceIo, RefusesEmptyWrite) {
  EXPECT_THROW(write_vm_specs_csv("/tmp/x.csv", {}), InvalidArgument);
  EXPECT_THROW(write_pm_specs_csv("/tmp/x.csv", {}), InvalidArgument);
}

}  // namespace
}  // namespace burstq
