#include <gtest/gtest.h>

#include <sstream>

#include "core/report.hpp"

namespace arcadia {
namespace {

TEST(ReportTest, SeriesTablePrintsColumns) {
  TimeSeries a("lat:U1");
  for (int i = 0; i <= 10; ++i) {
    a.append(SimTime::seconds(i), static_cast<double>(i));
  }
  std::ostringstream out;
  core::print_series_table(out, {&a}, SimTime::seconds(5));
  std::string s = out.str();
  EXPECT_NE(s.find("time_s"), std::string::npos);
  EXPECT_NE(s.find("lat:U1"), std::string::npos);
}

}  // namespace
}  // namespace arcadia
