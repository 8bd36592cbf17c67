// Tests for src/sim: runner, ratio bracketing, sweeps, tables, CSV.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "sim/csv.h"
#include "sim/ratio.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "sim/table.h"
#include "util/check.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

Instance small_instance() {
  RandomBatchedParams params;
  params.seed = 1;
  params.horizon = 64;
  params.num_colors = 6;
  return make_random_batched(params);
}

TEST(Runner, RunsRegisteredAlgorithms) {
  const Instance inst = small_instance();
  for (const AlgorithmInfo& info : algorithm_registry()) {
    const StreamRunRecord record = run_algorithm(inst, info.name, 8);
    EXPECT_EQ(record.algorithm, info.name);
    EXPECT_GE(record.cost.total(), 0);
    EXPECT_GE(record.seconds, 0.0);
  }
}

TEST(Runner, UnknownAlgorithmThrows) {
  const Instance inst = small_instance();
  EXPECT_THROW((void)run_algorithm(inst, "nope", 8), InputError);
  EngineOptions options;
  EXPECT_THROW((void)make_stream_policy("nope", options), InputError);
}

TEST(Runner, RegistryHasAllAlgorithms) {
  EXPECT_EQ(algorithm_registry().size(), 8u);
  for (const char* name : {"dlru", "edf", "dlru-edf", "adaptive", "seq-edf",
                           "ds-seq-edf", "distribute", "varbatch"}) {
    EXPECT_EQ(find_algorithm(name).name, name);
    EXPECT_FALSE(find_algorithm(name).description.empty());
  }
}

TEST(Ratio, BracketIsOrdered) {
  const Instance inst = small_instance();
  const RatioReport report = measure_ratio(inst, "dlru-edf", 8, 1);
  EXPECT_LE(report.lower_bound, report.heuristic_ub);
  EXPECT_GE(report.ratio_vs_lb, report.ratio_vs_ub);
  EXPECT_GT(report.lower_bound, 0);
}

TEST(Ratio, KnownOffCostOverridesHeuristic) {
  const Instance inst = small_instance();
  const RatioReport a = measure_ratio(inst, "dlru-edf", 8, 1);
  const RatioReport b =
      measure_ratio(inst, "dlru-edf", 8, 1, a.heuristic_ub * 2);
  EXPECT_EQ(b.heuristic_ub, a.heuristic_ub * 2);
  EXPECT_LT(b.ratio_vs_ub, a.ratio_vs_ub);
}

TEST(Sweep, PreservesCellOrder) {
  std::vector<std::function<std::vector<std::string>()>> cells;
  for (int i = 0; i < 32; ++i) {
    cells.emplace_back([i] {
      return std::vector<std::string>{std::to_string(i)};
    });
  }
  const auto rows = run_sweep(cells);
  ASSERT_EQ(rows.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(rows[static_cast<std::size_t>(i)][0], std::to_string(i));
  }
}

TEST(Table, PrintsAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "23456"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  // All data lines equal widths: header/sep/rows each end aligned.
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(text.find(" \n"), std::string::npos) << "no trailing padding";
}

TEST(Table, RejectsMismatchedRow) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), InputError);
  EXPECT_THROW(TextTable({}), InputError);
}

TEST(Table, Formatters) {
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
  EXPECT_EQ(fmt_ratio(3.5), "x3.50");
  EXPECT_EQ(fmt_double(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(fmt_ratio(std::numeric_limits<double>::infinity()), "x inf");
}

TEST(Csv, EscapesSpecialCharacters) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"plain", "with,comma"});
  csv.add_row({"with\"quote", "with\nnewline"});
  std::ostringstream out;
  csv.write(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(text.find("\"with\"\"quote\""), std::string::npos);
}

TEST(Csv, RejectsBadRows) {
  CsvWriter csv({"a"});
  EXPECT_THROW(csv.add_row({"x", "y"}), InputError);
  EXPECT_THROW(CsvWriter({}), InputError);
}

TEST(Csv, WritesFile) {
  CsvWriter csv({"x"});
  csv.add_row({"1"});
  const std::string path = ::testing::TempDir() + "/rrs_csv_test.csv";
  csv.write_file(path);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "x");
  EXPECT_THROW(csv.write_file("/nonexistent/dir/x.csv"), InputError);
}

}  // namespace
}  // namespace rrs
