// Relations that need no oracle, over all eight registered algorithms:
//   * scaling: multiplying Delta and every drop cost by 3 multiplies the
//     cost by exactly 3;
//   * idle colors: appending 3 colors that never receive a job leaves the
//     cost unchanged.  C changes, so for the reductions this moves every
//     virtual color (l, j) = j * C + l.
// Inputs are random-batched and Poisson streams, seeds 1-3.  A Poisson
// stream states no batch bound, so the reductions read the materialized
// Poisson instance, and Distribute runs on batched input only.  Runs are
// serial with fast-forward on and off; scaling also runs on two shards.
// Appending colors changes the shard plan, so idle colors runs serially.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "sim/runner.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"

namespace rrs {
namespace {

/// Forwards `input` with Delta and every drop cost times `factor`, plus
/// `idle` colors (delay bound 8) that never receive a job.
class Transformed final : public ArrivalSource {
 public:
  Transformed(ArrivalSource& input, Cost factor, ColorId idle)
      : input_(&input), factor_(factor), idle_(idle) {}

  [[nodiscard]] Cost delta() const override {
    return input_->delta() * factor_;
  }
  [[nodiscard]] ColorId num_colors() const override {
    return input_->num_colors() + idle_;
  }
  [[nodiscard]] Round delay_bound(ColorId c) const override {
    return real(c) ? input_->delay_bound(c) : 8;
  }
  [[nodiscard]] Cost drop_cost(ColorId c) const override {
    return (real(c) ? input_->drop_cost(c) : 1) * factor_;
  }
  [[nodiscard]] Round length(ColorId c) const override {
    return real(c) ? input_->length(c) : 1;
  }
  [[nodiscard]] std::int64_t batch_bound(ColorId c) const override {
    return real(c) ? input_->batch_bound(c) : 0;
  }
  [[nodiscard]] Round horizon() const override { return input_->horizon(); }
  [[nodiscard]] std::span<const Job> arrivals_in_round(Round k) override {
    const std::span<const Job> in = input_->arrivals_in_round(k);
    jobs_.assign(in.begin(), in.end());
    for (Job& job : jobs_) job.drop_cost *= factor_;
    return jobs_;
  }
  [[nodiscard]] Round next_event_round(Round k, Round limit) override {
    return input_->next_event_round(k, limit);
  }

 private:
  [[nodiscard]] bool real(ColorId c) const {
    return c < input_->num_colors();
  }

  ArrivalSource* input_;
  Cost factor_;
  ColorId idle_;
  std::vector<Job> jobs_;
};

using Cell = std::tuple<std::string, std::string, std::uint64_t>;

class MetamorphicRelations : public ::testing::TestWithParam<Cell> {
 protected:
  /// The run's cost on the cell's input transformed by (factor, idle).
  Cost cost(Cost factor, ColorId idle, int shards, bool fast_forward) {
    const auto& [algorithm, family, seed] = GetParam();
    std::unique_ptr<ArrivalSource> input;
    Instance instance;
    if (family == "batched") {
      RandomBatchedParams params;
      params.seed = seed;
      params.horizon = 2048;
      params.max_drop_cost = 3;
      input = std::make_unique<RandomBatchedSource>(params);
    } else {
      PoissonParams params;
      params.seed = seed;
      params.num_colors = 12;
      params.horizon = 2048;
      input = std::make_unique<PoissonSource>(params);
      if (algorithm == "distribute" || algorithm == "varbatch") {
        instance = materialize(*input);
        input = std::make_unique<MaterializedSource>(instance);
      }
    }
    Transformed source(*input, factor, idle);
    ShardedRunOptions options;
    options.fast_forward = fast_forward;
    return run_streaming_sharded(source, algorithm, 8, shards,
                                 kInfiniteHorizon, options)
        .merged.cost.total();
  }
};

TEST_P(MetamorphicRelations, ScalingMultipliesCostByThree) {
  for (const int shards : {1, 2}) {
    for (const bool ff : {true, false}) {
      if (shards == 2 && !ff) continue;
      const Cost base = cost(1, 0, shards, ff);
      EXPECT_GT(base, 0);
      EXPECT_EQ(cost(3, 0, shards, ff), 3 * base)
          << "K=" << shards << " fast-forward " << ff;
    }
  }
}

TEST_P(MetamorphicRelations, IdleColorsLeaveCostUnchanged) {
  for (const bool ff : {true, false}) {
    EXPECT_EQ(cost(1, 3, 1, ff), cost(1, 0, 1, ff))
        << "fast-forward " << ff;
  }
}

std::vector<Cell> cells() {
  std::vector<Cell> out;
  for (const char* const algorithm :
       {"dlru", "edf", "dlru-edf", "adaptive", "seq-edf", "ds-seq-edf",
        "distribute", "varbatch"}) {
    for (const char* const family : {"batched", "poisson"}) {
      if (std::string(algorithm) == "distribute" &&
          std::string(family) == "poisson") {
        continue;  // Distribute's input must be batched
      }
      for (const std::uint64_t seed : {1u, 2u, 3u}) {
        out.emplace_back(algorithm, family, seed);
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Relations, MetamorphicRelations, ::testing::ValuesIn(cells()),
    [](const ::testing::TestParamInfo<Cell>& param_info) {
      std::string name = std::get<0>(param_info.param) + "_" +
                         std::get<1>(param_info.param) + "_s" +
                         std::to_string(std::get<2>(param_info.param));
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace rrs
