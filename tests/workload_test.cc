// Tests for src/workload: generator classification, determinism, trace IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "util/check.h"
#include "workload/adversary_dlru.h"
#include "workload/adversary_edf.h"
#include "workload/datacenter.h"
#include "workload/flash_crowd.h"
#include "workload/generator_source.h"
#include "workload/intro_scenario.h"
#include "workload/poisson.h"
#include "workload/random_batched.h"
#include "workload/trace_io.h"

namespace rrs {
namespace {

TEST(AdversaryA, ShapeMatchesConstruction) {
  const AdversaryAInstance adv =
      make_adversary_a({.n = 8, .delta = 2, .j = 5, .k = 7});
  EXPECT_EQ(adv.instance.num_colors(), 8 / 2 + 1);
  EXPECT_EQ(adv.short_colors.size(), 4u);
  EXPECT_EQ(adv.instance.delay_bound(adv.long_color), 128);
  EXPECT_EQ(adv.instance.jobs_of_color(adv.long_color), 128);
  // Delta jobs per short color per multiple of 2^j in [0, 2^k).
  EXPECT_EQ(adv.instance.jobs_of_color(adv.short_colors[0]), 2 * (128 / 32));
  EXPECT_TRUE(adv.instance.is_rate_limited());
  EXPECT_TRUE(adv.instance.all_delays_pow2());
}

TEST(AdversaryA, AutoParametersSatisfyConstraints) {
  const AdversaryAInstance adv = make_adversary_a({.n = 16, .delta = 3});
  const Round short_delay = Round{1} << adv.params.j;
  const Round long_delay = Round{1} << adv.params.k;
  EXPECT_GT(long_delay, 2 * short_delay);
  EXPECT_GT(2 * short_delay, Round{16} * 3);
}

TEST(AdversaryB, ShapeMatchesConstruction) {
  const AdversaryBInstance adv = make_adversary_b({.n = 6});
  EXPECT_EQ(adv.params.delta, 7);  // auto n + 1
  EXPECT_EQ(adv.long_colors.size(), 3u);
  // Long color p has 2^{k+p-1} jobs, delay 2^{k+p}.
  for (std::size_t p = 0; p < adv.long_colors.size(); ++p) {
    const Round delay = adv.instance.delay_bound(adv.long_colors[p]);
    EXPECT_EQ(delay, Round{1} << (adv.params.k + static_cast<int>(p)));
    EXPECT_EQ(adv.instance.jobs_of_color(adv.long_colors[p]), delay / 2);
  }
  EXPECT_TRUE(adv.instance.is_rate_limited());
}

TEST(IntroScenario, RateLimitedWithBackgroundBacklog) {
  IntroScenarioParams params;
  params.seed = 5;
  const IntroScenarioInstance s = make_intro_scenario(params);
  EXPECT_TRUE(s.instance.is_rate_limited());
  EXPECT_EQ(s.instance.jobs_of_color(s.background_color),
            params.background_jobs);
  EXPECT_EQ(static_cast<int>(s.short_colors.size()),
            params.num_short_colors);
}

TEST(IntroScenario, DeterministicBySeed) {
  IntroScenarioParams params;
  params.seed = 7;
  const auto a = make_intro_scenario(params);
  const auto b = make_intro_scenario(params);
  EXPECT_EQ(a.instance.jobs().size(), b.instance.jobs().size());
  EXPECT_EQ(a.instance.jobs(), b.instance.jobs());
}

TEST(RandomBatched, ClassificationFollowsBurstFactor) {
  RandomBatchedParams params;
  params.seed = 1;
  params.burst_factor = 1.0;
  EXPECT_TRUE(make_random_batched(params).is_rate_limited());
  params.burst_factor = 4.0;
  const Instance bursty = make_random_batched(params);
  EXPECT_TRUE(bursty.is_batched());
  EXPECT_FALSE(bursty.is_rate_limited());
}

TEST(RandomBatched, DelayScalesRespected) {
  RandomBatchedParams params;
  params.seed = 2;
  params.min_scale = 3;
  params.max_scale = 5;
  const Instance inst = make_random_batched(params);
  for (ColorId c = 0; c < inst.num_colors(); ++c) {
    EXPECT_GE(inst.delay_bound(c), 8);
    EXPECT_LE(inst.delay_bound(c), 32);
  }
}

/// FNV-1a over (id, color, arrival) of every job `source` emits in rounds
/// [0, rounds).
std::uint64_t stream_hash(ArrivalSource& source, Round rounds) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (static_cast<std::uint64_t>(value) >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (Round k = 0; k < rounds; ++k) {
    for (const Job& job : source.arrivals_in_round(k)) {
      mix(job.id);
      mix(job.color);
      mix(job.arrival);
    }
  }
  return hash;
}

TEST(RandomBatched, BatchedStreamIsPinned) {
  // The hashes were recorded while synthesize() still visited every color
  // every round: visiting only the due colors must keep every draw, id and
  // emission order, on the full stream and on a shard-native view.
  struct Pin {
    std::uint64_t seed;
    std::uint64_t full;
    std::uint64_t view;
  };
  const Pin pins[] = {{1, 0xa7cde5f267cfba28ULL, 0xd201ff5ff6c99134ULL},
                      {7, 0xbdd82ed8ccb078e1ULL, 0xa19bf14fcfb447cfULL},
                      {99, 0x437c9c878672cf4eULL, 0x3e477b6ab65d7c03ULL}};
  const std::vector<ColorId> view_colors = {1, 4, 9, 14, 22, 27, 31};
  for (const Pin& pin : pins) {
    RandomBatchedParams params;  // perfbench's dense-serial shape
    params.seed = pin.seed;
    params.delta = 8;
    params.num_colors = 32;
    params.min_scale = 2;
    params.max_scale = 6;
    params.activity = 0.7;
    params.horizon = kInfiniteHorizon;
    RandomBatchedSource full(params);
    std::unique_ptr<GeneratorSource> view = full.clone();
    view->restrict_to(view_colors);
    std::set<Round> classes;
    for (ColorId c = 0; c < view->num_colors(); ++c) {
      classes.insert(view->delay_bound(c));
    }
    ASSERT_GE(classes.size(), 3u) << "seed " << pin.seed;
    EXPECT_EQ(stream_hash(full, 4096), pin.full) << "seed " << pin.seed;
    EXPECT_EQ(stream_hash(*view, 4096), pin.view) << "seed " << pin.seed;
  }
}

/// Delays {3, 5, 6, 10} overlap without nesting: 30 | k makes all four
/// classes due at once.  Each color checks its own due rounds, so the
/// batched contract must not change what is emitted; `idle_visits` counts
/// synthesize_color() calls on rounds the color is not due.
class OddDelaySource final : public GeneratorSource {
 public:
  OddDelaySource(std::uint64_t seed, bool batched)
      : GeneratorSource(/*delta=*/4, kInfiniteHorizon) {
    for (const Round delay : {6, 3, 10, 5, 3, 6, 5, 10, 3}) {
      add_color(delay);
      delays_.push_back(delay);
      streams_.push_back(derive_rng(seed, delays_.size()));
    }
    if (batched) declare_batched();
  }

  [[nodiscard]] std::int64_t idle_visits() const { return idle_visits_; }

 private:
  void synthesize_color(ColorId color, Round k) override {
    const auto c = static_cast<std::size_t>(color);
    if (k % delays_[c] != 0) {
      ++idle_visits_;
      return;
    }
    Rng& stream = streams_[c];
    if (stream.bernoulli(0.6)) emit(color, k, stream.uniform(1, 3));
  }
  void checkpoint_extra(CheckpointWriter& w) const override {
    for (const Rng& rng : streams_) checkpoint_rng(w, rng);
  }
  void restore_extra(CheckpointReader& r) override {
    for (Rng& rng : streams_) restore_rng(r, rng);
  }

  std::vector<Round> delays_;
  std::vector<Rng> streams_;
  std::int64_t idle_visits_ = 0;
};

TEST(GeneratorSource, BatchedContractEmitsWhatTheFullVisitEmits) {
  const std::vector<ColorId> view_colors = {0, 2, 3, 4, 7};
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    for (const bool view : {false, true}) {
      OddDelaySource full_visit(seed, /*batched=*/false);
      OddDelaySource batched(seed, /*batched=*/true);
      if (view) {
        full_visit.restrict_to(view_colors);
        batched.restrict_to(view_colors);
      }
      int multi_class_rounds = 0;
      for (Round k = 0; k < 400; ++k) {
        const std::span<const Job> a = full_visit.arrivals_in_round(k);
        const std::vector<Job> want(a.begin(), a.end());
        const std::span<const Job> b = batched.arrivals_in_round(k);
        ASSERT_EQ(std::vector<Job>(b.begin(), b.end()), want)
            << "seed " << seed << " view " << view << " round " << k;
        std::set<Round> classes;
        for (const Job& job : want) classes.insert(job.delay_bound);
        if (classes.size() >= 2) ++multi_class_rounds;
      }
      EXPECT_GT(multi_class_rounds, 10) << "seed " << seed;
      EXPECT_EQ(batched.idle_visits(), 0) << "seed " << seed;
      EXPECT_GT(full_visit.idle_visits(), 0) << "seed " << seed;
    }
  }
}

TEST(GeneratorSource, BatchedContractResumesFromACheckpoint) {
  // A restore lands the batched visit mid-cycle (round 101 is due for no
  // class); the due lists must re-align to it.
  OddDelaySource reference(5, /*batched=*/true);
  OddDelaySource first(5, /*batched=*/true);
  for (Round k = 0; k <= 100; ++k) {
    (void)reference.arrivals_in_round(k);
    (void)first.arrivals_in_round(k);
  }
  CheckpointWriter w;
  first.checkpoint(w);
  std::stringstream bytes;
  w.finish(bytes);
  CheckpointReader r(bytes);
  OddDelaySource resumed(5, /*batched=*/true);
  resumed.restore(r);
  for (Round k = 101; k < 400; ++k) {
    const std::span<const Job> a = reference.arrivals_in_round(k);
    const std::span<const Job> b = resumed.arrivals_in_round(k);
    ASSERT_EQ(std::vector<Job>(b.begin(), b.end()),
              std::vector<Job>(a.begin(), a.end()))
        << "round " << k;
  }
}

std::vector<unsigned char> checkpoint_bytes(const GeneratorSource& source) {
  CheckpointWriter w;
  source.checkpoint(w);
  const std::span<const unsigned char> bytes = w.bytes();
  return {bytes.begin(), bytes.end()};
}

/// A fresh copy of `proto`, restricted to `view` unless it is empty.
std::unique_ptr<GeneratorSource> fresh_copy(const GeneratorSource& proto,
                                            const std::vector<ColorId>& view) {
  std::unique_ptr<GeneratorSource> copy = proto.clone();
  if (!view.empty()) copy->restrict_to(view);
  return copy;
}

/// Drives one copy of `proto` by next_event_round() under seeded random
/// limits, pulling each round it reports, and one by a pull every round.
/// Both must emit the same jobs and, at seeded rounds, write the same
/// checkpoint bytes.  A copy restored from a checkpoint taken mid-gap (a
/// scan that reached its limit, so the pull cursor lags the synthesis)
/// must continue as the plain pulls do.
void expect_skip_matches_pulls(const GeneratorSource& proto,
                               const std::vector<ColorId>& view,
                               std::uint64_t seed, const std::string& what) {
  constexpr Round kRounds = 24'000;
  Rng rng(seed);
  std::set<Round> stops;
  for (int i = 0; i < 12; ++i) stops.insert(rng.uniform(1, kRounds - 1));

  const std::unique_ptr<GeneratorSource> plain = fresh_copy(proto, view);
  std::vector<Job> want;
  std::map<Round, std::vector<unsigned char>> want_bytes;
  for (Round k = 0; k < kRounds; ++k) {
    if (stops.count(k) > 0) want_bytes[k] = checkpoint_bytes(*plain);
    for (const Job& job : plain->arrivals_in_round(k)) want.push_back(job);
  }

  const std::unique_ptr<GeneratorSource> skipping = fresh_copy(proto, view);
  std::vector<Job> got;
  Round k = 0;        // the next round a run would pull
  Round served = -1;  // the last round pulled
  auto stop = stops.begin();
  int restores = 0;
  while (k < kRounds) {
    if (stop != stops.end() && k == *stop) {
      // Pull the last scanned round, as the plain copy did.
      if (served < k - 1) (void)skipping->arrivals_in_round(k - 1);
      served = k - 1;
      ASSERT_EQ(checkpoint_bytes(*skipping), want_bytes[k])
          << what << ": checkpoint at round " << k;
      ++stop;
    }
    Round limit = std::min<Round>(kRounds, k + rng.uniform(0, 3000));
    if (stop != stops.end()) limit = std::min(limit, *stop);
    const Round next = skipping->next_event_round(k, limit);
    ASSERT_GE(next, k) << what;
    ASSERT_LE(next, limit) << what;
    if (next == limit) {
      if (limit > k && restores < 3) {
        ++restores;
        CheckpointWriter w;
        skipping->checkpoint(w);
        std::stringstream bytes;
        w.finish(bytes);
        CheckpointReader r(bytes);
        const std::unique_ptr<GeneratorSource> resumed =
            fresh_copy(proto, view);
        resumed->restore(r);
        std::vector<Job> rest;
        for (Round j = k; j < kRounds; ++j) {
          for (const Job& job : resumed->arrivals_in_round(j)) {
            rest.push_back(job);
          }
        }
        std::vector<Job> tail;
        for (const Job& job : want) {
          if (job.arrival >= k) tail.push_back(job);
        }
        ASSERT_EQ(rest, tail)
            << what << ": resumed at round " << k << ", scanned to " << limit;
      }
      k = limit;
      continue;
    }
    const std::span<const Job> jobs = skipping->arrivals_in_round(next);
    EXPECT_FALSE(jobs.empty()) << what << ": reported round " << next;
    got.insert(got.end(), jobs.begin(), jobs.end());
    served = next;
    k = next + 1;
  }
  EXPECT_EQ(got, want) << what;
  EXPECT_EQ(restores, 3) << what;
}

TEST(GeneratorSource, QuietSkipMatchesPlainPulls) {
  // perfbench's sparse-service rates, a spike whose edges fall inside
  // quiet stretches, and the same with silent background colors.
  FlashCrowdParams flash;
  flash.base_rate = 0.0005;
  flash.spike_factor = 4000.0;
  flash.spike_start = 9'001;
  flash.spike_end = 9'097;
  flash.spike_delay = 8;
  flash.background_colors = 3;
  flash.background_rate = 0.0002;
  flash.background_delay = 64;
  flash.horizon = kInfiniteHorizon;
  FlashCrowdParams silent = flash;
  silent.background_rate = 0.0;
  // E9's poisson-sparse shape, a silent stream, and a finite horizon that
  // ends inside a gap.
  PoissonParams poisson;
  poisson.num_colors = 8;
  poisson.min_delay = 64;
  poisson.max_delay = 128;
  poisson.mean_rate = 0.0005;
  poisson.horizon = kInfiniteHorizon;
  PoissonParams zero = poisson;
  zero.mean_rate = 0.0;
  PoissonParams finite = poisson;
  finite.horizon = 15'013;
  for (const std::uint64_t seed : {1ULL, 2ULL, 99ULL}) {
    flash.seed = silent.seed = seed;
    poisson.seed = zero.seed = finite.seed = seed;
    const FlashCrowdSource flash_source(flash);
    const FlashCrowdSource silent_source(silent);
    const PoissonSource poisson_source(poisson);
    const PoissonSource zero_source(zero);
    const PoissonSource finite_source(finite);
    const std::string s = " seed " + std::to_string(seed);
    for (const std::vector<ColorId>& view :
         {std::vector<ColorId>{}, std::vector<ColorId>{0, 2}}) {
      const std::string v = view.empty() ? " whole" : " view";
      expect_skip_matches_pulls(flash_source, view, seed, "flash" + v + s);
      expect_skip_matches_pulls(silent_source, view, seed, "silent" + v + s);
    }
    for (const std::vector<ColorId>& view :
         {std::vector<ColorId>{}, std::vector<ColorId>{1, 3, 4, 6}}) {
      const std::string v = view.empty() ? " whole" : " view";
      expect_skip_matches_pulls(poisson_source, view, seed, "poisson" + v + s);
      expect_skip_matches_pulls(zero_source, view, seed, "zero" + v + s);
      expect_skip_matches_pulls(finite_source, view, seed, "finite" + v + s);
    }
  }
}

/// Expects `make` to throw an InputError whose message names `parameter`.
template <typename Make>
void expect_rejects_mean(Make make, const std::string& parameter) {
  try {
    make();
    ADD_FAILURE() << parameter << " was accepted";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find(parameter), std::string::npos)
        << e.what();
  }
}

TEST(FlashCrowd, RejectsMeansPoissonCannotDraw) {
  // From about 745, exp(-mean) is 0 and Knuth's product stops only when
  // it underflows: every such mean samples about 745.
  FlashCrowdParams params;
  params.spike_factor = 4000.0;  // 0.2 * 4000 = 800
  expect_rejects_mean([&] { FlashCrowdSource source(params); },
                      "base_rate * spike_factor");
  params.spike_factor = 20.0;
  params.background_rate = 710.0;  // exp(-mean) is subnormal
  expect_rejects_mean([&] { FlashCrowdSource source(params); },
                      "background_rate");
  params.background_rate = 0.2;
  params.base_rate = -0.5;
  expect_rejects_mean([&] { FlashCrowdSource source(params); }, "base_rate");
  params.base_rate = 700.0 / 20.0;  // a spike mean of 700 still draws
  EXPECT_NO_THROW(FlashCrowdSource source(params));
}

TEST(Poisson, RejectsMeansPoissonCannotDraw) {
  PoissonParams params;
  for (const double mean : {800.0, 2000.0, -1.0, std::nan("")}) {
    params.mean_rate = mean;
    expect_rejects_mean([&] { PoissonSource source(params); }, "mean_rate");
  }
  params.mean_rate = 0.0;
  EXPECT_NO_THROW(PoissonSource source(params));
}

TEST(Datacenter, RejectsMeansPoissonCannotDraw) {
  DatacenterParams params;
  params.services = default_service_mix();
  params.services[2].hot_rate = 800.0;
  expect_rejects_mean([&] { DatacenterSource source(params); },
                      "services[2].hot_rate");
  params.services[2].hot_rate = 0.8;
  params.services[5].cold_rate = -0.1;
  expect_rejects_mean([&] { DatacenterSource source(params); },
                      "services[5].cold_rate");
}

TEST(Poisson, UnbatchedWithRequestedDelays) {
  PoissonParams params;
  params.seed = 3;
  params.min_delay = 4;
  params.max_delay = 64;
  const Instance inst = make_poisson(params);
  EXPECT_FALSE(inst.is_batched());
  EXPECT_TRUE(inst.all_delays_pow2());
  for (ColorId c = 0; c < inst.num_colors(); ++c) {
    EXPECT_GE(inst.delay_bound(c), 4);
    EXPECT_LE(inst.delay_bound(c), 64);
  }
}

TEST(Poisson, ArbitraryDelaysMode) {
  PoissonParams params;
  params.seed = 4;
  params.arbitrary_delays = true;
  params.min_delay = 3;
  params.max_delay = 50;
  params.num_colors = 40;
  const Instance inst = make_poisson(params);
  EXPECT_FALSE(inst.all_delays_pow2()) << "40 draws should hit a non-pow2";
}

TEST(Datacenter, DefaultMixProducesWork) {
  DatacenterParams params;
  params.seed = 6;
  params.horizon = 2048;
  const Instance inst = make_datacenter(params);
  EXPECT_EQ(inst.num_colors(),
            static_cast<ColorId>(default_service_mix().size()));
  EXPECT_GT(inst.jobs().size(), 100u);
  // Phase structure: at least one service sees both hot and cold stretches
  // (hard to assert directly; proxy: job counts differ across services).
  std::int64_t lo = inst.jobs_of_color(0), hi = lo;
  for (ColorId c = 1; c < inst.num_colors(); ++c) {
    lo = std::min(lo, inst.jobs_of_color(c));
    hi = std::max(hi, inst.jobs_of_color(c));
  }
  EXPECT_LT(lo, hi);
}

TEST(Datacenter, DeterministicBySeed) {
  DatacenterParams params;
  params.seed = 8;
  params.horizon = 512;
  EXPECT_EQ(make_datacenter(params).jobs(), make_datacenter(params).jobs());
}

TEST(TraceIo, RoundTripsExactly) {
  RandomBatchedParams params;
  params.seed = 9;
  params.horizon = 64;
  const Instance original = make_random_batched(params);

  std::ostringstream out;
  write_trace(out, original);
  std::istringstream in(out.str());
  const Instance reread = read_trace(in);

  EXPECT_EQ(reread.delta(), original.delta());
  EXPECT_EQ(reread.num_colors(), original.num_colors());
  for (ColorId c = 0; c < original.num_colors(); ++c) {
    EXPECT_EQ(reread.delay_bound(c), original.delay_bound(c));
  }
  EXPECT_EQ(reread.jobs(), original.jobs());
}

TEST(TraceIo, UniformInstancesStayOnTheV1Format) {
  // The scalar-uniform writer output is a closed format: archived v1
  // traces must never change byte-for-byte.
  RandomBatchedParams params;
  params.seed = 9;
  params.horizon = 64;
  std::ostringstream out;
  write_trace(out, make_random_batched(params));
  EXPECT_EQ(out.str().substr(0, out.str().find('\n')), "# rrs-trace v1");
  EXPECT_EQ(out.str().find("dcold"), std::string::npos);
  EXPECT_EQ(out.str().find("dwarm"), std::string::npos);
}

TEST(TraceIo, V2RoundTripsLengthsWeightsAndMatrixExactly) {
  InstanceBuilder builder;
  builder.delta(5);
  const ColorId a = builder.add_color(4, /*drop_cost=*/3, /*length=*/2);
  const ColorId b = builder.add_color(8, /*drop_cost=*/1, /*length=*/1);
  const ColorId c = builder.add_color(16, /*drop_cost=*/7, /*length=*/4);
  builder.reconfig_cost(a, 6);
  builder.reconfig_cost(c, 9);
  builder.transition_cost(a, b, 2);
  builder.transition_cost(b, a, 0);
  builder.add_jobs(a, 0, 2);
  builder.add_jobs(b, 0, 1);
  builder.add_jobs(c, 3, 4);
  const Instance original = builder.build();

  std::ostringstream out;
  write_trace(out, original);
  EXPECT_EQ(out.str().substr(0, out.str().find('\n')), "# rrs-trace v2");

  std::istringstream in(out.str());
  const Instance reread = read_trace(in);
  EXPECT_EQ(reread.cost_model(), original.cost_model());
  EXPECT_EQ(reread.jobs(), original.jobs());
  for (ColorId color = 0; color < original.num_colors(); ++color) {
    EXPECT_EQ(reread.delay_bound(color), original.delay_bound(color));
    EXPECT_EQ(reread.drop_cost(color), original.drop_cost(color));
    EXPECT_EQ(reread.length(color), original.length(color));
  }

  // The rewritten trace is byte-stable (write -> read -> write).
  std::ostringstream out2;
  write_trace(out2, reread);
  EXPECT_EQ(out2.str(), out.str());
}

TEST(TraceIo, LengthOnlyV2KeepsTheScalarReconfigTier) {
  // Length-only generalization: v2 header, no dcold/dwarm needed.
  InstanceBuilder builder;
  builder.delta(2);
  const ColorId a = builder.add_color(4, 1, /*length=*/3);
  builder.add_jobs(a, 0, 2);
  const Instance original = builder.build();
  ASSERT_TRUE(original.cost_model().scalar_reconfig());

  std::ostringstream out;
  write_trace(out, original);
  EXPECT_EQ(out.str().substr(0, out.str().find('\n')), "# rrs-trace v2");
  EXPECT_EQ(out.str().find("dcold"), std::string::npos);
  std::istringstream in(out.str());
  const Instance reread = read_trace(in);
  EXPECT_EQ(reread.cost_model(), original.cost_model());
  EXPECT_EQ(reread.length(a), 3);
}

TEST(TraceIo, RejectsMalformedInput) {
  // One row per failure mode: every malformed trace must surface as a
  // structured InputError, never a crash or a garbage instance.
  const struct {
    const char* label;
    const char* trace;
  } kMalformed[] = {
      {"not a trace", "not a trace\n"},
      {"empty input", ""},
      {"unknown record", "# rrs-trace v1\nwhat,1\n# end\n"},
      {"non-dense color id", "# rrs-trace v1\ncolor,1,4\n# end\n"},
      {"negative color id", "# rrs-trace v1\ncolor,-1,4\n# end\n"},
      {"non-numeric delta", "# rrs-trace v1\ndelta,abc\n# end\n"},
      {"duplicate delta", "# rrs-trace v1\ndelta,2\ndelta,3\n# end\n"},
      {"missing job field", "# rrs-trace v1\ncolor,0,4\njob,0,0\n# end\n"},
      {"truncated: no trailer", "# rrs-trace v1\ncolor,0,4\njob,0,0,1\n"},
      {"truncated mid-number", "# rrs-trace v1\ncolor,0,4\njob,0,0,1"},
      {"record after trailer",
       "# rrs-trace v1\ncolor,0,4\n# end\njob,0,0,1\n"},
      {"undeclared job color", "# rrs-trace v1\ncolor,0,4\njob,1,0,1\n# end\n"},
      {"negative job color", "# rrs-trace v1\ncolor,0,4\njob,-1,0,1\n# end\n"},
      {"overflowing color id",
       "# rrs-trace v1\ncolor,0,4\njob,4294967296,0,1\n# end\n"},
      {"overflowing int64",
       "# rrs-trace v1\ncolor,0,4\njob,99999999999999999999,0,1\n# end\n"},
      {"negative arrival", "# rrs-trace v1\ncolor,0,4\njob,0,-2,1\n# end\n"},
      {"out-of-order rounds",
       "# rrs-trace v1\ncolor,0,4\njob,0,5,1\njob,0,3,1\n# end\n"},
      {"negative count", "# rrs-trace v1\ncolor,0,4\njob,0,0,-1\n# end\n"},
      {"absurd total job count",
       "# rrs-trace v1\ncolor,0,4\njob,0,0,99999999999\n# end\n"},
      {"color after jobs",
       "# rrs-trace v1\ncolor,0,4\njob,0,0,1\ncolor,1,4\n# end\n"},
      {"trailing junk field", "# rrs-trace v1\ndelta,3x\n# end\n"},
      {"zero delay bound", "# rrs-trace v1\ncolor,0,0\n# end\n"},
      {"zero drop cost", "# rrs-trace v1\ncolor,0,4,0\n# end\n"},
      // v2-only records and fields must be rejected under a v1 header:
      // v1 stays a closed, stable format.
      {"length field under v1", "# rrs-trace v1\ncolor,0,4,1,2\n# end\n"},
      {"dcold under v1", "# rrs-trace v1\ncolor,0,4\ndcold,0,2\n# end\n"},
      {"dwarm under v1",
       "# rrs-trace v1\ncolor,0,4\ncolor,1,4\ndwarm,0,1,2\n# end\n"},
      // v2 structural failures.
      {"v2 zero length", "# rrs-trace v2\ncolor,0,4,1,0\n# end\n"},
      {"v2 negative length", "# rrs-trace v2\ncolor,0,4,1,-3\n# end\n"},
      {"v2 overflowing length",
       "# rrs-trace v2\ncolor,0,4,1,99999999999999999999\n# end\n"},
      {"v2 color with too many fields",
       "# rrs-trace v2\ncolor,0,4,1,2,9\n# end\n"},
      {"v2 truncated: no trailer",
       "# rrs-trace v2\ncolor,0,4,1,2\njob,0,0,1\n"},
      {"v2 truncated mid-record", "# rrs-trace v2\ncolor,0,4,1,"},
      {"dcold missing field", "# rrs-trace v2\ncolor,0,4\ndcold,0\n# end\n"},
      {"dcold undeclared color",
       "# rrs-trace v2\ncolor,0,4\ndcold,1,2\n# end\n"},
      {"dcold negative color",
       "# rrs-trace v2\ncolor,0,4\ndcold,-1,2\n# end\n"},
      {"dcold zero cost", "# rrs-trace v2\ncolor,0,4\ndcold,0,0\n# end\n"},
      {"dcold after jobs",
       "# rrs-trace v2\ncolor,0,4\njob,0,0,1\ndcold,0,2\n# end\n"},
      {"dwarm missing field",
       "# rrs-trace v2\ncolor,0,4\ncolor,1,4\ndwarm,0,1\n# end\n"},
      {"dwarm undeclared from-color",
       "# rrs-trace v2\ncolor,0,4\ndwarm,1,0,2\n# end\n"},
      {"dwarm undeclared to-color",
       "# rrs-trace v2\ncolor,0,4\ndwarm,0,1,2\n# end\n"},
      {"dwarm negative cost",
       "# rrs-trace v2\ncolor,0,4\ncolor,1,4\ndwarm,0,1,-1\n# end\n"},
      {"dwarm after jobs",
       "# rrs-trace v2\ncolor,0,4\ncolor,1,4\njob,0,0,1\ndwarm,0,1,2\n"
       "# end\n"},
  };
  for (const auto& [label, trace] : kMalformed) {
    std::istringstream in(trace);
    EXPECT_THROW((void)read_trace(in), InputError) << label;
  }
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::istringstream in(
      "# rrs-trace v1\n"
      "delta,3\n"
      "\n"
      "# a comment\n"
      "color,0,8\n"
      "job,0,0,2\n"
      "# end\n");
  const Instance inst = read_trace(in);
  EXPECT_EQ(inst.delta(), 3);
  EXPECT_EQ(inst.jobs().size(), 2u);
}

TEST(TraceIo, FileRoundTrip) {
  RandomBatchedParams params;
  params.seed = 10;
  params.horizon = 32;
  const Instance original = make_random_batched(params);
  const std::string path = ::testing::TempDir() + "/rrs_trace_test.csv";
  write_trace_file(path, original);
  const Instance reread = read_trace_file(path);
  EXPECT_EQ(reread.jobs(), original.jobs());
  EXPECT_THROW((void)read_trace_file("/nonexistent/dir/x.csv"), InputError);
}

}  // namespace
}  // namespace rrs
