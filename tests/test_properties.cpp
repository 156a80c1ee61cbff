// Cross-cutting property tests (parameterized sweeps):
//   * engine conservation — every scheme serves every request exactly once,
//     with monotone per-request timestamps, across schemes × seeds;
//   * LP solutions match brute-force vertex enumeration on random small LPs;
//   * allocation evaluator invariants (mass conservation in the cascade).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "baselines/scenario.h"
#include "common/rng.h"
#include "sim/engine.h"
#include "solver/allocation.h"
#include "solver/lp.h"
#include "trace/twitter.h"

namespace arlo {
namespace {

// --- engine conservation -----------------------------------------------------

struct ConservationCase {
  std::string scheme;
  std::uint64_t seed;
};

// Prints as "arlo-ilb_seed1", which is also the case's ctest name; the
// default printer would show a char pointer's address, which changes with
// every build and run.
void PrintTo(const ConservationCase& c, std::ostream* os) {
  *os << c.scheme << "_seed" << c.seed;
}

std::vector<ConservationCase> ConservationCases() {
  std::vector<ConservationCase> cases;
  for (const char* scheme :
       {"arlo", "arlo-ilb", "arlo-ig", "st", "dt", "infaas"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      cases.push_back({scheme, seed});
    }
  }
  return cases;
}

class ConservationTest : public ::testing::TestWithParam<ConservationCase> {};

TEST_P(ConservationTest, EveryRequestServedExactlyOnceWithSaneTimestamps) {
  const auto& [scheme_name, seed] = GetParam();
  trace::TwitterTraceConfig tc;
  tc.duration_s = 6.0;
  tc.mean_rate = 250.0;
  tc.seed = seed * 7919;
  tc.pattern = seed % 2 == 0 ? trace::TwitterTraceConfig::Pattern::kStable
                             : trace::TwitterTraceConfig::Pattern::kBursty;
  const trace::Trace t = trace::SynthesizeTwitterTrace(tc);

  baselines::ScenarioConfig config;
  config.gpus = 3;
  config.period = Seconds(2.0);
  auto runtimes = baselines::MakeRuntimeSetFor(config);
  config.initial_demand = baselines::DemandFromTrace(t, *runtimes, config.slo);
  auto scheme = baselines::MakeSchemeByName(scheme_name, config);
  const sim::EngineResult result = sim::RunScenario(t, *scheme);

  ASSERT_EQ(result.records.size(), t.Size());
  std::vector<bool> seen(t.Size(), false);
  for (const auto& r : result.records) {
    ASSERT_LT(r.id, t.Size());
    EXPECT_FALSE(seen[r.id]) << "request served twice";
    seen[r.id] = true;
    EXPECT_GE(r.dispatch, r.arrival);
    EXPECT_GE(r.start, r.dispatch);
    EXPECT_GT(r.completion, r.start);
    EXPECT_GE(r.length, 1);
    EXPECT_LE(r.length, 512);
  }
}

INSTANTIATE_TEST_SUITE_P(SchemesAndSeeds, ConservationTest,
                         ::testing::ValuesIn(ConservationCases()));

// --- LP vs vertex enumeration -----------------------------------------------

/// Brute-force reference: enumerate all basic feasible points of a 2-var LP
/// with <= constraints (intersect every constraint pair + axes) and take
/// the best feasible one.
double BruteForceLp2(const solver::LpProblem& p) {
  std::vector<std::pair<double, double>> candidates = {{0.0, 0.0}};
  // Constraint lines: a*x + b*y = c; axes x=0, y=0.
  struct Line {
    double a, b, c;
  };
  std::vector<Line> lines = {{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}};
  for (const auto& con : p.constraints) {
    lines.push_back({con.coeffs[0], con.coeffs[1], con.rhs});
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      const double det = lines[i].a * lines[j].b - lines[j].a * lines[i].b;
      if (std::abs(det) < 1e-12) continue;
      const double x = (lines[i].c * lines[j].b - lines[j].c * lines[i].b) / det;
      const double y = (lines[i].a * lines[j].c - lines[j].a * lines[i].c) / det;
      candidates.push_back({x, y});
    }
  }
  double best = std::numeric_limits<double>::infinity();
  for (const auto& [x, y] : candidates) {
    if (x < -1e-9 || y < -1e-9) continue;
    bool feasible = true;
    for (const auto& con : p.constraints) {
      if (con.coeffs[0] * x + con.coeffs[1] * y > con.rhs + 1e-9) {
        feasible = false;
        break;
      }
    }
    if (feasible) {
      best = std::min(best, p.objective[0] * x + p.objective[1] * y);
    }
  }
  return best;
}

class LpVertexTest : public ::testing::TestWithParam<int> {};

TEST_P(LpVertexTest, SimplexMatchesVertexEnumeration) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729);
  solver::LpProblem p;
  p.objective = {rng.Uniform(-5.0, 5.0), rng.Uniform(-5.0, 5.0)};
  const int m = static_cast<int>(rng.UniformInt(2, 5));
  for (int i = 0; i < m; ++i) {
    p.AddConstraint({rng.Uniform(0.1, 3.0), rng.Uniform(0.1, 3.0)},
                    solver::Relation::kLessEq, rng.Uniform(1.0, 10.0));
  }
  // Positive coefficients + positive rhs: bounded iff objective has a
  // negative direction; the box of constraints always bounds the feasible
  // region only if both objective coords can't decrease forever — negative
  // objective entries are fine since x, y >= 0 and constraints cap growth.
  const solver::LpSolution s = SolveLp(p);
  ASSERT_EQ(s.status, solver::LpStatus::kOptimal) << "seed " << GetParam();
  EXPECT_NEAR(s.objective, BruteForceLp2(p), 1e-6) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpVertexTest, ::testing::Range(1, 25));

// --- allocation cascade invariants -------------------------------------------

class CascadeInvariantTest : public ::testing::TestWithParam<int> {};

TEST_P(CascadeInvariantTest, MassIsConservedThroughDemotion) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337);
  solver::AllocationProblem p;
  const int n = static_cast<int>(rng.UniformInt(2, 6));
  p.gpus = static_cast<int>(rng.UniformInt(n, 3 * n));
  for (int i = 0; i < n; ++i) {
    runtime::RuntimeProfile prof;
    prof.id = static_cast<RuntimeId>(i);
    prof.max_length = 64 * (i + 1);
    prof.compute_time = Millis(rng.Uniform(0.5, 2.0) * (i + 1));
    prof.capacity_within_slo = std::max(
        1, static_cast<int>(Millis(150.0) / prof.compute_time));
    p.profiles.push_back(prof);
    p.demand.push_back(rng.Uniform(0.0, 30.0));
  }
  // Random allocation summing to gpus with at least 1 on the last runtime.
  std::vector<int> alloc(static_cast<std::size_t>(n), 0);
  alloc.back() = 1;
  for (int g = 1; g < p.gpus; ++g) {
    ++alloc[static_cast<std::size_t>(rng.UniformInt(0, n - 1))];
  }
  const solver::AllocationEval eval = EvaluateAllocation(p, alloc);

  // Processed + final unabsorbed == total demand (nothing lost/created).
  double processed = 0.0, demand = 0.0;
  for (double c : eval.processed) processed += c;
  for (double q : p.demand) demand += q;
  EXPECT_NEAR(processed, demand, 1e-9) << "seed " << GetParam();
  // Carryover is non-negative and zero at the last runtime.
  for (double r : eval.carryover) EXPECT_GE(r, 0.0);
  EXPECT_DOUBLE_EQ(eval.carryover.back(), 0.0);
  // Objective is finite and non-negative for feasible allocations.
  EXPECT_TRUE(eval.feasible);
  EXPECT_GE(eval.objective, 0.0);
  EXPECT_TRUE(std::isfinite(eval.objective));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CascadeInvariantTest, ::testing::Range(1, 17));

}  // namespace
}  // namespace arlo
