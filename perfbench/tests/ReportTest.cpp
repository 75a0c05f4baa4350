//===- perfbench/tests/ReportTest.cpp - Benchmark arithmetic tests ---------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Checks the arithmetic behind every reported number: the percentile
// sample-count rule, geometric means, rung verdicts and the highest passing
// rate, and span self time. Exits nonzero on the first failure.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What, int Line) {
  if (!Ok) {
    std::fprintf(stderr, "ReportTest.cpp:%d: FAILED: %s\n", Line, What);
    ++Failures;
  }
}
#define CHECK(Cond) check((Cond), #Cond, __LINE__)

bool near(double A, double B) { return std::fabs(A - B) <= 1e-9 * std::fabs(B); }

std::vector<double> oneTo(int N) {
  std::vector<double> Xs;
  for (int I = N; I >= 1; --I)
    Xs.push_back(I);
  return Xs;
}

void testPercentileSampleRule() {
  CHECK(minSamplesFor(0.5) == 20);
  CHECK(minSamplesFor(0.9) == 100);
  CHECK(minSamplesFor(0.99) == 1000);
  CHECK(minSamplesFor(0.999) == 10000);

  // p99 needs 1000 samples: 999 give nothing, with the count reported.
  Percentile Short = percentile(oneTo(999), 0.99);
  CHECK(!Short.Value);
  CHECK(Short.N == 999);
  Percentile Enough = percentile(oneTo(1000), 0.99);
  CHECK(Enough.Value && *Enough.Value == 990);
  CHECK(Enough.N == 1000);

  // Nearest rank on unsorted input.
  Percentile Median = percentile(oneTo(21), 0.5);
  CHECK(Median.Value && *Median.Value == 11);
  CHECK(!percentile(oneTo(19), 0.5).Value);
  CHECK(!percentile({}, 0.5).Value);
  CHECK(median({3, 1, 2, 4}) == 2.5);
}

void testMedianOfPercentiles() {
  std::vector<double> Twice = oneTo(1000), Thrice = oneTo(1000);
  for (double &X : Twice)
    X *= 2;
  for (double &X : Thrice)
    X *= 3;
  // One repetition with a long stall moves the pooled p99 but not the
  // median repetition's.
  Thrice.back() = 1e9;
  Percentile P = medianOfPercentiles({Thrice, oneTo(1000), Twice}, 0.99);
  CHECK(P.Value && *P.Value == 1980);
  CHECK(P.N == 3000);
  // Every repetition must have enough samples for the percentile.
  Percentile Short = medianOfPercentiles({oneTo(1000), oneTo(999)}, 0.99);
  CHECK(!Short.Value);
  CHECK(Short.N == 1999);
  CHECK(!medianOfPercentiles({}, 0.99).Value);
}

void testGeomean() {
  CHECK(near(*geomean({2, 8}), 4));
  CHECK(near(*geomean({1000, 10, 0.1}), 10));
  CHECK(near(*geomean({5}), 5));
  CHECK(!geomean({}));
  CHECK(!geomean({1, 0}));
  CHECK(!geomean({1, -2}));
}

Rung passing(double Rps) {
  Rung R;
  R.OfferedRps = Rps;
  R.AchievedRps = Rps * 0.99;
  R.Scheduled = R.Completed = 5000;
  R.LatencyP99Us = Percentile{100.0, 5000};
  R.QueueWaitFirstQuarterUs = 2;
  R.QueueWaitLastQuarterUs = 3;
  return R;
}

void testRungs() {
  const double Limit = 1000;
  CHECK(rungPasses(passing(10), Limit));

  Rung Slow = passing(10);
  Slow.LatencyP99Us.Value = 1001;
  CHECK(!rungPasses(Slow, Limit));
  Rung AtLimit = passing(10);
  AtLimit.LatencyP99Us.Value = 1000;
  CHECK(rungPasses(AtLimit, Limit));

  Rung Unmeasured = passing(10);
  Unmeasured.LatencyP99Us = Percentile{std::nullopt, 500};
  CHECK(!rungPasses(Unmeasured, Limit));

  Rung Failing = passing(10);
  Failing.Failed = 1;
  Failing.Completed -= 1;
  CHECK(!rungPasses(Failing, Limit));

  Rung Unaccounted = passing(10);
  Unaccounted.Completed -= 1;
  CHECK(!rungPasses(Unaccounted, Limit));

  // A backlog: the queue at the end is longer than at the start by more
  // than a tenth of the limit.
  Rung Backlog = passing(10);
  Backlog.QueueWaitLastQuarterUs = Backlog.QueueWaitFirstQuarterUs + 101;
  CHECK(!rungPasses(Backlog, Limit));
  Backlog.QueueWaitLastQuarterUs = Backlog.QueueWaitFirstQuarterUs + 100;
  CHECK(rungPasses(Backlog, Limit));

  // The highest passing rung below the first failure, by achieved rate.
  std::vector<Rung> Ladder = {passing(10), passing(20), Slow, passing(40)};
  CHECK(near(*maxPassingRate(Ladder, Limit), 20 * 0.99));
  CHECK(!maxPassingRate({Slow, passing(20)}, Limit));
  CHECK(!maxPassingRate({}, Limit));
  CHECK(near(*maxPassingRate({passing(10), passing(20)}, Limit), 20 * 0.99));
}

Span span(uint64_t Id, uint64_t Parent, int64_t Start, int64_t End) {
  Span S;
  S.Id = Id;
  S.Parent = Parent;
  S.StartNs = Start;
  S.EndNs = End;
  return S;
}

void testSelfTime() {
  // A request [0, 100] with queue_wait [0, 30] and service [30, 100]; the
  // service holds a collection [50, 70] and a grandchild that must not be
  // subtracted from the request a second time.
  std::vector<Span> Spans = {span(1, 0, 0, 100), span(2, 1, 0, 30),
                             span(3, 1, 30, 100), span(4, 3, 50, 70)};
  std::vector<int64_t> Self = selfTimes(Spans);
  CHECK(Self.size() == 4);
  CHECK(Self[0] == 0);
  CHECK(Self[1] == 30);
  CHECK(Self[2] == 50);
  CHECK(Self[3] == 20);

  // Overlapping children count once; parts outside the parent do not count.
  std::vector<Span> Overlap = {span(1, 0, 10, 110), span(2, 1, 0, 40),
                               span(3, 1, 30, 60), span(4, 1, 100, 200)};
  CHECK(selfTimes(Overlap)[0] == 100 - 50 - 10);

  // Children recorded before their parent (the order a recorder closes
  // them in) are still found.
  std::vector<Span> ChildFirst = {span(7, 9, 5, 6), span(9, 0, 0, 10)};
  CHECK(selfTimes(ChildFirst)[1] == 9);
}

void testJson() {
  CHECK(jsonNumber(std::nullopt) == "null");
  CHECK(jsonNumber(NAN) == "null");
  CHECK(jsonNumber(0.1) == "0.1");
  CHECK(jsonNumber(1234.5678) == "1234.5678");
  CHECK(jsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\u000a\"");
}

} // namespace

int main() {
  testPercentileSampleRule();
  testMedianOfPercentiles();
  testGeomean();
  testRungs();
  testSelfTime();
  testJson();
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
