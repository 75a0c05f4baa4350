//===- perfbench/src/Report.h - Benchmark arithmetic -------------*- C++ -*-===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The arithmetic every reported number goes through: percentiles that
/// refuse to answer from too few samples, geometric means, the server
/// ladder's rung verdicts, span self time, and JSON number formatting.
/// Kept free of heap types so tests/ReportTest.cpp can check it alone.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile with the number of samples it was taken from. Value is
/// empty when N is below minSamplesFor(Q): with fewer samples the q-th
/// percentile would sit within ten samples of the maximum.
struct Percentile {
  std::optional<double> Value;
  uint64_t N = 0;
};

/// The fewest samples that leave at least ten beyond percentile \p Q
/// (0 < Q < 1): ceil(10 / (1 - Q)). 20 for the median, 1000 for p99.
uint64_t minSamplesFor(double Q);

/// Nearest-rank percentile of \p Xs (unsorted; taken by value and sorted).
Percentile percentile(std::vector<double> Xs, double Q);

/// The median over groups (repetitions of one measurement) of each
/// group's percentile \p Q. Empty unless every group has enough samples;
/// N counts all of them.
Percentile medianOfPercentiles(const std::vector<std::vector<double>> &Groups,
                               double Q);

/// Median of \p Xs, or 0 for an empty list.
double median(std::vector<double> Xs);

/// Geometric mean of \p Xs; empty when the list is empty or holds a value
/// that is not positive (a zero rate has no logarithm).
std::optional<double> geomean(const std::vector<double> &Xs);

/// One rung of an open-loop rate ladder, as measured.
struct Rung {
  double OfferedRps = 0;  ///< The fixed rate the generators sent at.
  double AchievedRps = 0; ///< Completed requests / rung wall seconds.
  uint64_t Scheduled = 0;
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  Percentile LatencyP99Us; ///< Due time to completion.
  /// Median queue wait (due to start) over the first and the last
  /// quarter of the rung's requests, in due-time order.
  double QueueWaitFirstQuarterUs = 0;
  double QueueWaitLastQuarterUs = 0;
};

/// A rung passes when every scheduled request completed, none failed, its
/// p99 latency is measured and within \p LimitUs, and the queue did not
/// grow: the last quarter's median wait exceeds the first quarter's by at
/// most a tenth of the limit.
bool rungPasses(const Rung &R, double LimitUs);

/// Achieved rate of the highest rung that passes, scanning the ascending
/// ladder up to the first rung that fails; empty when none passes.
std::optional<double> maxPassingRate(const std::vector<Rung> &Ladder,
                                     double LimitUs);

/// A closed interval of time in one recorded trace.
struct Span {
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 for a root span.
  uint64_t Group = 0;  ///< Spans of one request share this id.
  uint32_t Name = 0;   ///< Index into the recorder's name table.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// Self time of every span, in input order: its duration minus the part
/// of it that the union of its direct children covers.
std::vector<int64_t> selfTimes(const std::vector<Span> &Spans);

/// Formats \p V as a JSON number with every digit a double carries, or
/// "null" when it is empty or not finite.
std::string jsonNumber(std::optional<double> V);

/// Quotes \p S as a JSON string.
std::string jsonString(const std::string &S);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
