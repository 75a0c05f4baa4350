//===- perfbench/src/Report.cpp - Benchmark arithmetic ---------------------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <unordered_map>

using namespace perfbench;

uint64_t perfbench::minSamplesFor(double Q) {
  // The epsilon absorbs 1 - 0.99 != 0.01 in binary floating point.
  return static_cast<uint64_t>(std::ceil(10.0 / (1.0 - Q) - 1e-9));
}

Percentile perfbench::percentile(std::vector<double> Xs, double Q) {
  Percentile P;
  P.N = Xs.size();
  if (P.N == 0 || P.N < minSamplesFor(Q))
    return P;
  std::sort(Xs.begin(), Xs.end());
  uint64_t Rank =
      static_cast<uint64_t>(std::ceil(Q * static_cast<double>(P.N) - 1e-9));
  P.Value = Xs[std::clamp<uint64_t>(Rank, 1, P.N) - 1];
  return P;
}

Percentile
perfbench::medianOfPercentiles(const std::vector<std::vector<double>> &Groups,
                               double Q) {
  Percentile P;
  std::vector<double> PerGroup;
  bool AllMeasured = !Groups.empty();
  for (const std::vector<double> &G : Groups) {
    Percentile One = percentile(G, Q);
    P.N += One.N;
    if (One.Value)
      PerGroup.push_back(*One.Value);
    else
      AllMeasured = false;
  }
  if (AllMeasured)
    P.Value = median(PerGroup);
  return P;
}

double perfbench::median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0.0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : 0.5 * (Xs[N / 2 - 1] + Xs[N / 2]);
}

std::optional<double> perfbench::geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return std::nullopt;
  double LogSum = 0.0;
  for (double X : Xs) {
    if (!(X > 0.0) || !std::isfinite(X))
      return std::nullopt;
    LogSum += std::log(X);
  }
  return std::exp(LogSum / static_cast<double>(Xs.size()));
}

bool perfbench::rungPasses(const Rung &R, double LimitUs) {
  if (R.Failed != 0 || R.Completed != R.Scheduled || R.Scheduled == 0)
    return false;
  if (!R.LatencyP99Us.Value || *R.LatencyP99Us.Value > LimitUs)
    return false;
  return R.QueueWaitLastQuarterUs - R.QueueWaitFirstQuarterUs <=
         LimitUs / 10.0;
}

std::optional<double>
perfbench::maxPassingRate(const std::vector<Rung> &Ladder, double LimitUs) {
  std::optional<double> Best;
  for (const Rung &R : Ladder) {
    if (!rungPasses(R, LimitUs))
      break;
    Best = R.AchievedRps;
  }
  return Best;
}

std::vector<int64_t> perfbench::selfTimes(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      Children;
  for (const Span &S : Spans)
    if (S.Parent)
      Children[S.Parent].emplace_back(S.StartNs, S.EndNs);
  std::vector<int64_t> Self;
  Self.reserve(Spans.size());
  for (const Span &S : Spans) {
    int64_t Covered = 0;
    auto It = Children.find(S.Id);
    if (It != Children.end()) {
      auto &Kids = It->second;
      std::sort(Kids.begin(), Kids.end());
      // Sweep the children's union, clipped to the parent's interval.
      int64_t Cursor = S.StartNs;
      for (auto [Start, End] : Kids) {
        Start = std::max(Start, Cursor);
        End = std::min(End, S.EndNs);
        if (End > Start) {
          Covered += End - Start;
          Cursor = End;
        }
      }
    }
    Self.push_back(S.EndNs - S.StartNs - Covered);
  }
  return Self;
}

std::string perfbench::jsonNumber(std::optional<double> V) {
  if (!V || !std::isfinite(*V))
    return "null";
  char Buf[32];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), *V);
  if (Ec != std::errc())
    return "null";
  return std::string(Buf, End);
}

std::string perfbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Esc[8];
      std::snprintf(Esc, sizeof(Esc), "\\u%04x", C);
      Out += Esc;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}
