//===- perfbench/src/Bench.cpp - Shared benchmark plumbing -----------------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Random.h"

#include <chrono>
#include <numeric>

using namespace perfbench;
using namespace rdgc;

const std::vector<std::string> &perfbench::allCollectors() {
  static const std::vector<std::string> Names = {
      "stop-and-copy",  "mark-sweep",     "mark-compact",
      "generational",   "non-predictive", "non-predictive-hybrid"};
  return Names;
}

const std::vector<std::string> &perfbench::serverCollectors() {
  static const std::vector<std::string> Names = {
      "generational", "non-predictive-hybrid", "mark-sweep"};
  return Names;
}

std::unique_ptr<Heap> perfbench::makePinnedHeap(const std::string &Collector,
                                                CollectorSizing Sizing,
                                                unsigned GcThreads,
                                                uint64_t BudgetUs) {
  Sizing.Remset = "ssb";
  Sizing.BitmapMarking = true;
  auto H = makeHeap(collectorKindFromName(Collector), Sizing);
  H->collector().setGcThreads(GcThreads);
  H->setIncrementalBudgetMicros(BudgetUs);
  return H;
}

uint64_t perfbench::recoveryEvents(const GcStats &S) {
  return S.emergencyFullCollections() + S.heapGrowths() +
         S.heapExhaustions() + S.evacuationFailures();
}

void LayerTotals::add(const LayerTotals &O) {
  AllocSelfNs += O.AllocSelfNs;
  AllocObjects += O.AllocObjects;
  BarrierSelfNs += O.BarrierSelfNs;
  BarrierStores += O.BarrierStores;
  BarrierHits += O.BarrierHits;
  RemsetInserts += O.RemsetInserts;
  GcSeconds += O.GcSeconds;
  WallSeconds += O.WallSeconds;
  Collections += O.Collections;
  Slices += O.Slices;
  Recovery += O.Recovery;
  for (unsigned I = 0; I < GcPhaseCount; ++I)
    PhaseNanos[I] += O.PhaseNanos[I];
  WordsTraced += O.WordsTraced;
  CardsScanned += O.CardsScanned;
  CardsDirty += O.CardsDirty;
  WorkerBusyNanos += O.WorkerBusyNanos;
  WorkerIdleNanos += O.WorkerIdleNanos;
  Steals += O.Steals;
  StealFails += O.StealFails;
  PlabWasteWords += O.PlabWasteWords;
  WordsCopied += O.WordsCopied;
  Rendezvous += O.Rendezvous;
  QueueWaitUs.insert(QueueWaitUs.end(), O.QueueWaitUs.begin(),
                     O.QueueWaitUs.end());
  ServiceUs.insert(ServiceUs.end(), O.ServiceUs.begin(), O.ServiceUs.end());
  LateUs.insert(LateUs.end(), O.LateUs.begin(), O.LateUs.end());
}

void Ledger::fail(const std::string &Why, uint64_t N) {
  Failed += N;
  if (Reasons.size() < 20)
    Reasons.push_back(Why);
}

CellTracer::CellTracer(Heap &H, bool Traced, uint64_t QuantumBytes)
    : H(H), Traced(Traced) {
  Tracer.addSink(this);
  if (Traced)
    Tracer.addSink(&Events);
  // Without a quantum, push the occupancy samples out of reach.
  Tracer.setOccupancyIntervalBytes(QuantumBytes ? QuantumBytes : UINT64_MAX / 2);
  H.setTracer(&Tracer);
}

CellTracer::~CellTracer() { H.setTracer(nullptr); }

void CellTracer::onEvent(const GcTraceEvent &E) {
  uint64_t PauseNanos = 0;
  SpanName Name = SpanName::Collection;
  if (E.EventType == GcTraceEvent::Type::Occupancy) {
    int64_t Now = nowNs();
    if (LastQuantumNs)
      QuantaUs.push_back(static_cast<double>(Now - LastQuantumNs) / 1e3);
    LastQuantumNs = Now;
    return;
  }
  if (E.EventType == GcTraceEvent::Type::Collection && E.Slices == 0) {
    PauseNanos = E.TotalNanos;
  } else if (E.EventType == GcTraceEvent::Type::Slice) {
    PauseNanos = E.PauseNanos;
    Name = SpanName::Slice;
  } else {
    return;
  }
  PausesUs.push_back(static_cast<double>(PauseNanos) / 1e3);
  if (SpanRecorder *R = SpanRecorder::current()) {
    int64_t End = nowNs();
    R->add(Name, End - static_cast<int64_t>(PauseNanos), End);
  }
}

std::string CellTracer::fold(LayerTotals &L, uint64_t StatsBaseCollections) {
  std::string Problem;
  const GcStats &S = H.stats();
  L.BarrierHits += S.barrierHits();
  L.RemsetInserts += S.rememberedSetInserts();
  L.Recovery += recoveryEvents(S);
  uint64_t CollectionEvents = 0;
  for (const GcTraceEvent &E : Events.events()) {
    if (E.EventType == GcTraceEvent::Type::Slice) {
      ++L.Slices;
      continue;
    }
    if (E.EventType != GcTraceEvent::Type::Collection)
      continue;
    ++CollectionEvents;
    if (E.Phases.sumNanos() > E.TotalNanos)
      Problem = "collection phase times exceed the collection total";
    for (unsigned I = 0; I < GcPhaseCount; ++I)
      L.PhaseNanos[I] += E.Phases.Nanos[I];
    L.WordsTraced += E.WordsTraced;
    L.CardsScanned += E.CardsScanned;
    L.CardsDirty += E.CardsDirty;
    for (const GcWorkerCycleStats &W : E.Workers) {
      L.WorkerBusyNanos += W.RootScanNanos + W.TraceNanos;
      L.WorkerIdleNanos += W.IdleNanos;
      L.Steals += W.Steals;
      L.StealFails += W.StealFails;
      L.PlabWasteWords += W.PlabWasteWords;
      L.WordsCopied += W.WordsCopied;
    }
  }
  L.Collections += CollectionEvents;
  if (Traced && CollectionEvents != S.collections() - StatsBaseCollections)
    Problem = "collection events disagree with GcStats::collections()";
  Events.clear();
  return Problem;
}

namespace {

struct LayerMetricDef {
  const char *Name;
  const char *Unit;
  /// Which collectors get a `<name>.<collector>` breakdown.
  enum { All, Parallel, Server, None } Breakdown;
};

// The parallel scavenger runs only where the server workload gives the
// copying collectors GC workers; the server layers run only in `server`.
// Breaking those out for collectors that never use them would only add
// zeros, so they are broken out for the collectors that do.
const LayerMetricDef LayerDefs[] = {
    {"heap.alloc_ns", "ns", LayerMetricDef::All},
    {"heap.barrier_ns", "ns", LayerMetricDef::All},
    {"heap.barrier_hits", "count", LayerMetricDef::All},
    {"heap.remset_inserts", "count", LayerMetricDef::All},
    {"gc.share", "ratio", LayerMetricDef::All},
    {"gc.collections", "count", LayerMetricDef::All},
    {"gc.root_scan_ms", "ms", LayerMetricDef::All},
    {"gc.remset_scan_ms", "ms", LayerMetricDef::All},
    {"gc.trace_ms", "ms", LayerMetricDef::All},
    {"gc.sweep_ms", "ms", LayerMetricDef::All},
    {"gc.trace_mb_s", "MB/s", LayerMetricDef::All},
    {"gc.cards_dirty_frac", "ratio", LayerMetricDef::All},
    {"gc.recovery", "count", LayerMetricDef::All},
    {"gc.slices", "count", LayerMetricDef::All},
    {"parallel.idle_frac", "ratio", LayerMetricDef::Parallel},
    {"parallel.steal_ok_frac", "ratio", LayerMetricDef::Parallel},
    {"parallel.plab_waste_frac", "ratio", LayerMetricDef::Parallel},
    {"server.rendezvous", "count", LayerMetricDef::Server},
    {"server.rendezvous_per_gc", "ratio", LayerMetricDef::Server},
    {"server.queue_wait_p99_us", "us", LayerMetricDef::Server},
    {"server.service_p99_us", "us", LayerMetricDef::Server},
    {"gen.late_p99_us", "us", LayerMetricDef::Server},
    {"trace.overhead_frac", "ratio", LayerMetricDef::None},
};

std::vector<std::string> breakdownFor(const LayerMetricDef &D) {
  switch (D.Breakdown) {
  case LayerMetricDef::All:
    return allCollectors();
  case LayerMetricDef::Parallel:
    return {"generational", "non-predictive-hybrid"};
  case LayerMetricDef::Server:
    return serverCollectors();
  case LayerMetricDef::None:
    break;
  }
  return {};
}

/// A / B, reading 0 when the layer did no work (B == 0).
double ratio(double A, double B) { return B > 0 ? A / B : 0.0; }

/// p99 of \p Xs; 0 with no samples (the layer did not run), empty when
/// there are samples but too few for a p99.
Metric p99Metric(const std::vector<double> &Xs) {
  Metric M;
  Percentile P = percentile(Xs, 0.99);
  M.N = P.N;
  M.Value = P.N == 0 ? std::optional<double>(0.0) : P.Value;
  return M;
}

Metric layerValue(const std::string &Name, const LayerTotals &T) {
  Metric M;
  auto Set = [&M](double V, uint64_t N) {
    M.Value = V;
    M.N = N;
  };
  const double TraceSweepNs =
      static_cast<double>(T.PhaseNanos[unsigned(GcPhase::Trace)] +
                          T.PhaseNanos[unsigned(GcPhase::Sweep)]);
  if (Name == "heap.alloc_ns")
    Set(ratio(T.AllocSelfNs, double(T.AllocObjects)), T.AllocObjects);
  else if (Name == "heap.barrier_ns")
    Set(ratio(T.BarrierSelfNs, double(T.BarrierStores)), T.BarrierStores);
  else if (Name == "heap.barrier_hits")
    Set(double(T.BarrierHits), 1);
  else if (Name == "heap.remset_inserts")
    Set(double(T.RemsetInserts), 1);
  else if (Name == "gc.share")
    Set(ratio(T.GcSeconds, T.WallSeconds), 1);
  else if (Name == "gc.collections")
    Set(double(T.Collections), 1);
  else if (Name == "gc.root_scan_ms")
    Set(T.PhaseNanos[unsigned(GcPhase::RootScan)] / 1e6, T.Collections);
  else if (Name == "gc.remset_scan_ms")
    Set(T.PhaseNanos[unsigned(GcPhase::RemsetScan)] / 1e6, T.Collections);
  else if (Name == "gc.trace_ms")
    Set(T.PhaseNanos[unsigned(GcPhase::Trace)] / 1e6, T.Collections);
  else if (Name == "gc.sweep_ms")
    Set(T.PhaseNanos[unsigned(GcPhase::Sweep)] / 1e6, T.Collections);
  else if (Name == "gc.trace_mb_s")
    Set(ratio(T.WordsTraced * 8.0 / 1e6, TraceSweepNs / 1e9), T.Collections);
  else if (Name == "gc.cards_dirty_frac")
    Set(ratio(double(T.CardsDirty), double(T.CardsScanned)), T.CardsScanned);
  else if (Name == "gc.recovery")
    Set(double(T.Recovery), 1);
  else if (Name == "gc.slices")
    Set(double(T.Slices), 1);
  else if (Name == "parallel.idle_frac")
    Set(ratio(double(T.WorkerIdleNanos),
              double(T.WorkerIdleNanos + T.WorkerBusyNanos)),
        T.Collections);
  else if (Name == "parallel.steal_ok_frac")
    Set(ratio(double(T.Steals), double(T.Steals + T.StealFails)),
        T.Steals + T.StealFails);
  else if (Name == "parallel.plab_waste_frac")
    Set(ratio(double(T.PlabWasteWords),
              double(T.PlabWasteWords + T.WordsCopied)),
        T.Collections);
  else if (Name == "server.rendezvous")
    Set(double(T.Rendezvous), 1);
  else if (Name == "server.rendezvous_per_gc")
    Set(ratio(double(T.Rendezvous), double(T.Collections + T.Slices)),
        T.Collections + T.Slices);
  else if (Name == "server.queue_wait_p99_us")
    M = p99Metric(T.QueueWaitUs);
  else if (Name == "server.service_p99_us")
    M = p99Metric(T.ServiceUs);
  else if (Name == "gen.late_p99_us")
    M = p99Metric(T.LateUs);
  return M;
}

} // namespace

std::vector<std::pair<std::string, std::string>>
perfbench::perLayerMetricNames() {
  std::vector<std::pair<std::string, std::string>> Out;
  for (const LayerMetricDef &D : LayerDefs)
    Out.emplace_back(D.Name, D.Unit);
  for (const LayerMetricDef &D : LayerDefs)
    for (const std::string &C : breakdownFor(D))
      Out.emplace_back(std::string(D.Name) + "." + C, D.Unit);
  return Out;
}

std::vector<std::pair<std::string, std::string>>
perfbench::endToEndMetricNames() {
  return {{"setup_s", "s"},          {"throughput_mb_s", "MB/s"},
          {"pause_p50_us", "us"},    {"mark_cons", "ratio"},
          {"max_rate_rps", "1/s"},   {"peak_rss_mb", "MB"}};
}

std::vector<Metric>
perfbench::layerMetrics(const std::map<std::string, LayerTotals> &ByCollector,
                        double TraceOverheadFrac) {
  LayerTotals All;
  for (const auto &[Name, T] : ByCollector)
    All.add(T);
  static const LayerTotals Empty;
  std::vector<Metric> Out;
  auto Emit = [&Out](const std::string &Name, const char *Unit, Metric M) {
    M.Name = Name;
    M.Unit = Unit;
    Out.push_back(std::move(M));
  };
  for (const LayerMetricDef &D : LayerDefs) {
    if (std::string(D.Name) == "trace.overhead_frac") {
      Metric M;
      M.Value = TraceOverheadFrac;
      M.N = 1;
      Emit(D.Name, D.Unit, M);
      continue;
    }
    Emit(D.Name, D.Unit, layerValue(D.Name, All));
  }
  for (const LayerMetricDef &D : LayerDefs)
    for (const std::string &C : breakdownFor(D)) {
      auto It = ByCollector.find(C);
      Emit(std::string(D.Name) + "." + C, D.Unit,
           layerValue(D.Name, It == ByCollector.end() ? Empty : It->second));
    }
  return Out;
}

void ClosedLoop::record(size_t Cell, const CellTracer &T, uint64_t Words,
                        uint64_t Traced, int64_t WallNs) {
  CellBytes[Cell] += Words * 8;
  CellWallNs[Cell] += WallNs;
  WordsAllocated += Words;
  WordsTraced += Traced;
  PausesUs.insert(PausesUs.end(), T.pausesUs().begin(), T.pausesUs().end());
  CellQuantaUs[Cell].insert(CellQuantaUs[Cell].end(), T.quantaUs().begin(),
                            T.quantaUs().end());
}

std::vector<double> ClosedLoop::cellMbS() const {
  std::vector<double> Out;
  for (size_t I = 0; I < CellBytes.size(); ++I)
    Out.push_back(CellBytes[I] / 1e6 / (CellWallNs[I] / 1e9));
  return Out;
}

void perfbench::runRounds(const Options &O, ClosedLoop &L,
                          const std::function<void(size_t, bool)> &RunCell) {
  rdgc::Xoshiro256 Rng(rdgc::SplitMix64(O.Seed).next());
  const int64_t Deadline = nowNs() + static_cast<int64_t>(O.Seconds * 1e9);
  auto Sum = [](const auto &Xs) {
    return std::accumulate(Xs.begin(), Xs.end(), static_cast<int64_t>(0));
  };
  do {
    const bool Traced = O.Trace && L.Rounds % 2 == 1;
    std::vector<size_t> Order(L.CellBytes.size());
    std::iota(Order.begin(), Order.end(), 0);
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
    const int64_t BytesBefore = Sum(L.CellBytes);
    const int64_t WallBefore = Sum(L.CellWallNs);
    for (size_t I : Order)
      RunCell(I, Traced);
    const double MbS = (Sum(L.CellBytes) - BytesBefore) / 1e6 /
                       ((Sum(L.CellWallNs) - WallBefore) / 1e9);
    if (L.Rounds > 0) // Round 0 warms caches and the allocator up.
      (Traced ? L.TracedMbS : L.PlainMbS).push_back(MbS);
    ++L.Rounds;
  } while (nowNs() < Deadline || (O.Trace && L.Rounds < 3));
}

void perfbench::closedLoopMetrics(const Options &O, const ClosedLoop &L,
                                  RunResult &R) {
  const std::vector<double> CellMbS = L.cellMbS();
  std::vector<double> Quanta, CellQ50s;
  bool EveryCellQ50 = true;
  for (const std::vector<double> &Cell : L.CellQuantaUs) {
    Quanta.insert(Quanta.end(), Cell.begin(), Cell.end());
    if (std::optional<double> Q50 = percentile(Cell, 0.5).Value)
      CellQ50s.push_back(*Q50);
    else
      EveryCellQ50 = false;
  }
  Percentile Q99 = percentile(Quanta, 0.99);
  Percentile P50 = percentile(L.PausesUs, 0.5);
  Percentile P99 = percentile(L.PausesUs, 0.99);
  const double QuantaSeconds =
      std::accumulate(Quanta.begin(), Quanta.end(), 0.0) / 1e6;
  auto Ratio = [](double A, double B) {
    return B > 0 ? std::optional<double>(A / B) : std::nullopt;
  };
  R.EndToEnd = {
      {"throughput_mb_s", geomean(CellMbS), "MB/s", CellMbS.size()},
      {"pause_p50_us", P50.Value, "us", P50.N},
      {"pause_p99_us", P99.Value, "us", P99.N},
      {"mark_cons", Ratio(double(L.WordsTraced), double(L.WordsAllocated)),
       "ratio", R.Book.attempted()},
      {"req_p50_us", EveryCellQ50 ? geomean(CellQ50s) : std::nullopt, "us",
       Quanta.size()},
      {"req_p99_us", Q99.Value, "us", Q99.N},
      {"max_rate_rps", Ratio(double(Quanta.size()), QuantaSeconds), "1/s",
       Quanta.size()},
  };
  if (O.Trace) {
    double Overhead = 0;
    if (auto Plain = geomean(L.PlainMbS), Traced = geomean(L.TracedMbS);
        Plain && Traced)
      Overhead = 1.0 - *Traced / *Plain;
    R.PerLayer = layerMetrics(L.Layers, Overhead);
  }
}

double perfbench::setupSecondsNow(const Options &O) {
  if (O.LaunchEpochNs > 0) {
    int64_t Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
    return static_cast<double>(Now - O.LaunchEpochNs) / 1e9;
  }
  return static_cast<double>(nowNs() - O.MainStartNs) / 1e9;
}
