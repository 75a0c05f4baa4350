//===- perfbench/src/Bench.h - Shared benchmark plumbing ---------*- C++ -*-===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: run options, the pinned heap
/// configuration, the tracer attachment for one cell, per-collector layer
/// tallies and the metrics computed from them, and the operation ledger
/// behind `attempted`, `failed` and `correct`.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Report.h"
#include "Spans.h"

#include "gc/CollectorFactory.h"
#include "observe/GcTracer.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Stop after set-up and report only its time.
  bool SetupOnly = false;
  /// Wall-clock (CLOCK_REALTIME) nanoseconds at which the launcher started
  /// this process; 0 when unknown, in which case set-up is timed from main.
  int64_t LaunchEpochNs = 0;
  /// Steady-clock nanoseconds at entry to main.
  int64_t MainStartNs = 0;
  std::string Commit = "unknown";
  std::string SourceDigest = "unknown";
  /// Directory the traced run writes its spans into.
  std::string TraceDir = ".";
};

/// The six collectors, in report order.
const std::vector<std::string> &allCollectors();

/// The collectors the server workload runs.
const std::vector<std::string> &serverCollectors();

/// Builds a heap with every knob the environment could otherwise set
/// pinned through the public API: SSB remembered set, side-bitmap marking,
/// \p GcThreads scavenger workers (0 = serial) and \p BudgetUs incremental
/// slice budget (0 = stop-the-world).
std::unique_ptr<rdgc::Heap> makePinnedHeap(const std::string &Collector,
                                           rdgc::CollectorSizing Sizing,
                                           unsigned GcThreads = 0,
                                           uint64_t BudgetUs = 0);

/// Recovery-ladder and degraded-cycle events a heap has counted.
uint64_t recoveryEvents(const rdgc::GcStats &S);

/// Per-collector tallies behind the per-layer metrics.
struct LayerTotals {
  double AllocSelfNs = 0;
  uint64_t AllocObjects = 0;
  double BarrierSelfNs = 0;
  uint64_t BarrierStores = 0;
  uint64_t BarrierHits = 0;
  uint64_t RemsetInserts = 0;
  double GcSeconds = 0;
  double WallSeconds = 0;
  uint64_t Collections = 0;
  uint64_t Slices = 0;
  uint64_t Recovery = 0;
  uint64_t PhaseNanos[rdgc::GcPhaseCount] = {};
  uint64_t WordsTraced = 0;
  uint64_t CardsScanned = 0;
  uint64_t CardsDirty = 0;
  uint64_t WorkerBusyNanos = 0;
  uint64_t WorkerIdleNanos = 0;
  uint64_t Steals = 0;
  uint64_t StealFails = 0;
  uint64_t PlabWasteWords = 0;
  uint64_t WordsCopied = 0;
  uint64_t Rendezvous = 0;
  std::vector<double> QueueWaitUs;
  std::vector<double> ServiceUs;
  std::vector<double> LateUs;

  void add(const LayerTotals &O);
};

/// The ledger of operations (cells, requests) and failed checks. Every
/// failed check fails the operation it belongs to, so `failed / attempted`
/// is the error rate and any failure makes the run incorrect.
class Ledger {
public:
  void attempt(uint64_t N = 1) { Attempted += N; }
  /// Records that one operation failed, keeping the first reasons.
  void fail(const std::string &Why, uint64_t N = 1);
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }
  const std::vector<std::string> &reasons() const { return Reasons; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Reasons;
};

/// Attaches a tracer to one heap for as long as it lives. Every pause the
/// tracer feeds its histogram is also kept here exactly, so percentiles
/// need no bucketing. In a traced run the tracer also keeps every event
/// in a MemoryTraceSink, and each collection or slice becomes a span on
/// the recorder of the thread that ran it.
class CellTracer final : public rdgc::TraceSink {
public:
  /// \p QuantumBytes > 0 also times every QuantumBytes of allocation
  /// (the tracer's occupancy interval) as one closed-loop request.
  CellTracer(rdgc::Heap &H, bool Traced, uint64_t QuantumBytes = 0);
  ~CellTracer() override;
  CellTracer(const CellTracer &) = delete;
  CellTracer &operator=(const CellTracer &) = delete;

  void onEvent(const rdgc::GcTraceEvent &E) override;

  /// Pause lengths in microseconds, in the order they happened.
  const std::vector<double> &pausesUs() const { return PausesUs; }
  /// Wall time of each complete allocation quantum, in microseconds.
  const std::vector<double> &quantaUs() const { return QuantaUs; }

  /// Folds the traced events and \p H's counters into \p L and checks the
  /// tracer against GcStats: one collection event per recorded collection,
  /// and no collection whose phase times add up to more than its total.
  /// \p StatsBaseCollections is GcStats::collections() when tracing began.
  /// Returns what disagreed, or an empty string.
  std::string fold(LayerTotals &L, uint64_t StatsBaseCollections);

private:
  rdgc::Heap &H;
  bool Traced;
  rdgc::GcTracer Tracer;
  rdgc::MemoryTraceSink Events;
  std::vector<double> PausesUs;
  std::vector<double> QuantaUs;
  int64_t LastQuantumNs = 0;
};

struct Metric {
  std::string Name;
  std::optional<double> Value;
  std::string Unit;
  uint64_t N = 0; ///< Samples behind the value (operations, pauses, ...).
};

/// Name and unit of every per-layer metric, in output order.
std::vector<std::pair<std::string, std::string>> perLayerMetricNames();

/// Name and unit of every end-to-end metric of the result line, in output
/// order. The report line also carries req_p50_us, pause_p99_us and
/// req_p99_us: on a shared 4-core host their run-to-run spread on `server`
/// is several times any bound a regression gate could use, so they are
/// reported, not gated.
std::vector<std::pair<std::string, std::string>> endToEndMetricNames();

/// The per-layer metrics from per-collector tallies.
std::vector<Metric> layerMetrics(const std::map<std::string, LayerTotals> &ByCollector,
                                 double TraceOverheadFrac);

/// What one workload run produced.
struct RunResult {
  Ledger Book;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Extra JSON members for the report line (workload-specific detail).
  std::string DetailJson = "{}";
  /// Set-up seconds from launch (or main) to the first timed operation.
  double SetupSeconds = 0;
};

/// What a closed-loop workload (`paper`, `alloc`) accumulates: a fixed set
/// of cells, each run once per round.
struct ClosedLoop {
  explicit ClosedLoop(size_t Cells)
      : CellBytes(Cells), CellWallNs(Cells), CellQuantaUs(Cells) {}

  /// Records one run of cell \p Cell: its timed part allocated \p Words,
  /// traced \p Traced words and took \p WallNs, with \p T attached.
  void record(size_t Cell, const CellTracer &T, uint64_t Words,
              uint64_t Traced, int64_t WallNs);

  /// MB allocated per wall second of each cell over all its runs.
  std::vector<double> cellMbS() const;

  std::vector<uint64_t> CellBytes;
  std::vector<int64_t> CellWallNs;
  uint64_t WordsTraced = 0;
  uint64_t WordsAllocated = 0;
  std::vector<double> PausesUs;
  std::vector<std::vector<double>> CellQuantaUs;
  std::map<std::string, LayerTotals> Layers;
  uint64_t Rounds = 0;
  /// MB/s of each untraced and each traced round after the first.
  std::vector<double> PlainMbS, TracedMbS;
};

/// Runs rounds until \p O.Seconds have passed: each round runs every cell
/// once through \p RunCell(Cell, Traced), in an order drawn from the seed.
/// A traced run traces the odd rounds and runs at least three, so the
/// untraced ones after the first give the tracing overhead.
void runRounds(const Options &O, ClosedLoop &L,
               const std::function<void(size_t, bool)> &RunCell);

/// Fills \p R's end-to-end metrics from \p L and, in a traced run, its
/// per-layer ones. A closed-loop request is one allocation quantum
/// (config::QuantumBytes): its latency is the time the mutator took to
/// allocate it, pauses included, and max_rate_rps is quanta per second.
/// req_p50_us is the geometric mean over cells of each cell's median, as
/// throughput_mb_s is over cells: pooled, the median would fall between
/// the fast and the slow collectors' quanta and jump with their mix.
void closedLoopMetrics(const Options &O, const ClosedLoop &L, RunResult &R);

/// Marks the end of set-up; returns seconds since launch (or main).
double setupSecondsNow(const Options &O);

RunResult runPaper(const Options &O);
RunResult runAlloc(const Options &O);
RunResult runServer(const Options &O);

inline double secondsBetween(int64_t StartNs, int64_t EndNs) {
  return static_cast<double>(EndNs - StartNs) / 1e9;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
