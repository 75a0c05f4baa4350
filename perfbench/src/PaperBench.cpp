//===- perfbench/src/PaperBench.cpp - The `paper` workload -----------------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Closed loop, one mutator, shipped defaults (serial GC, SSB barrier,
// stop-the-world). Rounds of cells run until the time is up; a cell is one
// Table-2 program, or the radioactive-decay mutator, under one collector
// at the program's fixed heap size. Each round runs every cell once in an
// order drawn from the seed. Root/remset scan, trace and sweep do most of
// the collector's work here; the server and parallel layers do none.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Config.h"

#include "lifetime/LifetimeModel.h"
#include "lifetime/MutatorDriver.h"
#include "model/DecayModel.h"
#include "model/NonPredictiveModel.h"
#include "support/Random.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;
using namespace rdgc;

namespace {

constexpr const char *DecayProgram = "decay";

struct Cell {
  size_t Program; ///< Index into the program list; the last is decay.
  std::string Collector;
  size_t HeapBytes;
};

size_t heapBytesFor(const std::string &Program) {
  for (const config::ProgramHeap &P : config::PaperHeaps)
    if (Program == P.Program)
      return P.Bytes;
  return 0;
}

/// The decay cell's inverse load: heap bytes over the model's equilibrium
/// live bytes of 3-word objects.
double decayInverseLoad() {
  return static_cast<double>(heapBytesFor(DecayProgram)) /
         (DecayModel(config::DecayHalfLife).equilibriumLiveExact() * 24.0);
}

/// Mark/cons the model predicts for \p Collector on the decay cell, or
/// nothing where the model makes no prediction at this configuration.
std::optional<double> decayPrediction(const std::string &Collector) {
  NonPredictiveModel Model(decayInverseLoad());
  if (Collector == "stop-and-copy" || Collector == "mark-sweep")
    return Model.nonGenerationalMarkCons();
  double G = static_cast<double>(config::DecayFixedJ) / config::DecaySteps;
  if (Collector == "non-predictive" && Model.theorem4Applies(G))
    return Model.theorem4MarkCons(G);
  return std::nullopt;
}

class PaperRunner {
public:
  PaperRunner(const Options &O, RunResult &R) : O(O), R(R) {}

  /// Builds the programs and cells. Returns false on a configuration error.
  bool setUp();
  void runCell(size_t I, bool Traced);
  std::string detailJson() const;

  std::vector<Cell> Cells;
  ClosedLoop Loop{0};
  SpanRecorder Recorder{0};

private:
  const Options &O;
  RunResult &R;
  std::vector<std::unique_ptr<Workload>> Programs;
  std::vector<std::string> ProgramNames;
  uint64_t DecaySeed = 0;
  std::map<std::string, std::string> ResultOf;  ///< Program -> first result.
  std::map<std::string, double> DecayMarkCons; ///< Collector -> last value.
};

bool PaperRunner::setUp() {
  Programs = makePaperWorkloads(config::PaperScale);
  for (const auto &W : Programs)
    ProgramNames.push_back(W->name());
  ProgramNames.push_back(DecayProgram);
  for (size_t P = 0; P < ProgramNames.size(); ++P) {
    size_t Bytes = heapBytesFor(ProgramNames[P]);
    if (Bytes == 0) {
      R.Book.fail("no heap size configured for " + ProgramNames[P]);
      return false;
    }
    for (const std::string &C : allCollectors())
      Cells.push_back(Cell{P, C, Bytes});
  }
  Loop = ClosedLoop(Cells.size());
  DecaySeed = SplitMix64(O.Seed ^ 0xDECA7).next();
  return true;
}

void PaperRunner::runCell(size_t I, bool Traced) {
  const Cell &C = Cells[I];
  const std::string &Program = ProgramNames[C.Program];
  const bool IsDecay = Program == DecayProgram;
  CollectorSizing Sizing;
  Sizing.PrimaryBytes = C.HeapBytes;
  Sizing.NurseryBytes = C.HeapBytes / config::NurseryDivisor;
  if (IsDecay) {
    Sizing.StepCount = config::DecaySteps;
    Sizing.Policy = JSelectionPolicy::Fixed;
    Sizing.FixedJ = config::DecayFixedJ;
  }
  auto H = makePinnedHeap(C.Collector, Sizing);
  bool Exhausted = false;
  H->setFaultHandler([&Exhausted](HeapFault, const char *) { Exhausted = true; });

  std::optional<MutatorDriver> Driver;
  RadioactiveLifetime Model(config::DecayHalfLife);
  if (IsDecay) {
    // Warm up to the model's equilibrium untimed, then measure from zero.
    MutatorDriver::Config DC;
    DC.Seed = DecaySeed;
    Driver.emplace(*H, Model, DC);
    Driver->run(config::DecayWarmupUnits);
    H->stats().reset();
  }
  CellTracer Tracer(*H, Traced, config::QuantumBytes);
  ScopedRecorder Scope(Traced ? &Recorder : nullptr);

  std::string Result;
  bool Valid = true;
  int64_t Start = 0, End = 0;
  {
    ScopedSpan Span(SpanName::Cell);
    Start = nowNs();
    if (IsDecay) {
      Driver->run(config::DecayMeasureUnits);
      Result = "live objects " + std::to_string(Driver->liveObjects()) +
               " at unit " + std::to_string(Driver->now());
    } else {
      WorkloadOutcome Out = Programs[C.Program]->run(*H);
      Valid = Out.Valid;
      Result = Out.Detail + " / units " + std::to_string(Out.UnitsOfWork);
    }
    End = nowNs();
  }
  const GcStats &S = H->stats();
  Loop.record(I, Tracer, S.wordsAllocated(), S.wordsTraced(), End - Start);

  // Every failed check fails this cell run, once.
  std::string Problem;
  auto Check = [&Problem](bool Ok, const std::string &Why) {
    if (!Ok && Problem.empty())
      Problem = Why;
  };
  Check(Valid, "self-validation failed");
  Check(!Exhausted && H->lastFault() == HeapFault::None, "heap exhausted");
  auto [It, Inserted] = ResultOf.emplace(Program, Result);
  Check(Inserted || It->second == Result,
        "result differs from another collector's: " + Result + " vs " +
            It->second);
  Check(S.collections() >= config::MinCollectionsPerCell,
        "collected only " + std::to_string(S.collections()) + " times");
  if (IsDecay) {
    DecayMarkCons[C.Collector] = S.markConsRatio();
    if (std::optional<double> Want = decayPrediction(C.Collector))
      Check(std::fabs(S.markConsRatio() - *Want) <=
                config::DecayMarkConsTolerance * *Want,
            "decay mark/cons " + std::to_string(S.markConsRatio()) +
                " is more than 5% from the model's " + std::to_string(*Want));
  }
  if (Traced) {
    LayerTotals &L = Loop.Layers[C.Collector];
    L.WallSeconds += secondsBetween(Start, End);
    L.GcSeconds += S.gcSeconds();
    std::string Disagreement = Tracer.fold(L, 0);
    Check(Disagreement.empty(), Disagreement);
  }
  R.Book.attempt();
  if (!Problem.empty())
    R.Book.fail(Program + " on " + C.Collector + ": " + Problem);
}

std::string PaperRunner::detailJson() const {
  std::string Out = "{\"rounds\":" + std::to_string(Loop.Rounds) +
                    ",\"decay_inverse_load\":" +
                    jsonNumber(decayInverseLoad()) + ",\"decay_mark_cons\":{";
  const char *Sep = "";
  for (const auto &[Collector, MarkCons] : DecayMarkCons) {
    Out.append(Sep).append(jsonString(Collector));
    Out += ":{\"measured\":" + jsonNumber(MarkCons) +
           ",\"predicted\":" + jsonNumber(decayPrediction(Collector)) + "}";
    Sep = ",";
  }
  Out += "},\"cells\":[";
  const std::vector<double> MbS = Loop.cellMbS();
  for (size_t I = 0; I < Cells.size(); ++I)
    Out += std::string(I ? "," : "") + "{\"program\":" +
           jsonString(ProgramNames[Cells[I].Program]) +
           ",\"collector\":" + jsonString(Cells[I].Collector) +
           ",\"heap_bytes\":" + std::to_string(Cells[I].HeapBytes) +
           ",\"mb_s\":" + jsonNumber(MbS[I]) + "}";
  return Out + "]}";
}

} // namespace

RunResult perfbench::runPaper(const Options &O) {
  RunResult R;
  PaperRunner Runner(O, R);
  if (!Runner.setUp())
    return R;
  R.SetupSeconds = setupSecondsNow(O);
  if (O.SetupOnly)
    return R;
  runRounds(O, Runner.Loop,
            [&Runner](size_t I, bool Traced) { Runner.runCell(I, Traced); });
  closedLoopMetrics(O, Runner.Loop, R);
  R.DetailJson = Runner.detailJson();
  if (O.Trace)
    writeSpans(O.TraceDir + "/spans-paper.jsonl", Runner.Recorder.spans());
  return R;
}
