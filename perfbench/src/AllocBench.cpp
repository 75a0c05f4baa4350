//===- perfbench/src/AllocBench.cpp - The `alloc` workload -----------------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Closed loop, one mutator, shipped defaults. Tight pair, cell, flonum and
// 8-slot vector allocation, and old-to-young stores through the write
// barrier, under all six collectors in roomy heaps that retain almost
// nothing. The inline fast path and the barrier do most of the work and
// the collector barely runs — the opposite of `paper`. Every operation
// stores a value drawn from the seed and reads it back, so the run checks
// what it allocated.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Config.h"

#include "heap/RootStack.h"
#include "support/Random.h"

using namespace perfbench;
using namespace rdgc;

namespace {

enum class Kind { Pairs, Cells, Flonums, Vector8, Barrier };
constexpr Kind Kinds[] = {Kind::Pairs, Kind::Cells, Kind::Flonums,
                          Kind::Vector8, Kind::Barrier};
const char *kindName(Kind K) {
  switch (K) {
  case Kind::Pairs:
    return "pairs";
  case Kind::Cells:
    return "cells";
  case Kind::Flonums:
    return "flonums";
  case Kind::Vector8:
    return "vector8";
  case Kind::Barrier:
    return "barrier";
  }
  return "?";
}

/// The generated inputs: one value per operation and, for the barrier
/// cell, the slot each store targets.
struct Inputs {
  std::vector<int64_t> Values;
  std::vector<uint16_t> Slots;
  int64_t ValueSum = 0;
  /// Value the barrier cell's slot holds after the last store to it.
  std::vector<int64_t> LastStored;
};

Inputs makeInputs(uint64_t Seed) {
  Inputs In;
  const uint64_t Ops = config::AllocBatchOps * config::AllocBatchesPerCell;
  Xoshiro256 Rng(Seed);
  In.Values.resize(Ops);
  In.Slots.resize(Ops);
  In.LastStored.assign(config::BarrierTargetSlots, -1);
  for (uint64_t I = 0; I < Ops; ++I) {
    In.Values[I] = static_cast<int64_t>(Rng.nextBelow(1 << 20));
    In.Slots[I] =
        static_cast<uint16_t>(Rng.nextBelow(config::BarrierTargetSlots));
    In.ValueSum += In.Values[I];
    In.LastStored[In.Slots[I]] = In.Values[I];
  }
  return In;
}

struct Cell {
  Kind K;
  std::string Collector;
};

/// Runs cell \p I; returns what went wrong, or an empty string.
std::string runCell(size_t I, const Cell &C, const Inputs &In, bool Traced,
                    SpanRecorder &Recorder, ClosedLoop &Loop) {
  CollectorSizing Sizing;
  Sizing.PrimaryBytes = config::AllocHeapBytes;
  Sizing.NurseryBytes = config::AllocNurseryBytes;
  auto H = makePinnedHeap(C.Collector, Sizing);
  bool Exhausted = false;
  H->setFaultHandler([&Exhausted](HeapFault, const char *) { Exhausted = true; });

  // The barrier cell's tenured target and its rooted pool of young pairs.
  RootStack Roots(*H);
  std::vector<Value> Frame(1 + config::AllocBatchOps, Value::null());
  ScopedRootFrame Scope(Roots, &Frame);
  if (C.K == Kind::Barrier) {
    Frame[0] = H->allocateVector(config::BarrierTargetSlots, Value::null());
    H->collectFullNow(); // Promote the target out of any nursery.
  }
  const uint64_t StatsBase = H->stats().collections();
  const uint64_t WordsBase = H->stats().wordsAllocated();
  const uint64_t TracedBase = H->stats().wordsTraced();
  const double GcBase = H->stats().gcSeconds();
  LayerTotals L;
  CellTracer Tracer(*H, Traced, config::QuantumBytes);
  ScopedRecorder Current(Traced ? &Recorder : nullptr);

  auto TimedBatch = [&](SpanName Name, auto &&Body) {
    if (!Traced)
      return Body();
    size_t First = Recorder.spans().size();
    uint64_t Id = Recorder.open(Name);
    Body();
    Recorder.close(Id);
    // The batch closed last; its self time excludes the collections in it.
    std::vector<Span> Batch(Recorder.spans().begin() + First,
                            Recorder.spans().end());
    double Self = static_cast<double>(selfTimes(Batch).back());
    if (Name == SpanName::AllocBatch) {
      L.AllocSelfNs += Self;
      L.AllocObjects += config::AllocBatchOps;
    } else {
      L.BarrierSelfNs += Self;
      L.BarrierStores += config::AllocBatchOps;
    }
  };

  int64_t Sum = 0;
  double FloSum = 0;
  const int64_t Start = nowNs();
  for (uint64_t B = 0; B < config::AllocBatchesPerCell; ++B) {
    const uint64_t Base = B * config::AllocBatchOps;
    const int64_t *V = In.Values.data() + Base;
    switch (C.K) {
    case Kind::Pairs:
      TimedBatch(SpanName::AllocBatch, [&] {
        for (uint64_t I = 0; I < config::AllocBatchOps; ++I)
          Sum += H->pairCar(H->allocatePair(Value::fixnum(V[I]), Value::null()))
                     .asFixnum();
      });
      break;
    case Kind::Cells:
      TimedBatch(SpanName::AllocBatch, [&] {
        for (uint64_t I = 0; I < config::AllocBatchOps; ++I)
          Sum += H->cellRef(H->allocateCell(Value::fixnum(V[I]))).asFixnum();
      });
      break;
    case Kind::Flonums:
      TimedBatch(SpanName::AllocBatch, [&] {
        for (uint64_t I = 0; I < config::AllocBatchOps; ++I)
          FloSum += H->flonumValue(H->allocateFlonum(static_cast<double>(V[I])));
      });
      break;
    case Kind::Vector8:
      TimedBatch(SpanName::AllocBatch, [&] {
        for (uint64_t I = 0; I < config::AllocBatchOps; ++I)
          Sum += H->vectorRef(H->allocateVector(8, Value::fixnum(V[I])), 7)
                     .asFixnum();
      });
      break;
    case Kind::Barrier:
      TimedBatch(SpanName::AllocBatch, [&] {
        for (uint64_t I = 0; I < config::AllocBatchOps; ++I)
          Frame[1 + I] = H->allocatePair(Value::fixnum(V[I]), Value::null());
      });
      TimedBatch(SpanName::BarrierBatch, [&] {
        const uint16_t *S = In.Slots.data() + Base;
        for (uint64_t I = 0; I < config::AllocBatchOps; ++I)
          H->vectorSet(Frame[0], S[I], Frame[1 + I]);
      });
      break;
    }
  }
  const int64_t End = nowNs();

  const GcStats &S = H->stats();
  Loop.record(I, Tracer, S.wordsAllocated() - WordsBase,
              S.wordsTraced() - TracedBase, End - Start);

  std::string Problem;
  if (Traced) {
    L.WallSeconds += secondsBetween(Start, End);
    L.GcSeconds += S.gcSeconds() - GcBase;
    Problem = Tracer.fold(L, StatsBase);
    Loop.Layers[C.Collector].add(L);
  }
  if (Exhausted || H->lastFault() != HeapFault::None)
    return "heap exhausted";
  switch (C.K) {
  case Kind::Pairs:
  case Kind::Cells:
  case Kind::Vector8:
    if (Sum != In.ValueSum)
      return "read back a different sum than was allocated";
    break;
  case Kind::Flonums:
    if (FloSum != static_cast<double>(In.ValueSum))
      return "read back a different sum than was allocated";
    break;
  case Kind::Barrier:
    for (size_t I = 0; I < config::BarrierTargetSlots; ++I) {
      Value Slot = H->vectorRef(Frame[0], I);
      int64_t Want = In.LastStored[I];
      if (Want < 0 ? !Slot.isNull()
                   : (!H->isa(Slot, ObjectTag::Pair) ||
                      H->pairCar(Slot).asFixnum() != Want))
        return "a tenured slot lost its last young store";
    }
    break;
  }
  return Problem;
}

} // namespace

RunResult perfbench::runAlloc(const Options &O) {
  RunResult R;
  Inputs In = makeInputs(O.Seed);
  std::vector<Cell> Cells;
  for (Kind K : Kinds)
    for (const std::string &C : allCollectors())
      Cells.push_back(Cell{K, C});
  ClosedLoop Loop(Cells.size());
  SpanRecorder Recorder(0);
  R.SetupSeconds = setupSecondsNow(O);
  if (O.SetupOnly)
    return R;

  runRounds(O, Loop, [&](size_t I, bool Traced) {
    std::string Problem = runCell(I, Cells[I], In, Traced, Recorder, Loop);
    R.Book.attempt();
    if (!Problem.empty())
      R.Book.fail(std::string(kindName(Cells[I].K)) + " on " +
                  Cells[I].Collector + ": " + Problem);
  });
  closedLoopMetrics(O, Loop, R);

  const std::vector<double> MbS = Loop.cellMbS();
  std::string Detail =
      "{\"rounds\":" + std::to_string(Loop.Rounds) + ",\"cells\":[";
  for (size_t I = 0; I < Cells.size(); ++I)
    Detail += std::string(I ? "," : "") + "{\"kind\":" +
              jsonString(kindName(Cells[I].K)) + ",\"collector\":" +
              jsonString(Cells[I].Collector) + ",\"mb_s\":" +
              jsonNumber(MbS[I]) + "}";
  R.DetailJson = Detail + "]}";
  if (O.Trace)
    writeSpans(O.TraceDir + "/spans-alloc.jsonl", Recorder.spans());
  return R;
}
