//===- perfbench/src/Config.h - Fixed benchmark configuration ----*- C++ -*-===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every size, rate and limit the benchmark runs at. They are constants so
/// that two commits are always measured on the same inputs: nothing here
/// is derived from a warm-up or read from the environment.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CONFIG_H
#define PERFBENCH_CONFIG_H

#include <cstddef>
#include <cstdint>

namespace perfbench::config {

//===--- paper -------------------------------------------------------------===//

/// The Table-2 programs at scale level 1.
constexpr int PaperScale = 1;

/// Heap bytes per program (CollectorSizing::PrimaryBytes, the same for all
/// six collectors). Chosen so every cell collects at least
/// MinCollectionsPerCell times and no cell but the generational ones grows
/// its heap (that collector grows its old generation rather than run a
/// major collection early); the generational and hybrid nurseries are a
/// quarter of it.
struct ProgramHeap {
  const char *Program;
  size_t Bytes;
};
constexpr ProgramHeap PaperHeaps[] = {
    {"nbody", 512 * 1024},     {"nucleic", 1024 * 1024},
    {"lattice", 128 * 1024},   {"dynamic", 256 * 1024},
    {"10dynamic", 1024 * 1024}, {"nboyer", 1792 * 1024},
    {"sboyer", 256 * 1024},    {"decay", 212736},
};
constexpr size_t NurseryDivisor = 4;
constexpr uint64_t MinCollectionsPerCell = 5;

/// The radioactive-decay cell: MutatorDriver at half-life h, warmed up
/// before measuring, in a heap of 212736 bytes, about 3 times the h / ln 2
/// live 3-word objects of the model's equilibrium; the mark/cons checks
/// use the inverse load the exact equilibrium gives (2.9995).
constexpr double DecayHalfLife = 2048;
constexpr uint64_t DecayWarmupUnits = 40 * 2048;
constexpr uint64_t DecayMeasureUnits = 160 * 2048;
/// Non-predictive at fixed g = j/k, the Theorem 4 regime at L = 3.
constexpr size_t DecaySteps = 16;
constexpr size_t DecayFixedJ = 4;
/// Largest relative gap from the model's mark/cons prediction.
constexpr double DecayMarkConsTolerance = 0.05;

//===--- paper and alloc ---------------------------------------------------===//

/// A closed-loop request is this much allocation; its latency is the wall
/// time the mutator took to allocate it, pauses included.
constexpr uint64_t QuantumBytes = 256 * 1024;

//===--- alloc -------------------------------------------------------------===//

/// Roomy heaps (the shipped 1 MiB nursery) with almost no survival.
constexpr size_t AllocHeapBytes = 4 * 1024 * 1024;
constexpr size_t AllocNurseryBytes = 1024 * 1024;
/// Operations per timed batch, and batches per cell run.
constexpr uint64_t AllocBatchOps = 4096;
constexpr uint64_t AllocBatchesPerCell = 256;
/// Slots in the tenured vector the barrier cell stores into.
constexpr size_t BarrierTargetSlots = 1024;

//===--- server ------------------------------------------------------------===//

/// Mutator threads and, for the copying collectors, parallel scavenger
/// workers: half of a 4-core host each. With a mutator or worker on every
/// core, a core the host takes away stalls every rendezvous and every
/// parallel collection, and latency then tracks the host's load rather
/// than the collector.
constexpr unsigned ServerMutators = 2;
constexpr unsigned ServerGcThreads = 2;
/// Incremental slice budget for mark-sweep.
constexpr uint64_t ServerSliceBudgetUs = 200;
/// The generational and hybrid nursery, small enough that the pauses of
/// the rungs that pass number over a thousand.
constexpr size_t ServerNurseryBytes = 128 * 1024;
/// Per-request shape: ServerWorkload's, with an 8-slot session state that
/// keeps the live set near 1 MB, so mark-sweep collects often in a small heap.
constexpr unsigned SessionsPerMutator = 32;
constexpr double SessionHalfLifeRequests = 24.0;
constexpr unsigned BurstPairs = 48;
constexpr unsigned SessionStateWords = 8;
/// A rung passes only if its p99 latency stays within this limit.
constexpr double LatencyLimitUs = 50000;

/// Each collector's heap bytes (CollectorSizing::PrimaryBytes) and ladder
/// of total offered rates (requests/s across all mutators), ascending.
/// The first rung is the nominal one whose latencies are reported, half of
/// the second. The second passed and the third failed on every run when
/// the ladder was fixed, with wide margins, so the verdicts repeat from
/// run to run; a change that moves max_rate_rps moves it by a whole rung.
struct Ladder {
  const char *Collector;
  size_t HeapBytes;
  double Rates[4];
  unsigned Count;
};
constexpr Ladder ServerLadders[] = {
    {"generational", 4 << 20, {10000, 20000, 200000}, 3},
    {"non-predictive-hybrid", 4 << 20, {10000, 20000, 200000}, 3},
    {"mark-sweep", 3 << 19, {5000, 10000, 80000}, 3},
};
/// The nominal rung runs this many times, interleaved across the
/// collectors, and its latencies are the median over the repetitions: a
/// burst of interference from outside the benchmark then moves one
/// repetition, not the result.
constexpr unsigned NominalRepetitions = 5;
/// The traced run records the spans of every this-many-th request.
constexpr uint64_t RequestSpanStride = 16;

} // namespace perfbench::config

#endif // PERFBENCH_CONFIG_H
