//===- perfbench/src/ServerBench.cpp - The `server` workload ---------------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Open loop, ServerMutators threads sharing one heap through the server
// runtime. Each thread sends requests on its own Poisson schedule at a
// fixed share of the rung's total rate, and every request is timed from
// when it was due, so a stall also delays the requests queued behind it.
// A request picks a session (sessions live for a decay-sampled number of
// requests), allocates a burst of pairs, reads the burst back and hangs it
// off the session's state. Each collector climbs its own ladder of fixed
// rates. TLAB refills, the heap lock, safepoint rendezvous and the
// parallel scavenger do most of the work here, and none in `paper`.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Config.h"

#include "heap/RootStack.h"
#include "model/DecayModel.h"
#include "server/ServerRuntime.h"
#include "support/Random.h"

#include <ctime>
#include <numeric>
#include <sys/prctl.h>

using namespace perfbench;
using namespace rdgc;

namespace {

/// One generated request; DueNs is relative to the rung's start.
struct Request {
  int64_t DueNs;
  uint64_t Salt;     ///< Seeds the burst's values.
  uint32_t Session;  ///< Index into the thread's session table.
  uint32_t Slot;     ///< State slot the burst is stored into.
  uint32_t Lifetime; ///< Requests a newly admitted session lives for.
};

/// A thread's schedule at a rung: Poisson arrivals at \p Rps for
/// \p Seconds.
std::vector<Request> makeSchedule(uint64_t Seed, double Rps, double Seconds) {
  Xoshiro256 Rng(Seed);
  const double Survival =
      DecayModel(config::SessionHalfLifeRequests).survivalPerUnit();
  std::vector<Request> Out;
  double Due = 0;
  const double MeanGapNs = 1e9 / Rps;
  while (true) {
    Due += Rng.nextExponential(MeanGapNs);
    if (Due >= Seconds * 1e9)
      break;
    Request R;
    R.DueNs = static_cast<int64_t>(Due);
    R.Salt = Rng.next();
    R.Session = static_cast<uint32_t>(Rng.nextBelow(config::SessionsPerMutator));
    R.Slot = static_cast<uint32_t>(Rng.nextBelow(config::SessionStateWords));
    R.Lifetime = static_cast<uint32_t>(
        std::min<uint64_t>(1 + Rng.nextGeometric(Survival), UINT32_MAX));
    Out.push_back(R);
  }
  return Out;
}

/// The next burst value from \p X (a 64-bit LCG step).
inline int64_t nextBurstValue(uint64_t &X) {
  X = X * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<int64_t>(X >> 48);
}

/// What one mutator thread measured at one rung.
struct ThreadTally {
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  std::string Problem;
  int64_t LastDoneNs = 0;
  std::vector<double> LatencyUs;
  std::vector<double> QueueWaitUs;
  std::vector<double> ServiceUs;
  std::vector<double> LateUs;
};

/// Serves one request against the thread's session table, whose last
/// slot roots the burst while it is built. Returns what went wrong, or
/// nullptr.
const char *serve(Heap &H, const Request &Req, std::vector<Value> &Table,
                  std::vector<uint32_t> &Remaining) {
  const size_t Scratch = config::SessionsPerMutator;
  const uint32_t S = Req.Session;
  if (!Table[S].isPointer()) {
    Value State = H.allocateVector(config::SessionStateWords, Value::null());
    if (!State.isPointer())
      return "heap exhausted";
    Table[S] = State;
    Remaining[S] = Req.Lifetime;
  }
  Table[Scratch] = Value::null();
  uint64_t X = Req.Salt;
  int64_t Want = 0;
  for (unsigned I = 0; I < config::BurstPairs; ++I) {
    int64_t V = nextBurstValue(X);
    Value P = H.allocatePair(Value::fixnum(V), Table[Scratch]);
    if (!P.isPointer())
      return "heap exhausted";
    Table[Scratch] = P;
    Want += V;
  }
  // Read the burst back before publishing it.
  int64_t Got = 0;
  unsigned Length = 0;
  for (Value P = Table[Scratch]; P.isPointer(); P = H.pairCdr(P)) {
    Got += H.pairCar(P).asFixnum();
    ++Length;
  }
  if (Got != Want || Length != config::BurstPairs)
    return "a burst read back differently than it was built";
  // An old session state now points at a young burst: the barrier runs.
  H.vectorSet(Table[S], Req.Slot, Table[Scratch]);
  Table[Scratch] = Value::null();
  if (--Remaining[S] == 0)
    Table[S] = Value::null();
  return nullptr;
}

/// Checks that every burst still hanging off a live session is whole.
bool sessionsIntact(Heap &H, const std::vector<Value> &Table) {
  for (size_t S = 0; S < config::SessionsPerMutator; ++S) {
    if (!Table[S].isPointer())
      continue;
    for (size_t I = 0; I < config::SessionStateWords; ++I) {
      unsigned Length = 0;
      for (Value P = H.vectorRef(Table[S], I); P.isPointer(); P = H.pairCdr(P))
        ++Length;
      if (Length != 0 && Length != config::BurstPairs)
        return false;
    }
  }
  return true;
}

/// An idle thread sleeps until this long before its next request is due,
/// then spins on the safepoint poll so the request starts on time.
constexpr int64_t SpinLeadNs = 30'000;

/// Waits until \p Due. The sleep runs inside a safe region: the sleeping
/// thread holds no heap values, so a rendezvous need not wait for it, and
/// leaving the region parks it if a collection is under way. Sleeping
/// rather than spinning leaves idle cores to the collector's workers.
void waitUntil(SafepointCoordinator &Safepoints, int64_t Due) {
  for (int64_t Now = nowNs(); Now < Due; Now = nowNs()) {
    if (Due - Now <= SpinLeadNs) {
      Safepoints.pollPark();
      continue;
    }
    int64_t Wake = Due - SpinLeadNs;
    timespec Until{static_cast<time_t>(Wake / 1'000'000'000),
                   static_cast<long>(Wake % 1'000'000'000)};
    Safepoints.beginSafeRegion();
    clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &Until, nullptr);
    Safepoints.endSafeRegion();
  }
}

/// One run of one rung's schedule on one collector.
struct RungRun {
  double OfferedRps = 0;
  uint64_t Scheduled = 0;
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  uint64_t Collections = 0;
  uint64_t WordsAllocated = 0;
  uint64_t WordsTraced = 0;
  double Seconds = 0;
  std::vector<double> PausesUs;
  std::vector<double> LatencyUs;
  std::vector<double> QueueWaitUs;
  std::vector<double> ServiceUs;
  std::vector<double> LateUs;
  double WaitFirstQuarterUs = 0;
  double WaitLastQuarterUs = 0;
};

/// The verdict inputs of a rung run once.
Rung verdictOf(const RungRun &Run) {
  Rung V;
  V.OfferedRps = Run.OfferedRps;
  V.AchievedRps = Run.Seconds > 0 ? Run.Completed / Run.Seconds : 0;
  V.Scheduled = Run.Scheduled;
  V.Completed = Run.Completed;
  V.Failed = Run.Failed;
  V.LatencyP99Us = percentile(Run.LatencyUs, 0.99);
  V.QueueWaitFirstQuarterUs = Run.WaitFirstQuarterUs;
  V.QueueWaitLastQuarterUs = Run.WaitLastQuarterUs;
  return V;
}

/// The verdict inputs of the repeated nominal rung: counts add up, the
/// rates, percentiles and queue waits are medians over the repetitions.
Rung verdictOf(const std::vector<RungRun> &Reps) {
  Rung V;
  std::vector<double> Achieved, First, Last;
  std::vector<std::vector<double>> Latencies;
  for (const RungRun &Run : Reps) {
    Rung One = verdictOf(Run);
    V.OfferedRps = One.OfferedRps;
    V.Scheduled += One.Scheduled;
    V.Completed += One.Completed;
    V.Failed += One.Failed;
    Achieved.push_back(One.AchievedRps);
    First.push_back(One.QueueWaitFirstQuarterUs);
    Last.push_back(One.QueueWaitLastQuarterUs);
    Latencies.push_back(Run.LatencyUs);
  }
  V.AchievedRps = median(Achieved);
  V.LatencyP99Us = medianOfPercentiles(Latencies, 0.99);
  V.QueueWaitFirstQuarterUs = median(First);
  V.QueueWaitLastQuarterUs = median(Last);
  return V;
}

/// A thread that falls this far behind its schedule stops and counts
/// its remaining requests as failed, so a collapsed server cannot run
/// past the benchmark's time limit. An overloaded top rung drains well
/// within it.
constexpr int64_t GiveUpLagNs = 20'000'000'000;

using Schedule = std::vector<std::vector<Request>>; ///< One per mutator.

/// One collector's heap, runtime and measurements.
struct ServerCell {
  const config::Ladder *L = nullptr;
  std::string Name;
  std::unique_ptr<Heap> H;
  std::unique_ptr<CellTracer> Tracer;
  std::unique_ptr<ServerRuntime> RT;
  /// Schedule seeds: one per nominal repetition, then one per rung above.
  std::vector<uint64_t> NominalSeeds, AboveSeeds;
  std::vector<RungRun> Nominals;
  /// Up to and including the first failure; verdicts only, the samples
  /// are dropped once judged.
  std::vector<Rung> Above;
  std::vector<uint64_t> AboveCollections;
  /// Pauses of the nominal repetitions and of every rung that passed: an
  /// overloaded rung's pauses describe the overload, not the collector.
  std::vector<double> PausesUs;
  double Seconds = 0;         ///< Wall time of every run on this cell.
  double UntracedServiceUs = 0;
};

class ServerRunner {
public:
  ServerRunner(const Options &O, RunResult &R) : O(O), R(R) {}

  /// Builds the heaps and draws every schedule's seed. Returns false on a
  /// configuration error.
  bool setUp();
  void run();
  void finish();

private:
  /// Generates the schedule of \p Rps from \p Seed and runs it.
  RungRun runRung(ServerCell &Cell, uint64_t Seed, double Rps, bool Traced);

  const Options &O;
  RunResult &R;
  double UnitSeconds = 0;
  std::vector<ServerCell> Cells;
  std::vector<SpanRecorder> Recorders;
  uint64_t NextGroup = 1;
};

const config::Ladder *ladderFor(const std::string &Collector) {
  for (const config::Ladder &L : config::ServerLadders)
    if (Collector == L.Collector)
      return &L;
  return nullptr;
}

bool ServerRunner::setUp() {
  // Every run of a rung takes one unit of the run's time, so the whole
  // ladder fits in --seconds when no rung runs late.
  double Units = 0;
  for (const std::string &C : serverCollectors()) {
    const config::Ladder *L = ladderFor(C);
    if (!L || L->Count == 0 || L->Count > 4) {
      R.Book.fail("no valid rate ladder configured for " + C);
      return false;
    }
    Units += config::NominalRepetitions + L->Count - 1;
  }
  UnitSeconds = O.Seconds / Units;
  SplitMix64 Seeds(O.Seed);
  for (const std::string &C : serverCollectors()) {
    ServerCell &Cell = Cells.emplace_back();
    Cell.Name = C;
    Cell.L = ladderFor(C);
    for (unsigned Rep = 0; Rep < config::NominalRepetitions; ++Rep)
      Cell.NominalSeeds.push_back(Seeds.next());
    for (unsigned I = 1; I < Cell.L->Count; ++I)
      Cell.AboveSeeds.push_back(Seeds.next());
    CollectorSizing Sizing;
    Sizing.PrimaryBytes = Cell.L->HeapBytes;
    Sizing.NurseryBytes = config::ServerNurseryBytes;
    const bool MarkSweep = C == "mark-sweep";
    Cell.H = makePinnedHeap(C, Sizing, MarkSweep ? 0 : config::ServerGcThreads,
                            MarkSweep ? config::ServerSliceBudgetUs : 0);
    Cell.Tracer = std::make_unique<CellTracer>(*Cell.H, O.Trace);
    Cell.RT = std::make_unique<ServerRuntime>(*Cell.H, config::ServerMutators);
  }
  for (unsigned T = 0; T < config::ServerMutators; ++T)
    Recorders.emplace_back(T + 1);
  return true;
}

RungRun ServerRunner::runRung(ServerCell &Cell, uint64_t Seed, double Rps,
                              bool Traced) {
  SplitMix64 ThreadSeeds(Seed);
  Schedule PerThread;
  for (unsigned T = 0; T < config::ServerMutators; ++T)
    PerThread.push_back(makeSchedule(ThreadSeeds.next(),
                                     Rps / config::ServerMutators, UnitSeconds));
  Heap &H = *Cell.H;
  ServerRuntime &RT = *Cell.RT;
  std::vector<ThreadTally> Tallies(config::ServerMutators);
  RungRun Run;
  Run.OfferedRps = Rps;
  const uint64_t CollectionsBefore = H.stats().collections();
  const uint64_t WordsBefore = H.stats().wordsAllocated();
  const uint64_t TracedBefore = H.stats().wordsTraced();
  const size_t PausesBefore = Cell.Tracer->pausesUs().size();
  for (const auto &S : PerThread)
    Run.Scheduled += S.size();
  const uint64_t GroupBase = NextGroup;
  NextGroup += Run.Scheduled;
  // Start every thread's schedule at one instant, after the threads exist.
  const int64_t Start = nowNs() + 2'000'000;

  RT.run([&](unsigned T) {
    ThreadTally &Out = Tallies[T];
    const std::vector<Request> &Reqs = PerThread[T];
    RootStack Roots(H);
    std::vector<Value> Table(config::SessionsPerMutator + 1, Value::null());
    std::vector<uint32_t> Remaining(config::SessionsPerMutator, 0);
    ScopedRootFrame Frame(Roots, &Table);
    SpanRecorder *Rec = Traced ? &Recorders[T] : nullptr;
    ScopedRecorder Current(Rec);
    // Wake from sleeps when asked, not up to 50 us later.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    Out.LatencyUs.reserve(Reqs.size());
    Out.QueueWaitUs.reserve(Reqs.size());
    int64_t PrevDone = Start;
    uint64_t Group = GroupBase + T;
    for (size_t I = 0; I < Reqs.size(); ++I, Group += config::ServerMutators) {
      const int64_t Due = Start + Reqs[I].DueNs;
      waitUntil(RT.safepoints(), Due);
      const int64_t Begin = nowNs();
      if (Begin - Due > GiveUpLagNs) {
        Out.Failed += Reqs.size() - I;
        Out.Problem = "fell more than 20 s behind schedule";
        break;
      }
      const bool Spans = Rec && Group % config::RequestSpanStride == 0;
      uint64_t ReqSpan = 0, ServiceSpan = 0;
      if (Spans) {
        ReqSpan = Rec->open(SpanName::Request, Group, Due);
        Rec->add(SpanName::QueueWait, Due, Begin);
        ServiceSpan = Rec->open(SpanName::Service, 0, Begin);
      }
      const char *Problem = serve(H, Reqs[I], Table, Remaining);
      const int64_t Done = nowNs();
      if (Spans) {
        Rec->close(ServiceSpan, Done);
        Rec->close(ReqSpan, Done);
      }
      if (Problem) {
        Out.Failed += Reqs.size() - I;
        Out.Problem = Problem;
        break;
      }
      ++Out.Completed;
      Out.LatencyUs.push_back((Done - Due) / 1e3);
      Out.QueueWaitUs.push_back((Begin - Due) / 1e3);
      Out.ServiceUs.push_back((Done - Begin) / 1e3);
      // How late the generator sent: only requests that found the thread
      // idle, whose wait is the generator's and not a queue's.
      if (PrevDone <= Due)
        Out.LateUs.push_back((Begin - Due) / 1e3);
      PrevDone = Done;
    }
    Out.LastDoneNs = PrevDone;
    if (Out.Problem.empty() && !sessionsIntact(H, Table))
      Out.Problem = "a session lost part of a burst";
  });

  Run.Collections = H.stats().collections() - CollectionsBefore;
  Run.WordsAllocated = H.stats().wordsAllocated() - WordsBefore;
  Run.WordsTraced = H.stats().wordsTraced() - TracedBefore;
  Run.PausesUs.assign(Cell.Tracer->pausesUs().begin() + PausesBefore,
                      Cell.Tracer->pausesUs().end());
  int64_t LastDone = Start;
  std::vector<double> FirstQuarter, LastQuarter;
  const std::string Where =
      Cell.Name + " at " + std::to_string(static_cast<long>(Rps)) + " req/s";
  for (ThreadTally &T : Tallies) {
    Run.Completed += T.Completed;
    Run.Failed += T.Failed;
    LastDone = std::max(LastDone, T.LastDoneNs);
    size_t N = T.QueueWaitUs.size();
    FirstQuarter.insert(FirstQuarter.end(), T.QueueWaitUs.begin(),
                        T.QueueWaitUs.begin() + N / 4);
    LastQuarter.insert(LastQuarter.end(), T.QueueWaitUs.end() - N / 4,
                       T.QueueWaitUs.end());
    auto Append = [](std::vector<double> &To, const std::vector<double> &From) {
      To.insert(To.end(), From.begin(), From.end());
    };
    Append(Run.LatencyUs, T.LatencyUs);
    Append(Run.QueueWaitUs, T.QueueWaitUs);
    Append(Run.ServiceUs, T.ServiceUs);
    Append(Run.LateUs, T.LateUs);
    // Failed requests count where they failed; a damaged session table
    // fails the thread's last request.
    if (!T.Problem.empty())
      R.Book.fail(Where + ": " + T.Problem, T.Failed ? T.Failed : 1);
  }
  R.Book.attempt(Run.Scheduled);
  if (Run.Completed + Run.Failed != Run.Scheduled)
    R.Book.fail(Where + ": requests unaccounted for",
                Run.Scheduled - Run.Completed - Run.Failed);
  if (Run.Collections < config::MinCollectionsPerCell)
    R.Book.fail(Where + " collected only " + std::to_string(Run.Collections) +
                " times");
  Run.Seconds = secondsBetween(Start, LastDone);
  Run.WaitFirstQuarterUs = median(FirstQuarter);
  Run.WaitLastQuarterUs = median(LastQuarter);
  Cell.Seconds += Run.Seconds;
  return Run;
}

double meanOf(const std::vector<double> &Xs) {
  return Xs.empty() ? 0.0
                    : std::accumulate(Xs.begin(), Xs.end(), 0.0) / Xs.size();
}

void ServerRunner::run() {
  for (unsigned Rep = 0; Rep < config::NominalRepetitions; ++Rep)
    for (ServerCell &Cell : Cells) {
      Cell.Nominals.push_back(
          runRung(Cell, Cell.NominalSeeds[Rep], Cell.L->Rates[0], O.Trace));
      Cell.PausesUs.insert(Cell.PausesUs.end(),
                           Cell.Nominals.back().PausesUs.begin(),
                           Cell.Nominals.back().PausesUs.end());
    }
  // A traced run repeats one nominal schedule untraced on each cell, for
  // the tracing overhead.
  if (O.Trace)
    for (ServerCell &Cell : Cells)
      Cell.UntracedServiceUs =
          meanOf(runRung(Cell, Cell.NominalSeeds[0], Cell.L->Rates[0],
                         /*Traced=*/false)
                     .ServiceUs);
  // Above the nominal rung, each ladder stops at its first failure.
  for (ServerCell &Cell : Cells) {
    bool Passing = rungPasses(verdictOf(Cell.Nominals), config::LatencyLimitUs);
    for (unsigned I = 1; I < Cell.L->Count && Passing; ++I) {
      RungRun Run =
          runRung(Cell, Cell.AboveSeeds[I - 1], Cell.L->Rates[I], O.Trace);
      Cell.Above.push_back(verdictOf(Run));
      Cell.AboveCollections.push_back(Run.Collections);
      Passing = rungPasses(Cell.Above.back(), config::LatencyLimitUs);
      if (Passing)
        Cell.PausesUs.insert(Cell.PausesUs.end(), Run.PausesUs.begin(),
                             Run.PausesUs.end());
    }
  }
}

std::string rungJson(const Rung &V, const uint64_t *Collections,
                     bool Nominal) {
  std::string Out =
      "{\"offered_rps\":" + jsonNumber(V.OfferedRps) +
      ",\"achieved_rps\":" + jsonNumber(V.AchievedRps) +
      ",\"nominal\":" + (Nominal ? "true" : "false") + ",\"pass\":" +
      (rungPasses(V, config::LatencyLimitUs) ? "true" : "false") +
      ",\"scheduled\":" + std::to_string(V.Scheduled) +
      ",\"completed\":" + std::to_string(V.Completed) +
      ",\"failed\":" + std::to_string(V.Failed) +
      ",\"p99_us\":" + jsonNumber(V.LatencyP99Us.Value) +
      ",\"n\":" + std::to_string(V.LatencyP99Us.N) +
      ",\"wait_first_quarter_us\":" + jsonNumber(V.QueueWaitFirstQuarterUs) +
      ",\"wait_last_quarter_us\":" + jsonNumber(V.QueueWaitLastQuarterUs);
  if (Collections)
    Out += ",\"collections\":" + std::to_string(*Collections);
  return Out + "}";
}

void ServerRunner::finish() {
  std::vector<double> P50s, P99s, MaxRates, MbS, Pauses;
  std::vector<double> UntracedService, TracedService;
  uint64_t NominalN = 0, Rungs = 0, WordsAllocated = 0, WordsTraced = 0;
  std::map<std::string, LayerTotals> Layers;
  std::string Detail = "{\"latency_limit_us\":" +
                       jsonNumber(config::LatencyLimitUs) +
                       ",\"rung_seconds\":" + jsonNumber(UnitSeconds) +
                       ",\"ladders\":{";
  for (ServerCell &Cell : Cells) {
    std::vector<std::vector<double>> Latencies;
    double NominalSeconds = 0;
    uint64_t NominalWords = 0;
    for (const RungRun &Run : Cell.Nominals) {
      Latencies.push_back(Run.LatencyUs);
      NominalSeconds += Run.Seconds;
      NominalWords += Run.WordsAllocated;
      WordsAllocated += Run.WordsAllocated;
      WordsTraced += Run.WordsTraced;
    }
    Percentile P50 = medianOfPercentiles(Latencies, 0.5);
    Percentile P99 = medianOfPercentiles(Latencies, 0.99);
    std::string RepP99s;
    for (const std::vector<double> &Rep : Latencies)
      RepP99s.append(RepP99s.empty() ? "" : ",")
          .append(jsonNumber(percentile(Rep, 0.99).Value));
    if (P50.Value)
      P50s.push_back(*P50.Value);
    if (P99.Value)
      P99s.push_back(*P99.Value);
    NominalN += P99.N;
    MbS.push_back(NominalWords * 8 / 1e6 / NominalSeconds);

    std::vector<Rung> Ladder = {verdictOf(Cell.Nominals)};
    Detail += std::string(&Cell == &Cells.front() ? "" : ",") +
              jsonString(Cell.Name) + ":{\"heap_bytes\":" +
              std::to_string(Cell.L->HeapBytes) + ",\"nominal_p50_us\":" +
              jsonNumber(P50.Value) + ",\"nominal_p99_us\":" +
              jsonNumber(P99.Value) + ",\"repetition_p99_us\":[" +
              RepP99s + "],\"rungs\":[" +
              rungJson(Ladder.front(), nullptr, true);
    for (size_t I = 0; I < Cell.Above.size(); ++I) {
      Ladder.push_back(Cell.Above[I]);
      Detail.append(",").append(
          rungJson(Cell.Above[I], &Cell.AboveCollections[I], false));
    }
    std::optional<double> Max = maxPassingRate(Ladder, config::LatencyLimitUs);
    if (Max)
      MaxRates.push_back(*Max);
    Rungs += Cell.Nominals.size() + Cell.Above.size();
    Detail += "],\"max_rate_rps\":" + jsonNumber(Max) + "}";

    Pauses.insert(Pauses.end(), Cell.PausesUs.begin(), Cell.PausesUs.end());
    if (O.Trace) {
      LayerTotals &T = Layers[Cell.Name];
      const GcStats &S = Cell.H->stats();
      T.WallSeconds = Cell.Seconds;
      T.GcSeconds = S.gcSeconds();
      T.Rendezvous = Cell.RT->safepoints().rendezvousCount();
      for (const RungRun &Run : Cell.Nominals) {
        T.QueueWaitUs.insert(T.QueueWaitUs.end(), Run.QueueWaitUs.begin(),
                             Run.QueueWaitUs.end());
        T.ServiceUs.insert(T.ServiceUs.end(), Run.ServiceUs.begin(),
                           Run.ServiceUs.end());
        T.LateUs.insert(T.LateUs.end(), Run.LateUs.begin(), Run.LateUs.end());
      }
      UntracedService.push_back(Cell.UntracedServiceUs);
      TracedService.push_back(meanOf(T.ServiceUs));
      if (std::string Problem = Cell.Tracer->fold(T, 0); !Problem.empty())
        R.Book.fail(Cell.Name + ": " + Problem);
    }
    if (Cell.H->lastFault() != HeapFault::None)
      R.Book.fail(Cell.Name + ": heap exhausted");
  }
  R.DetailJson = Detail + "}}";

  auto AllOf = [this](const std::vector<double> &Xs) {
    return Xs.size() == Cells.size() ? geomean(Xs) : std::nullopt;
  };
  Percentile P50 = percentile(Pauses, 0.5), P99 = percentile(Pauses, 0.99);
  R.EndToEnd = {
      {"throughput_mb_s", AllOf(MbS), "MB/s", MbS.size()},
      {"pause_p50_us", P50.Value, "us", P50.N},
      {"pause_p99_us", P99.Value, "us", P99.N},
      {"mark_cons",
       WordsAllocated ? std::optional<double>(double(WordsTraced) /
                                              double(WordsAllocated))
                      : std::nullopt,
       "ratio", Rungs},
      {"req_p50_us", AllOf(P50s), "us", NominalN},
      {"req_p99_us", AllOf(P99s), "us", NominalN},
      {"max_rate_rps", AllOf(MaxRates), "1/s", Rungs},
  };
  if (O.Trace) {
    double Overhead = 0;
    if (auto Plain = geomean(UntracedService), Traced = geomean(TracedService);
        Plain && Traced)
      Overhead = 1.0 - *Plain / *Traced;
    R.PerLayer = layerMetrics(Layers, Overhead);
    std::vector<Span> All;
    for (const SpanRecorder &Rec : Recorders)
      All.insert(All.end(), Rec.spans().begin(), Rec.spans().end());
    writeSpans(O.TraceDir + "/spans-server.jsonl", All);
  }
}

} // namespace

RunResult perfbench::runServer(const Options &O) {
  RunResult R;
  ServerRunner Runner(O, R);
  if (!Runner.setUp())
    return R;
  R.SetupSeconds = setupSecondsNow(O);
  if (O.SetupOnly)
    return R;
  Runner.run();
  Runner.finish();
  return R;
}
