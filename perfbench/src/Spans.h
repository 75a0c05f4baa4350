//===- perfbench/src/Spans.h - In-memory span recording ----------*- C++ -*-===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the traced run records around each call into a layer: cells,
/// requests and their queue_wait/service parts, timed allocation and
/// barrier batches, and the collections the tracer reports inside them.
/// One recorder per thread; each keeps its spans in memory until the
/// run writes them all out at exit.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include "Report.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint32_t {
  Cell,
  Request,
  QueueWait,
  Service,
  AllocBatch,
  BarrierBatch,
  Collection,
  Slice,
};

const char *spanNameText(uint32_t Name);

/// Nanoseconds on the steady clock (the one GcPhaseTimer uses).
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
public:
  /// \p Thread keeps span ids unique across recorders.
  explicit SpanRecorder(uint32_t Thread)
      : NextId((static_cast<uint64_t>(Thread) << 40) + 1) {}

  /// Opens a span that later spans nest under until close(). \p Group 0
  /// inherits the enclosing span's group.
  uint64_t open(SpanName Name, uint64_t Group = 0, int64_t StartNs = nowNs());
  /// Closes the innermost open span, which must be \p Id.
  void close(uint64_t Id, int64_t EndNs = nowNs());
  /// Records a finished span as a child of the innermost open span.
  void add(SpanName Name, int64_t StartNs, int64_t EndNs);

  const std::vector<Span> &spans() const { return Spans; }

  /// The recorder of the calling thread in a traced run, or null. Tracer
  /// sinks use it to attach collection spans to whatever the thread was
  /// doing when the collection ran.
  static SpanRecorder *&current();

private:
  std::vector<Span> Open;
  std::vector<Span> Spans;
  uint64_t NextId;
};

/// Sets SpanRecorder::current() for a scope.
class ScopedRecorder {
public:
  explicit ScopedRecorder(SpanRecorder *R) : Saved(SpanRecorder::current()) {
    SpanRecorder::current() = R;
  }
  ~ScopedRecorder() { SpanRecorder::current() = Saved; }
  ScopedRecorder(const ScopedRecorder &) = delete;
  ScopedRecorder &operator=(const ScopedRecorder &) = delete;

private:
  SpanRecorder *Saved;
};

/// Opens a span for a scope when the thread has a recorder.
class ScopedSpan {
public:
  explicit ScopedSpan(SpanName Name, uint64_t Group = 0)
      : R(SpanRecorder::current()), Id(R ? R->open(Name, Group) : 0) {}
  ~ScopedSpan() {
    if (R)
      R->close(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *R;
  uint64_t Id;
};

/// Writes every span as one JSON line {id, parent, group, name, start_ns,
/// end_ns, self_ns}; returns false when the file cannot be written.
bool writeSpans(const std::string &Path, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
