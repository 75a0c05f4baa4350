//===- perfbench/src/Spans.cpp - In-memory span recording ------------------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cstdio>
#include <memory>

using namespace perfbench;

const char *perfbench::spanNameText(uint32_t Name) {
  static const char *const Names[] = {
      "cell",          "request",    "queue_wait", "service",
      "alloc_batch",   "barrier_batch", "collection", "slice"};
  return Name < sizeof(Names) / sizeof(Names[0]) ? Names[Name] : "unknown";
}

uint64_t SpanRecorder::open(SpanName Name, uint64_t Group, int64_t StartNs) {
  Span S;
  S.Id = NextId++;
  S.Parent = Open.empty() ? 0 : Open.back().Id;
  S.Group = Group ? Group : (Open.empty() ? 0 : Open.back().Group);
  S.Name = static_cast<uint32_t>(Name);
  S.StartNs = StartNs;
  Open.push_back(S);
  return S.Id;
}

void SpanRecorder::close(uint64_t Id, int64_t EndNs) {
  if (Open.empty() || Open.back().Id != Id)
    return;
  Span S = Open.back();
  Open.pop_back();
  S.EndNs = EndNs;
  Spans.push_back(S);
}

void SpanRecorder::add(SpanName Name, int64_t StartNs, int64_t EndNs) {
  Span S;
  S.Id = NextId++;
  S.Parent = Open.empty() ? 0 : Open.back().Id;
  S.Group = Open.empty() ? 0 : Open.back().Group;
  S.Name = static_cast<uint32_t>(Name);
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  Spans.push_back(S);
}

SpanRecorder *&SpanRecorder::current() {
  thread_local SpanRecorder *Current = nullptr;
  return Current;
}

bool perfbench::writeSpans(const std::string &Path,
                           const std::vector<Span> &Spans) {
  std::unique_ptr<std::FILE, int (*)(std::FILE *)> F(
      std::fopen(Path.c_str(), "w"), &std::fclose);
  if (!F)
    return false;
  std::vector<int64_t> Self = selfTimes(Spans);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F.get(),
                 "{\"id\":%llu,\"parent\":%llu,\"group\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}\n",
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Group),
                 spanNameText(S.Name), static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs),
                 static_cast<long long>(Self[I]));
  }
  return std::fflush(F.get()) == 0 && !std::ferror(F.get());
}
