// In-memory span recorder for the traced benchmark mode.
//
// A span carries a name ("<layer>.<what>"), start and end times relative to
// the tracer's creation, its parent span and the id of the operation it
// belongs to.  Spans are recorded only around the benchmark's calls into each
// layer's public functions; nothing inside the library is instrumented.
// The whole list is kept in memory and written as JSON when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root span
  std::uint64_t op = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void set_op(std::uint64_t op) { op_ = op; }
  int begin(const std::string& name);
  void end(int id);
  // A finished root span measured elsewhere (overlapping asynchronous
  // calls, which cannot nest).
  void add(const std::string& name, Clock::time_point start,
           Clock::time_point end, std::uint64_t op);

  // Durations (seconds) of every span with this name.
  std::vector<double> durations(const std::string& name) const;
  // Per layer (the name's prefix before the first '.'): total self time,
  // i.e. each span's duration minus the time its child spans cover.
  std::map<std::string, double> self_time_by_layer() const;

  // Writes {"spans":[{name,start_ns,end_ns,parent,op},...]}.
  bool write_json(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint64_t op_ = 0;
};

// RAII span; a null tracer makes it a no-op (the untraced paths share the
// same code).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
