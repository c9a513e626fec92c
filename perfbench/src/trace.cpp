#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.op = op_;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans nest strictly (RAII), so the closing span is the innermost one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add(const std::string& name, Clock::time_point start,
                 Clock::time_point end, std::uint64_t op) {
  auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  spans_.push_back(Span{name, ns(start), ns(end), -1, op});
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
  return out;
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out[layer] += 1e-9 * static_cast<double>(
                             std::max<std::int64_t>(0, s.end_ns - s.start_ns -
                                                           child_ns[i]));
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
