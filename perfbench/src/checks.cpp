#include "checks.hpp"

#include <sstream>

namespace perfbench {

namespace {

std::string value_text(const std::optional<anon::Value>& v) {
  return v.has_value() ? v->to_string() : std::string("bottom");
}

bool contains(const anon::ValueSet& set, const anon::Value& v) {
  for (const anon::Value& x : set)
    if (x == v) return true;
  return false;
}

}  // namespace

std::string check_consensus(const std::vector<std::optional<anon::Value>>& decisions,
                            const std::vector<anon::Value>& proposals,
                            const std::vector<bool>& in_crash_plan) {
  std::ostringstream os;
  std::optional<std::size_t> first;  // first decider: everyone must match it
  for (std::size_t p = 0; p < decisions.size(); ++p) {
    if (!decisions[p].has_value()) {
      if (!in_crash_plan[p]) {
        os << "termination: process " << p
           << " is outside the crash plan and never decided";
        return os.str();
      }
      continue;
    }
    bool proposed = false;
    for (const anon::Value& v : proposals) proposed |= v == *decisions[p];
    if (!proposed) {
      os << "validity: process " << p << " decided "
         << decisions[p]->to_string() << ", which nobody proposed";
      return os.str();
    }
    if (!first) first = p;
    if (!(*decisions[*first] == *decisions[p])) {
      os << "agreement: process " << *first << " decided "
         << decisions[*first]->to_string() << " but process " << p
         << " decided " << decisions[p]->to_string();
      return os.str();
    }
  }
  return {};
}

std::string check_full_delivery(std::uint64_t rounds, std::uint64_t n,
                                std::uint64_t deliveries) {
  const std::uint64_t expected = rounds * n * (n - 1);
  if (deliveries == expected) return {};
  std::ostringstream os;
  os << "deliveries: " << deliveries << " != rounds*n*(n-1) = " << rounds
     << "*" << n << "*" << (n - 1) << " = " << expected;
  return os.str();
}

std::string check_weak_set_naive(const std::vector<anon::WsOpRecord>& ops) {
  using Kind = anon::WsOpRecord::Kind;
  for (std::size_t g = 0; g < ops.size(); ++g) {
    const anon::WsOpRecord& get = ops[g];
    if (get.kind != Kind::kGet) continue;
    for (const anon::WsOpRecord& add : ops) {
      if (add.kind != Kind::kAdd || !(add.end < get.start)) continue;
      if (!contains(get.result, add.value)) {
        std::ostringstream os;
        os << "weak-set: get #" << g << " [" << get.start << "," << get.end
           << "] misses " << add.value.to_string()
           << ", whose add completed at " << add.end;
        return os.str();
      }
    }
    for (const anon::Value& v : get.result) {
      bool started = false;
      for (const anon::WsOpRecord& add : ops)
        started |= add.kind == Kind::kAdd && add.value == v &&
                   add.start <= get.end;
      if (!started) {
        std::ostringstream os;
        os << "weak-set: get #" << g << " [" << get.start << "," << get.end
           << "] returns " << v.to_string()
           << ", whose add had not started when the get ended";
        return os.str();
      }
    }
  }
  return {};
}

std::string check_register_naive(const std::vector<anon::RegOpRecord>& ops) {
  using Kind = anon::RegOpRecord::Kind;
  for (std::size_t r = 0; r < ops.size(); ++r) {
    const anon::RegOpRecord& read = ops[r];
    if (read.kind != Kind::kRead) continue;
    bool any_completed = false;
    for (const anon::RegOpRecord& w : ops)
      any_completed |= w.kind == Kind::kWrite && w.end < read.start;
    bool ok = !read.value.has_value() && !any_completed;
    for (std::size_t i = 0; i < ops.size() && !ok; ++i) {
      const anon::RegOpRecord& w = ops[i];
      if (w.kind != Kind::kWrite || !(w.value == read.value)) continue;
      if (w.start > read.end) continue;
      bool superseded = false;
      for (const anon::RegOpRecord& later : ops)
        superseded |= later.kind == Kind::kWrite && w.end < later.start &&
                      later.end < read.start;
      ok = !superseded;
    }
    if (!ok) {
      std::ostringstream os;
      os << "register: read #" << r << " [" << read.start << "," << read.end
         << "] returns " << value_text(read.value)
         << ", neither the last completed write nor a concurrent one";
      return os.str();
    }
  }
  return {};
}

std::string check_emulation_rounds(const std::vector<std::uint64_t>& rounds_completed,
                                   std::uint64_t target) {
  for (std::size_t p = 0; p < rounds_completed.size(); ++p) {
    if (rounds_completed[p] < target) {
      std::ostringstream os;
      os << "emulation: process " << p << " completed "
         << rounds_completed[p] << " of " << target << " rounds";
      return os.str();
    }
  }
  return {};
}

}  // namespace perfbench
