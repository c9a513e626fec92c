// Consensus values with the distinguished non-value ⊥ (bottom).
//
// The paper's Algorithm 3 lets non-leaders propose the special value ⊥,
// which participates in set operations but is excluded when adopting a new
// estimate (`max(WRITTEN \ {⊥})`).  We model a value as either ⊥ or a
// 64-bit payload; ⊥ orders below every proper value so that `max` over a
// mixed set never selects it by accident.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

#include "common/flat_set.hpp"
#include "common/message_size.hpp"

namespace anon {

class Value {
 public:
  // Default-constructed value is ⊥.
  constexpr Value() : payload_(0), bottom_(true) {}
  constexpr explicit Value(std::int64_t v) : payload_(v), bottom_(false) {}

  static constexpr Value Bottom() { return Value(); }

  constexpr bool is_bottom() const { return bottom_; }

  // Precondition: !is_bottom().
  constexpr std::int64_t get() const { return payload_; }

  friend constexpr auto operator<=>(const Value& a, const Value& b) {
    // ⊥ < every proper value; proper values order by payload.
    if (a.bottom_ != b.bottom_) return a.bottom_ ? std::strong_ordering::less
                                                 : std::strong_ordering::greater;
    if (a.bottom_) return std::strong_ordering::equal;
    return a.payload_ <=> b.payload_;
  }
  friend constexpr bool operator==(const Value& a, const Value& b) {
    return a.bottom_ == b.bottom_ && (a.bottom_ || a.payload_ == b.payload_);
  }

  std::string to_string() const {
    return bottom_ ? std::string("⊥") : std::to_string(payload_);
  }

  friend std::ostream& operator<<(std::ostream& os, const Value& v) {
    return os << v.to_string();
  }

  // Deterministic hash (used by history hashing; must be stable across runs).
  constexpr std::uint64_t stable_hash() const {
    std::uint64_t x = bottom_ ? 0x9e3779b97f4a7c15ULL
                              : static_cast<std::uint64_t>(payload_) + 1;
    x ^= x >> 30; x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27; x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

 private:
  std::int64_t payload_;
  bool bottom_;
};

// The paper's value sets are tiny (bounded by the number of distinct
// initial values); a sorted small-buffer flat set makes every per-round
// union/intersection a short merge pass with no node allocations.
using ValueSet = FlatSet<Value, 4>;

// A value set on the wire: a 16-byte header plus 8 bytes per value.
template <>
struct MessageSizeOf<ValueSet> {
  static std::size_t size(const ValueSet& m) { return 16 + 8 * m.size(); }
};

// Union of two value sets (merge-based, see FlatSet::union_with).
inline ValueSet set_union(const ValueSet& a, const ValueSet& b) {
  ValueSet out = a;
  out.union_with(b);
  return out;
}

// a := a ∪ b, reusing a's storage.
inline void set_union_inplace(ValueSet& a, const ValueSet& b) {
  a.union_with(b);
}

// Intersection of two value sets (merge-based).
inline ValueSet set_intersect(const ValueSet& a, const ValueSet& b) {
  ValueSet out = a;
  out.intersect_with(b);
  return out;
}

// a := a ∩ b, in place (no allocation).
inline void set_intersect_inplace(ValueSet& a, const ValueSet& b) {
  a.intersect_with(b);
}

// `s \ {⊥}`.
inline ValueSet minus_bottom(ValueSet s) {
  s.erase(Value::Bottom());
  return s;
}

// True iff `s ⊆ allowed` (single merge scan).
inline bool subset_of(const ValueSet& s, const ValueSet& allowed) {
  return s.subset_of(allowed);
}

// Deterministic content hash of a sorted value set (order-dependent fold
// over an already-canonical order, so equal sets hash equal).  Used by the
// batch interner to dedup message payloads by digest.
inline std::uint64_t stable_hash(const ValueSet& s) {
  std::uint64_t h = 0xa0761d6478bd642fULL ^ s.size();
  for (const Value& v : s) {
    h ^= v.stable_hash();
    h *= 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  return h;
}

inline std::string to_string(const ValueSet& s) {
  std::string out = "{";
  bool first = true;
  for (const Value& v : s) {
    if (!first) out += ",";
    out += v.to_string();
    first = false;
  }
  return out + "}";
}

}  // namespace anon

template <>
struct std::hash<anon::Value> {
  std::size_t operator()(const anon::Value& v) const noexcept {
    return static_cast<std::size_t>(v.stable_hash());
  }
};
