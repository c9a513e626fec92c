#include "shm/register_sim.hpp"

#include <algorithm>
#include <functional>

namespace anon {

void StepScheduler::inject(std::uint64_t start_tick,
                           std::unique_ptr<StepOp> op, DoneFn done) {
  ops_.push_back({std::move(op), std::move(done)});
  starts_.emplace_back(start_tick, ops_.size() - 1);
  std::push_heap(starts_.begin(), starts_.end(), std::greater<>());
  const std::size_t size = tree_.empty() ? 0 : tree_.size() - 1;
  if (ops_.size() <= size) return;
  // Grow the tree to the next power of two and rebuild it in O(size).
  std::size_t grown = std::max<std::size_t>(size * 2, 64);
  while (grown < ops_.size()) grown *= 2;
  tree_.assign(grown + 1, 0);
  for (std::size_t i = 0; i < ops_.size(); ++i)
    if (ops_[i].started && ops_[i].op) tree_[i + 1] = 1;
  for (std::size_t x = 1; x <= grown; ++x) {
    const std::size_t parent = x + (x & (~x + 1));
    if (parent <= grown) tree_[parent] += tree_[x];
  }
}

void StepScheduler::mark_runnable(std::size_t i, bool on) {
  for (std::size_t x = i + 1; x < tree_.size(); x += x & (~x + 1))
    tree_[x] = on ? tree_[x] + 1 : tree_[x] - 1;
  runnable_ = on ? runnable_ + 1 : runnable_ - 1;
}

std::size_t StepScheduler::select_runnable(std::uint64_t j) const {
  // Descend to the largest prefix holding at most j runnable ops; the next
  // index is the (j+1)-th runnable one.
  std::size_t pos = 0;
  for (std::size_t step = tree_.size() - 1; step > 0; step /= 2) {
    if (pos + step < tree_.size() && tree_[pos + step] <= j) {
      pos += step;
      j -= tree_[pos];
    }
  }
  return pos;
}

std::uint64_t StepScheduler::run() {
  for (;;) {
    while (!starts_.empty() && starts_.front().first <= tick_) {
      const std::size_t i = starts_.front().second;
      std::pop_heap(starts_.begin(), starts_.end(), std::greater<>());
      starts_.pop_back();
      ops_[i].started = true;
      mark_runnable(i, true);
    }
    if (runnable_ == 0) {
      if (starts_.empty()) return tick_;
      tick_ = starts_.front().first;  // idle ticks until the next injection
      continue;
    }
    const std::size_t pick = select_runnable(rng_.below(runnable_));
    ++tick_;
    if (ops_[pick].op->step()) {
      mark_runnable(pick, false);
      auto done = std::move(ops_[pick].done);
      ops_[pick].op.reset();
      if (done) done(tick_);
    }
  }
}

}  // namespace anon
