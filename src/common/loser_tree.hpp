// Tournament (loser) tree for k-way merging.
//
// Both the multiway mergesort baseline and NMsort's Phase 2 merge Θ(N/M)
// sorted runs; a loser tree does that with ceil(log2 k) comparisons per
// emitted element and no heap churn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace tlm {

// Merges k sorted input cursors. Every node holds a contender: the head key
// of a run together with the run index and whether the run is exhausted, so
// a replay compares contenders and never reads a cursor. Contenders order by
// (exhausted, key, run): exhausted runs always lose and sink to the bottom
// of the tournament, and ties between equal keys go to the lower run index,
// which makes the merge stable.
//
// Unsigned integer keys of at most 64 bits under std::less pack a contender
// into one 128-bit word, exhausted << 96 | key << 32 | run, so a replay step
// is one unsigned compare and two conditional moves. Every other key type
// compares the same three fields in the same order.
template <typename T, typename Compare = std::less<T>>
class LoserTree {
 public:
  struct Run {
    const T* begin = nullptr;
    const T* end = nullptr;
  };

  explicit LoserTree(std::vector<Run> runs, Compare cmp = Compare())
      : runs_(std::move(runs)), cmp_(cmp) {
    TLM_REQUIRE(!runs_.empty(), "loser tree needs at least one run");
    if constexpr (kPacked)
      TLM_REQUIRE(runs_.size() <= std::numeric_limits<std::uint32_t>::max(),
                  "packed loser tree needs the run count to fit 32 bits");
    const std::size_t k = runs_.size();
    m_ = 1;
    while (m_ < k) m_ <<= 1;
    // Pad with permanently-empty runs so every leaf participates in the
    // tournament and every internal node gets a well-defined loser.
    runs_.resize(m_, Run{});
    remaining_ = 0;
    for (std::size_t i = 0; i < k; ++i)
      remaining_ += static_cast<std::size_t>(runs_[i].end - runs_[i].begin);
    // Bottom-up build: winners[node] is the best contender below `node`;
    // the node itself keeps the loser of the match between its children.
    tree_.resize(m_);
    std::vector<Contender> winners(2 * m_);
    for (std::size_t i = 0; i < m_; ++i) winners[m_ + i] = head(i);
    for (std::size_t node = m_ - 1; node >= 1; --node) {
      const Contender& a = winners[2 * node];
      const Contender& b = winners[2 * node + 1];
      const bool a_wins = before(a, b);
      winners[node] = a_wins ? a : b;
      tree_[node] = a_wins ? b : a;
    }
    winner_ = winners[1];
  }

  bool done() const { return remaining_ == 0; }
  std::size_t remaining() const { return remaining_; }

  // Index of the run currently holding the global minimum.
  std::size_t top_run() const { return run_of(winner_); }

  // Current read cursor of run `r` — lets callers charge block-granular
  // traffic as the merge consumes each run.
  const T* cursor(std::size_t r) const { return runs_[r].begin; }

  const T& top() const {
    TLM_CHECK(!done(), "top() on exhausted loser tree");
    return *runs_[top_run()].begin;
  }

  // Pops the minimum and replays the tournament along one leaf-to-root path.
  T pop() {
    TLM_CHECK(!done(), "pop() on exhausted loser tree");
    const std::size_t r = top_run();
    T value = *runs_[r].begin++;
    --remaining_;
    replay(r);
    return value;
  }

  // Drains min(remaining, out.size()) elements into `out`; returns the count.
  std::size_t merge_into(std::span<T> out) {
    std::size_t n = 0;
    while (!done() && n < out.size()) out[n++] = pop();
    return n;
  }

 private:
  static constexpr bool kPacked =
      std::is_integral_v<T> && std::is_unsigned_v<T> &&
      !std::is_same_v<T, bool> && sizeof(T) <= sizeof(std::uint64_t) &&
      (std::is_same_v<Compare, std::less<T>> ||
       std::is_same_v<Compare, std::less<>>);

  __extension__ using Word = unsigned __int128;
  struct Fields {
    bool exhausted = true;
    T key{};
    std::size_t run = 0;
  };
  using Contender = std::conditional_t<kPacked, Word, Fields>;

  // The contender of run `r`: its head key, or exhausted.
  Contender head(std::size_t r) const {
    const Run& run = runs_[r];
    if constexpr (kPacked) {
      if (run.begin == run.end) return Word{1} << 96 | r;
      return Word{*run.begin} << 32 | r;
    } else {
      if (run.begin == run.end) return Fields{true, T{}, r};
      return Fields{false, *run.begin, r};
    }
  }

  static std::size_t run_of(const Contender& c) {
    if constexpr (kPacked)
      return static_cast<std::uint32_t>(c);
    else
      return c.run;
  }

  // True when contender `a` sorts before contender `b`.
  bool before(const Contender& a, const Contender& b) const {
    if constexpr (kPacked) {
      return a < b;
    } else {
      if (a.exhausted != b.exhausted) return b.exhausted;
      if (!a.exhausted) {
        if (cmp_(a.key, b.key)) return true;
        if (cmp_(b.key, a.key)) return false;
      }
      return a.run < b.run;  // stable tie-break on run index
    }
  }

  // Run `r`'s new head climbs from its leaf to the root; at each node the
  // better of the two contenders moves on and the other stays as the loser.
  void replay(std::size_t r) {
    Contender cur = head(r);
    for (std::size_t node = (r + m_) / 2; node >= 1; node /= 2) {
      Contender& loser = tree_[node];
      const bool swap = before(loser, cur);
      const Contender up = swap ? loser : cur;
      loser = swap ? cur : loser;
      cur = up;
    }
    winner_ = cur;
  }

  std::vector<Run> runs_;  // runs_[r].begin is run r's read cursor
  Compare cmp_;
  std::size_t m_ = 0;  // leaves in the padded complete tree
  std::vector<Contender> tree_;
  Contender winner_{};
  std::size_t remaining_ = 0;
};

}  // namespace tlm
