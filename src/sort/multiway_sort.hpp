// Parallel multiway mergesort — the from-scratch equivalent of the GNU
// parallel sort (MCSTL [27]) the paper benchmarks against and also calls as
// its in-scratchpad subroutine.
//
// Structure: parallel formation of sorted runs (sized to the per-core cache
// share, and never fewer runs than threads), then repeated k-way merge
// passes until one run remains. The run-formation pipeline (form_and_merge:
// form the runs, merge passes until at most k remain) and its finish into
// far memory (finish_runs) are exposed in detail:: so NMsort and the
// write-efficient sort fuse their far->near->far chunk pipelines out of the
// same steps without redundant staging copies.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/math.hpp"
#include "common/units.hpp"
#include "scratchpad/machine.hpp"
#include "sort/merge.hpp"
#include "sort/runs.hpp"

namespace tlm::sort {

namespace detail {

struct RunLayout {
  std::uint64_t run_elems = 0;
  std::uint64_t nruns = 0;
  std::size_t fan = 0;
  std::size_t passes = 0;  // merge passes until a single run remains
};

// The run geometry of sorting `n` elements on `m`, from its cache size and
// thread count alone. Runs are an eighth of the configured cache, at least
// 4 KiB: the per-core share of a quad-core group's L2 leaves room for the
// output. The fan-in is the number of refill buffers that fit in half the
// cache — the practical form of the model's Θ(Z/L) branching factor, which
// makes the single-level baseline pay multiple merge passes once N/Z
// outgrows it, exactly as the paper's GNU sort does.
template <typename T>
RunLayout plan_runs(const Machine& m, std::uint64_t n) {
  RunLayout L;
  const std::uint64_t run_bytes =
      std::max<std::uint64_t>(m.config().cache_bytes / 8, 4 * KiB);
  // Never fewer runs than threads: formation must parallelize even when the
  // operand is small (NMsort chunks on many-core nodes) — but runs below a
  // few hundred elements are pure overhead.
  const std::uint64_t balanced =
      std::max<std::uint64_t>(256, ceil_div(n, m.threads()));
  L.run_elems = std::max<std::uint64_t>(
      16, std::min(run_bytes / sizeof(T), balanced));
  L.nruns = std::max<std::uint64_t>(1, ceil_div(n, L.run_elems));

  L.fan = static_cast<std::size_t>(std::clamp<std::uint64_t>(
      m.config().cache_bytes / (2 * kRefillBytes), 4, 64));
  for (std::uint64_t r = L.nruns; r > 1; r = ceil_div(r, L.fan)) ++L.passes;
  return L;
}

// Unsigned integer keys under plain `<` have one sorted order whatever
// algorithm produces it, so host_sort_into may order them by their digits.
template <typename T, typename Cmp>
inline constexpr bool kRadixSortable =
    std::is_integral_v<T> && std::is_unsigned_v<T> &&
    !std::is_same_v<T, bool> &&
    (std::is_same_v<Cmp, std::less<T>> || std::is_same_v<Cmp, std::less<>>);

// Below this many keys a bucket is finished by insertion sort.
inline constexpr std::size_t kRadixInsertionBelow = 32;

template <typename T>
void insertion_sort(T* a, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const T x = a[i];
    std::size_t j = i;
    for (; j > 0 && x < a[j - 1]; --j) a[j] = a[j - 1];
    a[j] = x;
  }
}

// American flag sort (McIlroy, Bostic & McIlroy 1993): an in-place MSD radix
// sort on 8-bit digits, starting at the digit whose lowest bit is `shift`.
// Each level counts digits, permutes keys into their buckets by cycle
// swaps, and recurses into every bucket on the next digit, so the depth is
// at most sizeof(T) levels and no buffer is allocated.
template <typename T>
void american_flag_sort(T* a, std::size_t n, unsigned shift) {
  for (;;) {
    if (n < kRadixInsertionBelow) {
      insertion_sort(a, n);
      return;
    }
    const auto digit = [shift](T x) {
      return static_cast<unsigned>(x >> shift) & 0xffu;
    };
    std::size_t end[256] = {};
    for (std::size_t i = 0; i < n; ++i) ++end[digit(a[i])];
    // One bucket holds every key: this digit is already in order.
    if (end[digit(a[0])] == n) {
      if (shift == 0) return;
      shift -= 8;
      continue;
    }
    std::size_t next[256];
    std::size_t sum = 0;
    for (unsigned d = 0; d < 256; ++d) {
      next[d] = sum;
      sum += end[d];
      end[d] = sum;
    }
    for (unsigned d = 0; d < 256; ++d) {
      while (next[d] < end[d]) {
        T x = a[next[d]];
        for (unsigned e = digit(x); e != d; e = digit(x))
          std::swap(x, a[next[e]++]);
        a[next[d]++] = x;
      }
    }
    if (shift == 0) return;
    std::size_t b = 0;
    for (unsigned d = 0; d < 256; b = end[d++])
      if (end[d] - b > 1) american_flag_sort(a + b, end[d] - b, shift - 8);
    return;
  }
}

// At most 2^12 buckets in radix_scatter's one pass.
inline constexpr unsigned kScatterMaxBits = 12;

// Sorts the `n` keys of `src` into `dst` (disjoint) with one counting pass
// and one scatter pass. The digit is the top `bits` bits of the range in
// which the keys differ, bits = bit_width(n) − 1 (one or two keys per
// bucket) capped at kScatterMaxBits and at the range's width. The counting
// pass assumes the range reaches the key's top bit, as it does for random
// keys, and folds x ^ src[0] to learn the range; only a narrower range
// counts again. When every bucket holds fewer than kRadixInsertionBelow
// keys, one insertion sort over `dst` finishes them all (no key moves past
// its bucket); otherwise each bucket finishes on its own, the large ones by
// american_flag_sort from the next byte-aligned digit.
template <typename T>
void radix_scatter(const T* src, T* dst, std::size_t n) {
  constexpr unsigned kWidth = 8 * sizeof(T);
  unsigned bits = std::clamp(static_cast<unsigned>(std::bit_width(n)) - 1,
                             1u, std::min(kScatterMaxBits, kWidth));
  unsigned shift = kWidth - bits;
  std::size_t mask = (std::size_t{1} << bits) - 1;
  std::size_t pos[std::size_t{1} << kScatterMaxBits];
  const auto digit = [&](T x) {
    return static_cast<std::size_t>(x >> shift) & mask;
  };
  std::fill_n(pos, mask + 1, 0);
  const T first = src[0];
  T diff = 0;
  for (std::size_t i = 0; i < n; ++i) {
    diff |= static_cast<T>(src[i] ^ first);
    ++pos[digit(src[i])];
  }
  const unsigned width = static_cast<unsigned>(std::bit_width(diff));
  if (width == 0) {  // every key equal
    std::memcpy(dst, src, n * sizeof(T));
    return;
  }
  if (width < kWidth) {
    bits = std::min(bits, width);
    shift = width - bits;
    mask = (std::size_t{1} << bits) - 1;
    std::fill_n(pos, mask + 1, 0);
    for (std::size_t i = 0; i < n; ++i) ++pos[digit(src[i])];
  }
  std::size_t sum = 0, largest = 0;
  for (std::size_t d = 0; d <= mask; ++d) {
    largest = std::max(largest, pos[d]);
    sum += std::exchange(pos[d], sum);
  }
  for (std::size_t i = 0; i < n; ++i) dst[pos[digit(src[i])]++] = src[i];
  // Keys in one bucket agree on every bit from `shift` up; with shift == 0
  // they are equal.
  if (shift == 0) return;
  if (largest < kRadixInsertionBelow) {
    insertion_sort(dst, n);
    return;
  }
  const unsigned next_shift = (shift - 1) / 8 * 8;
  std::size_t b = 0;  // pos[d] is now the end of bucket d
  for (std::size_t d = 0; d <= mask; b = pos[d++]) {
    const std::size_t len = pos[d] - b;
    if (len > 1) american_flag_sort(dst + b, len, next_shift);
  }
}

// The host algorithm that physically orders a run: sorts the `n` elements
// of `src` into `dst`, which is either `src` itself or disjoint from it.
// `spare`, when given, is n elements of scratch the caller has allocated
// through the Machine and does not need (its contents are lost); it is used
// only when src == dst. The Machine charges for sorting analytically
// (callers charge n·lg n compute and their own passes), so how the keys get
// ordered here is free as long as the order is the one `cmp` defines: radix
// keys go through radix_scatter when they can be scattered into another
// buffer and through the in-place american_flag_sort otherwise, everything
// else through std::sort.
template <typename T, typename Cmp>
void host_sort_into(const T* src, T* dst, std::size_t n,
                    std::type_identity_t<T>* spare, [[maybe_unused]] Cmp cmp) {
  if (n == 0) return;
  if constexpr (kRadixSortable<T, Cmp>) {
    if (src != dst) {
      radix_scatter(src, dst, n);
    } else if (spare != nullptr) {
      std::memcpy(spare, src, n * sizeof(T));
      radix_scatter(spare, dst, n);
    } else {
      american_flag_sort(dst, n, 8 * (sizeof(T) - 1));
    }
  } else {
    if (src != dst) std::memcpy(dst, src, n * sizeof(T));
    std::sort(dst, dst + n, cmp);
  }
}

// Sorts `n` elements from `src` into `dst` (which may alias `src`) and
// charges one read plus one write pass and n·lg(n) compute. `spare` is as
// for host_sort_into.
template <typename T, typename Cmp>
void form_run(Machine& m, std::size_t thread, const T* src, T* dst,
              std::uint64_t n, Cmp cmp, T* spare = nullptr) {
  if (n == 0) return;
  m.stream_read(thread, src, n * sizeof(T));
  host_sort_into(src, dst, static_cast<std::size_t>(n), spare, cmp);
  m.stream_write(thread, dst, n * sizeof(T));
  m.compute(thread, static_cast<double>(n) *
                        std::log2(static_cast<double>(n) + 2));
}

// Forms all runs of `L` in parallel, reading from `src` and writing to
// `dst` (which may alias `src` for in-place formation). `spare`, when given,
// is n elements of Machine-allocated scratch; each run uses only its own
// range of it.
template <typename T, typename Cmp>
void form_runs(Machine& m, const T* src, T* dst, std::uint64_t n,
               const RunLayout& L, Cmp cmp, T* spare = nullptr) {
  m.parallel_for(0, static_cast<std::size_t>(L.nruns),
                 [&](std::size_t w, std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) {
                     const std::uint64_t b =
                         static_cast<std::uint64_t>(i) * L.run_elems;
                     const std::uint64_t len = std::min(L.run_elems, n - b);
                     form_run(m, w, src + b, dst + b, len, cmp,
                              spare ? spare + b : nullptr);
                   }
                 });
}

// The runs of group `g` in a buffer holding `cur_runs` runs of `run_len`.
template <typename T>
std::vector<Run<T>> group_runs(const T* src, std::uint64_t n,
                               std::uint64_t run_len, std::uint64_t cur_runs,
                               std::size_t fan, std::uint64_t g) {
  std::vector<Run<T>> rs;
  const std::uint64_t first = g * fan;
  const std::uint64_t last = std::min<std::uint64_t>(first + fan, cur_runs);
  rs.reserve(static_cast<std::size_t>(last - first));
  for (std::uint64_t r = first; r < last; ++r) {
    const std::uint64_t b = r * run_len;
    const std::uint64_t e = std::min(b + run_len, n);
    if (b < e) rs.push_back(Run<T>{src + b, src + e});
  }
  return rs;
}

// One k-way merge pass over all `cur_runs` runs: src -> dst. Builds a flat
// task list — one task per (group, merge-path part) — and executes it in a
// single SPMD section, so the pass parallelizes whether there are many
// small groups, few large ones, or anything between. Each task finds its
// own two exact rank cuts inside that section (Merge Path), so the parts
// stay balanced even when every key in a group is identical and no worker
// computes another's partition. Returns the number of runs remaining.
template <typename T, typename Cmp>
std::uint64_t merge_pass(Machine& m, const T* src, T* dst, std::uint64_t n,
                         std::uint64_t run_len, std::uint64_t cur_runs,
                         std::size_t fan, Cmp cmp) {
  const std::uint64_t groups = ceil_div(cur_runs, fan);
  struct Group {
    std::vector<Run<T>> runs;
    std::uint64_t total;
    std::size_t parts;
  };
  struct Task {
    std::size_t group;
    std::size_t part;
    std::uint64_t elems;  // the slice its worker merged
  };
  // Split large groups so every core has work even on the last passes; cap
  // the split so small groups stay whole.
  const std::size_t per_group_cap = static_cast<std::size_t>(
      std::max<std::uint64_t>(1, 2 * m.threads() / groups));
  std::vector<Group> gs;
  gs.reserve(static_cast<std::size_t>(groups));
  std::vector<Task> tasks;
  for (std::uint64_t g = 0; g < groups; ++g) {
    auto rs = group_runs(src, n, run_len, cur_runs, fan, g);
    const std::uint64_t total = total_size(rs);
    const std::size_t parts =
        static_cast<std::size_t>(std::clamp<std::uint64_t>(
            total / kMinPartElems, 1, per_group_cap));
    for (std::size_t p = 0; p < parts; ++p)
      tasks.push_back(Task{gs.size(), p, 0});
    gs.push_back(Group{std::move(rs), total, parts});
  }
  m.run_spmd([&](std::size_t w) {
    for (std::size_t t = w; t < tasks.size(); t += m.threads()) {
      Task& task = tasks[t];
      const Group& g = gs[task.group];
      const std::vector<Run<T>> slice =
          part_slice(m, w, g.runs, g.total, g.parts, task.part, cmp);
      task.elems = total_size(slice);
      T* out = dst + static_cast<std::uint64_t>(task.group) * run_len * fan;
      merge_runs_charged(m, w, slice,
                         out + part_rank(g.total, g.parts, task.part), cmp);
    }
  });
  // Tasks are listed group by group, so each split group's parts are
  // contiguous and the orchestrator records its largest merged slice.
  for (std::size_t t = 0; t < tasks.size();) {
    const Group& g = gs[tasks[t].group];
    std::uint64_t max_slice = 0;
    for (std::size_t p = 0; p < g.parts; ++p, ++t)
      max_slice = std::max(max_slice, tasks[t].elems);
    if (g.parts > 1) m.note_partition(0, g.parts, max_slice, g.total);
  }
  return groups;
}

// Where the run-formation pipeline left its `n` elements: `runs` sorted
// runs of `run_len` elements (the last may be shorter) at `data`; `spare` is
// the other buffer of the ping-pong pair.
template <typename T>
struct RunSet {
  T* data;
  T* spare;
  std::uint64_t n;
  std::uint64_t run_len;
  std::uint64_t runs;

  std::vector<Run<T>> all() const {
    return group_runs<T>(data, n, run_len, runs, runs, 0);
  }
};

// The run-formation pipeline: forms the runs of `L` from `src` into `a`,
// then merges passes between `a` and `b` until at most L.fan runs remain.
// Formation in place (src == a) sorts each run through `b`, the ping-pong
// buffer whose contents the pipeline does not keep.
template <typename T, typename Cmp>
RunSet<T> form_and_merge(Machine& m, const T* src, T* a, T* b,
                         std::uint64_t n, const RunLayout& L, Cmp cmp) {
  form_runs(m, src, a, n, L, cmp, b);
  RunSet<T> rs{a, b, n, L.run_elems, L.nruns};
  while (rs.runs > L.fan) {
    rs.runs = merge_pass(m, rs.data, rs.spare, n, rs.run_len, rs.runs, L.fan,
                         cmp);
    std::swap(rs.data, rs.spare);
    rs.run_len *= L.fan;
  }
  return rs;
}

// Finishes the runs into `out` (far): a parallel copy when one run is
// left, one parallel multiway merge of all of them otherwise.
template <typename T, typename Cmp>
void finish_runs(Machine& m, const RunSet<T>& rs, std::span<T> out, Cmp cmp) {
  if (rs.runs == 1)
    m.parallel_copy(out.data(), rs.data, rs.n);
  else
    parallel_multiway_merge(m, rs.all(), out, cmp);
}

}  // namespace detail

template <typename T, typename Cmp = std::less<T>>
void multiway_merge_sort(Machine& m, std::span<T> data, Cmp cmp = {}) {
  const std::uint64_t n = data.size();
  if (n <= 1) return;
  const detail::RunLayout L = detail::plan_runs<T>(m, n);

  if (L.nruns == 1) {
    detail::form_run(m, 0, data.data(), data.data(), n, cmp);
    return;
  }

  // Ping-pong parity: land the final run back in `data`. The buffer for
  // near-resident data degrades to far under quota or arena pressure.
  const bool form_into_temp = (L.passes % 2 == 1);
  std::span<T> temp = m.space_of(data.data()) == Space::Near
                          ? m.alloc_array_near_or_far<T>(n)
                          : m.alloc_array<T>(Space::Far, n);

  detail::RunSet<T> rs = detail::form_and_merge(
      m, data.data(), form_into_temp ? temp.data() : data.data(),
      form_into_temp ? data.data() : temp.data(), n, L, cmp);
  // The last pass merges the (at most fan, at least two) runs left.
  rs.runs = detail::merge_pass(m, rs.data, rs.spare, n, rs.run_len, rs.runs,
                               L.fan, cmp);
  TLM_CHECK(rs.runs == 1 && rs.spare == data.data(),
            "ping-pong parity failed to land in data");

  m.free_array(temp);
}

}  // namespace tlm::sort
