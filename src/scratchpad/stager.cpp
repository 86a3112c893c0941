#include "scratchpad/stager.hpp"

#include "common/assert.hpp"
#include "common/thread_pool.hpp"

namespace tlm {

Stager::Stager(Machine& m, Options opt, std::source_location loc)
    : m_(m), opt_(opt), loc_(loc) {
  TLM_REQUIRE(opt_.buffer_bytes > 0, "stager needs a staging buffer size");
  TLM_REQUIRE(opt_.elem_bytes > 0, "stager element granularity must be >= 1");
  // The front buffer exists for the stager's whole lifetime; the back
  // buffer is allocated lazily, the first time a prefetch actually needs
  // it, so single-batch and non-overlapping runs never pay for it. Denial
  // of the front buffer is the bottom rung: direct-from-far processing.
  if (buffer(0) == nullptr) degrade(Level::kDirect);
}

Stager::~Stager() { release(); }

void Stager::release() {
  if (released_) return;
  released_ = true;
  for (int i = 1; i >= 0; --i) {
    if (!bufs_[i].empty()) {
      m_.dealloc(Space::Near, bufs_[i].data());
      bufs_[i] = {};
    }
  }
  m_.note_stager(stats_);
}

std::byte* Stager::buffer(std::size_t i) {
  if (bufs_[i].empty()) {
    const auto buf = m_.try_alloc_near(opt_.buffer_bytes, loc_);
    if (!buf) return nullptr;  // caller steps the ladder
    bufs_[i] = *buf;
  }
  return bufs_[i].data();
}

void Stager::degrade(Level to) {
  if (level_ >= to) return;  // the ladder only steps down
  level_ = to;
  if (to == Level::kSingle)
    ++stats_.degrade_to_single;
  else
    ++stats_.degrade_to_direct;
}

void Stager::sync_gather(const Item& it, std::byte* dst) {
  if (opt_.gather == Gather::kSequential) {
    for (const Slice& s : it.slices)
      if (s.bytes) m_.copy(0, dst + s.dst_off, s.src, s.bytes, loc_);
    return;
  }
  // One parallel copy per slice, one burst per worker over its
  // element-aligned chunk.
  const std::uint64_t eb = opt_.elem_bytes;
  for (const Slice& s : it.slices)
    m_.parallel_copy(dst + s.dst_off, s.src, s.bytes / eb, eb, loc_);
}

void Stager::post_prefetch(const Item& it, std::byte* dst) {
  for (const Slice& s : it.slices)
    if (s.bytes)
      m_.dma_copy(DmaKey{}, 0, dst + s.dst_off, s.src, s.bytes, loc_);
}

Stager::WorkerHook Stager::make_hook(const Item& it, std::byte* dst) {
  const std::uint64_t eb = opt_.elem_bytes;
  return [this, item = &it, dst, eb](std::size_t w) {
    for (const Slice& s : item->slices) {
      auto [lo, hi] = ThreadPool::chunk(
          static_cast<std::size_t>(s.bytes / eb), w, m_.threads());
      if (lo < hi)
        m_.dma_copy(DmaKey{}, w, dst + s.dst_off + lo * eb, s.src + lo * eb,
                    static_cast<std::uint64_t>(hi - lo) * eb, loc_);
    }
  };
}

void Stager::run(std::span<const Item> items, const ProcessFn& process) {
  TLM_REQUIRE(!released_, "stager used after release()");
  if (level_ == Level::kDirect) {
    // Bottom rung: no staging buffer exists. Every item takes the same
    // null-data path the oversized escape hatch uses — the callback works
    // directly out of far memory.
    for (const Item& it : items) {
      // Cancellation checkpoint: between direct items nothing is staged or
      // in flight, so an unwind here touches no DMA state.
      m_.poll_cancel();
      ++stats_.fallback_direct;
      process(it, nullptr, WorkerHook{});
    }
    return;
  }
  const bool pipelined =
      opt_.double_buffer && m_.config().overlap_dma && items.size() > 1;
  std::size_t cur = 0;      // staging buffer the current item reads from
  bool prefetched = false;  // bufs_[cur] already holds this item's data
  bool pipeline_ran = false;
  for (std::size_t i = 0; i < items.size(); ++i) {
    // Cancellation checkpoint at the batch boundary: a prefetch posted for
    // this item was fenced by the previous process callback's barrier, so
    // an unwind here never abandons an in-flight DMA transfer.
    m_.poll_cancel();
    const Item& it = items[i];
    if (it.oversized) {
      // Escape hatch: processed directly from far memory. A prefetch is
      // never posted *for* an oversized item, so the pipeline is
      // necessarily cold here and restarts afterwards — the next staged
      // item gathers synchronously.
      TLM_CHECK(!prefetched, "oversized item cannot have been prefetched");
      ++stats_.fallback_direct;
      if (pipeline_ran) {
        ++stats_.restarts;
        pipeline_ran = false;
      }
      process(it, nullptr, WorkerHook{});
      continue;
    }
    TLM_REQUIRE(it.bytes <= opt_.buffer_bytes,
                "stager item exceeds the staging buffer");
    std::byte* dst = buffer(cur);
    if (!prefetched) {
      // The first staged item, any item following an oversized fallback,
      // and every item when the pipeline is off.
      sync_gather(it, dst);
      stats_.sync_bytes += it.bytes;
    }
    WorkerHook hook;
    bool posted = false;
    if (pipelined && level_ == Level::kDouble && i + 1 < items.size() &&
        !items[i + 1].oversized) {
      std::byte* ndst = buffer(cur ^ 1);
      if (ndst == nullptr) {
        // The back buffer was denied: single-buffered from here on. The
        // current batch is already staged, so nothing is lost — only the
        // overlap of the next gather.
        degrade(Level::kSingle);
      } else {
        if (opt_.worker_hook)
          hook = make_hook(items[i + 1], ndst);
        else
          post_prefetch(items[i + 1], ndst);
        posted = true;
        stats_.prefetch_bytes += items[i + 1].bytes;
        ++stats_.prefetch_batches;
        pipeline_ran = true;
      }
    }
    process(it, dst, hook);
    ++stats_.batches;
    if (posted) {
      prefetched = true;
      cur ^= 1;
    } else {
      prefetched = false;
    }
  }
}

std::vector<Stager::Range> Stager::plan(std::span<const std::uint64_t> sizes,
                                        std::uint64_t cap) {
  std::vector<Range> out;
  for (std::size_t r = 0; r < sizes.size();) {
    std::size_t k = r;
    std::uint64_t acc = 0;
    while (k < sizes.size() && acc + sizes[k] <= cap) {
      acc += sizes[k];
      ++k;
    }
    if (k == r) {
      out.push_back(Range{r, r + 1, sizes[r], true});
      r = r + 1;
    } else {
      out.push_back(Range{r, k, acc, false});
      r = k;
    }
  }
  return out;
}

}  // namespace tlm
