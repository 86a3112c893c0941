#include "sim/cache.hpp"

#include "common/math.hpp"

namespace tlm::sim {

Cache::Cache(Simulator& sim, CacheConfig cfg, MemPort* downstream)
    : sim_(sim),
      lane_(sim.add_lane()),
      cfg_(std::move(cfg)),
      downstream_(downstream) {
  TLM_REQUIRE(downstream_ != nullptr, "cache needs a downstream port");
  TLM_REQUIRE(cfg_.line_bytes > 0 && cfg_.ways > 0, "bad cache geometry");
  sets_ = cfg_.size_bytes / (static_cast<std::uint64_t>(cfg_.line_bytes) *
                             cfg_.ways);
  TLM_REQUIRE(sets_ >= 1, "cache smaller than one set");
  TLM_REQUIRE(is_pow2(cfg_.line_bytes) && is_pow2(sets_),
              "cache line size and set count must be powers of two");
  line_shift_ = ilog2(cfg_.line_bytes);
  set_shift_ = ilog2(sets_);
  ways_.assign(sets_ * cfg_.ways, Way{});
}

void Cache::request(const MemReq& req) {
  sim_.schedule(lane_, cfg_.latency, [this, req] { lookup(req); });
}

Cache::Way* Cache::find(std::uint64_t addr) {
  Way* set = set_of(addr);
  const std::uint64_t tag = tag_of(addr);
  for (Way* w = set; w != set + cfg_.ways; ++w)
    if (w->tag == tag) return w;
  return nullptr;
}

Cache::Way& Cache::install(std::uint64_t addr) {
  // The victim is the first way with the smallest stamp: the first invalid
  // way (stamped 0) if there is one, else the least recently used.
  Way* set = set_of(addr);
  std::uint32_t v = 0;
  std::uint64_t oldest = set[0].lru;
  for (std::uint32_t i = 1; i < cfg_.ways; ++i) {
    const bool older = set[i].lru < oldest;
    oldest = older ? set[i].lru : oldest;
    v = older ? i : v;
  }
  Way* victim = set + v;
  if (victim->dirty) {
    ++stats_.writebacks;
    MemReq wb;
    wb.addr = (victim->tag * sets_ + set_index(addr)) * cfg_.line_bytes;
    wb.bytes = cfg_.line_bytes;
    wb.is_write = true;
    wb.posted = true;
    downstream_->request(wb);
  }
  victim->tag = tag_of(addr);
  victim->dirty = false;
  victim->lru = ++lru_clock_;
  return *victim;
}

void Cache::lookup(const MemReq& req) {
  Way* way = find(req.addr);
  if (req.is_write) {
    ++stats_.writes;
    if (way) {
      ++stats_.write_hits;
      way->dirty = true;
      way->lru = ++lru_clock_;
    } else {
      // Full-line store: install without fetching (write-combining). Trace
      // cores only emit line-granular stores, so no partial-line merge is
      // required.
      Way& w = install(req.addr);
      w.dirty = true;
    }
    if (!req.posted && req.origin) req.origin->on_response(req);
    return;
  }

  ++stats_.reads;
  if (way) {
    ++stats_.read_hits;
    way->lru = ++lru_clock_;
    if (req.origin) req.origin->on_response(req);
    return;
  }
  // Read miss: merge into an existing MSHR entry or start a fill.
  const std::uint32_t w = waiters_.acquire(Waiter{req, kNil});
  const std::uint64_t line = line_addr(req.addr);
  auto [list, fresh] = mshr_.try_emplace(line);
  if (fresh)
    list->head = w;
  else
    waiters_[list->tail].next = w;
  list->tail = w;
  if (fresh) {
    ++stats_.fills;
    MemReq fill;
    fill.addr = line;
    fill.bytes = cfg_.line_bytes;
    fill.is_write = false;
    fill.tag = line;
    fill.origin = this;
    downstream_->request(fill);
  }
}

void Cache::on_response(const MemReq& req) {
  const std::uint64_t line = line_addr(req.addr);
  const WaitList* list = mshr_.find(line);
  TLM_CHECK(list != nullptr, "fill response without an MSHR entry");
  std::uint32_t w = list->head;
  install(line);
  mshr_.erase(line);
  while (w != kNil) {
    // Recycle the node before answering: the response may start new misses.
    const MemReq waiter = waiters_[w].req;
    const std::uint32_t next = waiters_[w].next;
    waiters_.release(w);
    if (waiter.origin) waiter.origin->on_response(waiter);
    w = next;
  }
}

}  // namespace tlm::sim
