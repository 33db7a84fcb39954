#include "sim/cache.hpp"

#include <bit>
#include <stdexcept>
#include <string>

namespace daedvfs::sim {

namespace {

[[noreturn]] void bad_geometry(const char* field, const std::string& why) {
  throw std::invalid_argument(std::string("CacheConfig::") + field + " " +
                              why);
}

}  // namespace

CacheSim::CacheSim(CacheConfig cfg) : cfg_(cfg) {
  if (!std::has_single_bit(cfg_.line_bytes)) {
    bad_geometry("line_bytes", "must be a non-zero power of two, got " +
                                   std::to_string(cfg_.line_bytes));
  }
  if (cfg_.ways == 0) bad_geometry("ways", "must be non-zero");
  const uint64_t way_bytes = static_cast<uint64_t>(cfg_.line_bytes) * cfg_.ways;
  if (cfg_.size_bytes % way_bytes != 0) {
    bad_geometry("size_bytes", "must be a multiple of line_bytes * ways (" +
                                   std::to_string(way_bytes) + "), got " +
                                   std::to_string(cfg_.size_bytes));
  }
  const uint64_t sets = cfg_.size_bytes / way_bytes;
  if (!std::has_single_bit(sets)) {
    bad_geometry("size_bytes",
                 "must give a non-zero power-of-two set count, got " +
                     std::to_string(sets) + " sets");
  }
  line_shift_ = static_cast<uint32_t>(std::countr_zero(cfg_.line_bytes));
  set_shift_ = static_cast<uint32_t>(std::countr_zero(sets));
  set_mask_ = sets - 1;
  lines_.resize(static_cast<std::size_t>(sets) * cfg_.ways);
}

inline void CacheSim::touch_line(uint64_t ln, bool is_write,
                                 AccessResult& res) {
  const uint64_t tag = ln >> set_shift_;
  Line* base = &lines_[static_cast<std::size_t>(ln & set_mask_) * cfg_.ways];
  ++res.lines;

  Line* victim = &base[0];
  for (uint32_t w = 0; w < cfg_.ways; ++w) {
    Line& l = base[w];
    if (l.valid && l.tag == tag) {
      ++res.hits;
      l.lru = ++use_stamp_;
      l.dirty = l.dirty || is_write;
      return;
    }
    if (!l.valid) {
      victim = &l;  // prefer an invalid way
    } else if (victim->valid && l.lru < victim->lru) {
      victim = &l;
    }
  }

  ++res.misses;
  if (victim->valid && victim->dirty) ++res.writebacks;
  victim->valid = true;
  victim->dirty = is_write;  // write-allocate
  victim->tag = tag;
  victim->lru = ++use_stamp_;
}

void CacheSim::add_stats(const AccessResult& res) {
  stats_.accesses += res.lines;
  stats_.hits += res.hits;
  stats_.misses += res.misses;
  stats_.writebacks += res.writebacks;
}

AccessResult CacheSim::access(uint64_t vaddr, uint64_t bytes, bool is_write) {
  AccessResult res;
  if (bytes == 0) return res;
  const uint64_t last = (vaddr + bytes - 1) >> line_shift_;
  for (uint64_t ln = vaddr >> line_shift_; ln <= last; ++ln) {
    touch_line(ln, is_write, res);
  }
  add_stats(res);
  return res;
}

AccessResult CacheSim::access_strided(uint64_t vaddr, uint64_t stride,
                                      uint32_t count, uint64_t elem_bytes,
                                      bool is_write) {
  AccessResult res;
  if (elem_bytes == 0) return res;
  uint64_t prev_line = ~0ull;
  uint64_t a = vaddr;
  for (uint32_t i = 0; i < count; ++i, a += stride) {
    const uint64_t first = a >> line_shift_;
    const uint64_t last = (a + elem_bytes - 1) >> line_shift_;
    if (first == prev_line && last == prev_line) continue;
    for (uint64_t ln = first; ln <= last; ++ln) touch_line(ln, is_write, res);
    prev_line = last;
  }
  add_stats(res);
  return res;
}

uint64_t CacheSim::state_fingerprint() const {
  // FNV-1a over the way-ordered line array. Way positions matter (victim
  // selection scans ways in order when invalid lines exist); absolute LRU
  // stamps do not (only their per-set ordering among valid lines drives
  // future victim choices), so each valid line contributes its rank instead.
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ull;
    }
  };
  const uint32_t sets = cfg_.num_sets();
  for (uint32_t set = 0; set < sets; ++set) {
    const Line* base = &lines_[static_cast<std::size_t>(set) * cfg_.ways];
    for (uint32_t w = 0; w < cfg_.ways; ++w) {
      const Line& l = base[w];
      if (!l.valid) {
        mix(0);
        continue;
      }
      uint64_t rank = 0;
      for (uint32_t v = 0; v < cfg_.ways; ++v) {
        if (base[v].valid && base[v].lru < l.lru) ++rank;
      }
      mix(1 | (l.dirty ? 2 : 0) | (rank << 2));
      mix(l.tag);
    }
  }
  return h;
}

void CacheSim::flush(bool clear_stats) {
  for (Line& l : lines_) l = {};
  use_stamp_ = 0;
  if (clear_stats) stats_ = {};
}

}  // namespace daedvfs::sim
