#include "util/symbol.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/annotations.hpp"

namespace arcadia::util {

namespace {

// Storage: two-level blocks whose pointers are published with release
// stores, so Symbol::str() and the lock-free lookup below never take the
// intern lock. Addresses of interned strings are stable for the process
// lifetime.
constexpr std::size_t kBlockBits = 10;
constexpr std::size_t kBlockSize = std::size_t{1} << kBlockBits;  // 1024
constexpr std::size_t kMaxBlocks = 4096;  // 4M symbols; far beyond any model

struct Block {
  std::string items[kBlockSize];
};

// Lookup: an open-addressed (hash -> id+1) table, append-only. Readers
// probe with acquire loads and verify against the stored string — no lock
// on the hit path, which is the steady state (every model name is interned
// during the first moments of a run). Writers are serialized by the intern
// mutex; growth publishes a fresh table and retires the old one to a keep
// list (bounded by geometric doubling), so racing readers never touch
// freed memory.
struct Index {
  explicit Index(std::size_t n) : mask(n - 1), cells(new std::atomic<std::uint32_t>[n]) {
    for (std::size_t i = 0; i < n; ++i) {
      cells[i].store(0, std::memory_order_relaxed);
    }
  }
  const std::size_t mask;
  std::unique_ptr<std::atomic<std::uint32_t>[]> cells;  // id + 1; 0 = empty
};

struct InternTable {
  Mutex mu;  ///< serializes writers only; readers go through the atomics
  std::atomic<Block*> blocks[kMaxBlocks] = {};
  std::atomic<Index*> index;
  std::vector<std::unique_ptr<Index>> retired ARC_GUARDED_BY(mu);
  std::uint32_t count ARC_GUARDED_BY(mu) = 0;

  InternTable() ARC_NO_TSA {
    // (analysis off: constructors run single-threaded, but the guarded
    // members are initialized here without the — unnecessary — lock.)
    auto idx = std::make_unique<Index>(1024);
    index.store(idx.get(), std::memory_order_release);
    retired.push_back(std::move(idx));
    // id 0 is the empty symbol; it is never indexed (intern("") shortcuts).
    auto* block = new Block();
    blocks[0].store(block, std::memory_order_release);
    count = 1;
  }

  const std::string& text(std::uint32_t id) const {
    Block* block = blocks[id >> kBlockBits].load(std::memory_order_acquire);
    return block->items[id & (kBlockSize - 1)];
  }

  /// Lock-free; returns 0 when not (yet) present.
  std::uint32_t find(std::string_view sought, std::size_t hash) const {
    const Index* idx = index.load(std::memory_order_acquire);
    for (std::size_t i = hash & idx->mask;; i = (i + 1) & idx->mask) {
      const std::uint32_t v = idx->cells[i].load(std::memory_order_acquire);
      if (v == 0) return 0;
      if (text(v - 1) == sought) return v;
    }
  }

  std::uint32_t intern(std::string_view sought) {
    const std::size_t hash = std::hash<std::string_view>{}(sought);
    if (std::uint32_t hit = find(sought, hash)) return hit - 1;

    MutexLock lock(mu);
    // Re-check: another writer may have interned between probe and lock.
    if (std::uint32_t hit = find(sought, hash)) return hit - 1;

    const std::uint32_t id = count;
    const std::size_t block_idx = id >> kBlockBits;
    if (block_idx >= kMaxBlocks) {
      throw std::length_error("symbol intern table is full");
    }
    Block* block = blocks[block_idx].load(std::memory_order_relaxed);
    if (!block) {
      block = new Block();
      blocks[block_idx].store(block, std::memory_order_release);
    }
    std::string& stored = block->items[id & (kBlockSize - 1)];
    stored.assign(sought);
    ++count;

    Index* idx = index.load(std::memory_order_relaxed);
    if ((count + 1) * 2 > idx->mask + 1) {  // keep load factor under 0.5
      auto grown = std::make_unique<Index>((idx->mask + 1) * 2);
      for (std::uint32_t existing = 1; existing < count; ++existing) {
        insert_into(*grown, existing);
      }
      index.store(grown.get(), std::memory_order_release);
      retired.push_back(std::move(grown));
      idx = index.load(std::memory_order_relaxed);
    } else {
      insert_into(*idx, id);
    }
    return id;
  }

  void insert_into(Index& idx, std::uint32_t id) ARC_REQUIRES(mu) {
    const std::size_t hash = std::hash<std::string_view>{}(text(id));
    std::size_t i = hash & idx.mask;
    while (idx.cells[i].load(std::memory_order_relaxed) != 0) {
      i = (i + 1) & idx.mask;
    }
    idx.cells[i].store(id + 1, std::memory_order_release);
  }

  std::size_t size() {
    MutexLock lock(mu);
    return count;
  }
};

InternTable& table() {
  static InternTable t;
  return t;
}

}  // namespace

Symbol Symbol::intern(std::string_view text) {
  if (text.empty()) return Symbol();
  return Symbol(table().intern(text));
}

std::optional<Symbol> Symbol::lookup(std::string_view text) {
  if (text.empty()) return Symbol();
  const std::size_t hash = std::hash<std::string_view>{}(text);
  const std::uint32_t hit = table().find(text, hash);
  if (hit == 0) return std::nullopt;
  return Symbol(hit - 1);
}

const std::string& Symbol::str() const { return table().text(id_); }

std::size_t Symbol::interned_count() { return table().size(); }

}  // namespace arcadia::util
