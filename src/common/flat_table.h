// One open-addressing hash table, in map (FlatMap) and set (FlatSet) forms,
// for the lookups every frame pays: SimNetwork's node records,
// GroupMessageReceiver's entries and both TwoGenerationSet generations.
//
// Layout: one array of capacity + 1 slots, the capacity a power of two. A
// slot is the entry itself (a set's key, or a map's key and value), and a
// slot whose key equals Key{} is empty, so occupancy costs no byte and a
// probe reads one slot. Key{} is still a legal key: it lives in the extra
// slot at index capacity, which no probe reaches, under a flag. So the
// table stores every key, including any a peer can put on the wire.
//
// Lookup probes linearly from hash & (capacity - 1). The table doubles
// before an insert would pass 3/4 load; a table whose entries go stale
// calls make_room first, which erases them instead where that suffices.
// Erase shifts the rest of the probe run back over the hole (no
// tombstones), so a miss stops at the first empty slot however many
// erases ran.
//
// Entries move: an insert can grow the table, and an erase (make_room's
// too) shifts entries, so a pointer or iterator into the table is valid
// only until the next insert, erase or make_room. A map's value may hold its own heap buffers (a vector
// keeps its buffer when moved). Iteration order follows the hash: iterate
// only where order cannot leak (a count, a per-entry reset, an order-free
// erase predicate), or sort what it collects.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

namespace atum {

// murmur3's 64-bit finalizer: every input bit reaches every output bit, so
// the low bits the mask keeps are as good as the high ones. Sequential keys
// such as node ids would otherwise fill one run of adjacent slots, and
// every miss would walk it.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// The default hash, for keys that are one or two 64-bit words without
// padding (NodeId, GroupMessageId, BroadcastId), so equal keys have equal
// bytes. No division anywhere: the table masks the mixed value.
template <typename Key>
struct FlatHash {
  static_assert(std::is_trivially_copyable_v<Key> &&
                std::has_unique_object_representations_v<Key> &&
                (sizeof(Key) == 8 || sizeof(Key) == 16));
  std::uint64_t operator()(const Key& key) const noexcept {
    std::uint64_t w[2] = {0, 0};
    std::memcpy(w, &key, sizeof key);
    return mix64(w[0] + w[1] * 0x9e3779b97f4a7c15ULL);
  }
};

// Mapped = void makes a set. Hash returns 64 bits whose low bits pick the
// home slot.
template <typename Key, typename Mapped, typename Hash = FlatHash<Key>>
class FlatTable {
  static constexpr bool kIsSet = std::is_void_v<Mapped>;

 public:
  // A map's entry is a (key, value) pair; do not change its key.
  using value_type = std::conditional_t<kIsSet, Key, std::pair<Key, Mapped>>;

  FlatTable() = default;
  FlatTable(FlatTable&& other) noexcept { swap(other); }
  FlatTable& operator=(FlatTable&& other) noexcept {
    FlatTable(std::move(other)).swap(*this);
    return *this;
  }

  void swap(FlatTable& other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(capacity_, other.capacity_);
    std::swap(size_, other.size_);
    std::swap(has_empty_key_, other.has_empty_key_);
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }  // 0 before the first insert
  bool contains(const Key& key) const { return index_of(key) != kNone; }

  // Map form: the value for `key`, or null.
  template <typename M = Mapped>
    requires(!kIsSet)
  M* find(const Key& key) {
    const std::size_t i = index_of(key);
    return i == kNone ? nullptr : &slots_[i].second;
  }
  // Map form: the value for `key`, default-constructed if absent.
  template <typename M = Mapped>
    requires(!kIsSet)
  M& operator[](const Key& key) {
    return slots_[insert_index(key).first].second;
  }
  // Set form: adds `key`; false if it was already present.
  bool insert(const Key& key)
    requires kIsSet
  {
    return insert_index(key).second;
  }

  std::size_t erase(const Key& key) {
    const std::size_t i = index_of(key);
    if (i == kNone) return 0;
    erase_at(i);
    return 1;
  }

  // Erases every entry for which pred(entry) holds; returns how many.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    const std::size_t before = size_;
    if (has_empty_key_ && pred(std::as_const(slots_[capacity_]))) erase_at(capacity_);
    if (size_ == 0) return before;
    // Scan from just past an empty slot: no probe run wraps past it, and an
    // erase only moves entries back towards it, into the slot being
    // scanned or into slots not yet scanned, so each entry is seen once.
    const std::size_t mask = capacity_ - 1;
    std::size_t start = 0;
    while (!is_empty(start)) ++start;
    for (std::size_t n = 1; n <= capacity_; ++n) {
      const std::size_t i = (start + n) & mask;
      while (!is_empty(i) && pred(std::as_const(slots_[i]))) erase_at(i);
    }
    return before - size_;
  }

  // Makes room to insert one absent key without growing, if stale entries
  // allow: only when that insert would grow the table, erases every entry
  // for which stale(entry) holds, then doubles only if more than half the
  // table stays taken. The next scan is then at least capacity / 4 inserts
  // away, so this is O(1) amortized per insert, and the capacity stays
  // under four times the peak count of entries that are not stale.
  template <typename Pred>
  void make_room(Pred stale) {
    if (!insert_grows()) return;
    erase_if(stale);
    if (capacity_ == 0 || stored() * 2 > capacity_) grow();
  }

  // Empties the table and keeps its capacity.
  void clear() {
    for (std::size_t i = 0; i < end_index(); ++i) slots_[i] = value_type{};
    size_ = 0;
    has_empty_key_ = false;
  }

  template <bool Const>
  class Iterator {
    using Table = std::conditional_t<Const, const FlatTable, FlatTable>;

   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = FlatTable::value_type;
    using difference_type = std::ptrdiff_t;
    using reference = std::conditional_t<Const || kIsSet, const value_type&, value_type&>;
    using pointer = std::remove_reference_t<reference>*;

    Iterator() = default;
    Iterator(Table* table, std::size_t i) : table_(table), i_(i) { skip(); }
    reference operator*() const { return table_->slots_[i_]; }
    pointer operator->() const { return &table_->slots_[i_]; }
    Iterator& operator++() {
      ++i_;
      skip();
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) { return a.i_ == b.i_; }

   private:
    void skip() {
      while (i_ < table_->end_index() && !table_->occupied(i_)) ++i_;
    }
    Table* table_ = nullptr;
    std::size_t i_ = 0;
  };
  using iterator = Iterator<false>;
  using const_iterator = Iterator<true>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, end_index()); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, end_index()); }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  static constexpr std::size_t kMinCapacity = 8;

  static const Key& key_of(const value_type& slot) {
    if constexpr (kIsSet) {
      return slot;
    } else {
      return slot.first;
    }
  }
  static bool is_empty_key(const Key& key) { return key == Key{}; }
  bool is_empty(std::size_t i) const { return is_empty_key(key_of(slots_[i])); }
  bool occupied(std::size_t i) const { return i < capacity_ ? !is_empty(i) : has_empty_key_; }
  std::size_t end_index() const { return capacity_ == 0 ? 0 : capacity_ + 1; }
  // Entries in the slot array (all but Key{}), and whether one more would
  // pass 3/4 load.
  std::size_t stored() const { return size_ - (has_empty_key_ ? 1 : 0); }
  bool insert_grows() const { return (stored() + 1) * 4 > capacity_ * 3; }
  std::size_t home(const Key& key) const {
    return static_cast<std::size_t>(hash_(key)) & (capacity_ - 1);
  }

  std::size_t index_of(const Key& key) const {
    if (is_empty_key(key)) return has_empty_key_ ? capacity_ : kNone;
    if (capacity_ == 0) return kNone;
    const std::size_t mask = capacity_ - 1;
    for (std::size_t i = home(key);; i = (i + 1) & mask) {
      const Key& k = key_of(slots_[i]);
      if (k == key) return i;
      if (is_empty_key(k)) return kNone;
    }
  }

  // The first empty slot of `key`'s probe run; `key` must be absent.
  std::size_t free_index(const Key& key) const {
    const std::size_t mask = capacity_ - 1;
    std::size_t i = home(key);
    while (!is_empty(i)) i = (i + 1) & mask;
    return i;
  }

  // (slot, inserted): the slot holding `key`, after adding it if absent.
  std::pair<std::size_t, bool> insert_index(const Key& key) {
    if (capacity_ == 0) grow();
    if (is_empty_key(key)) {
      if (has_empty_key_) return {capacity_, false};
      has_empty_key_ = true;
      ++size_;
      return {capacity_, true};
    }
    const std::size_t mask = capacity_ - 1;
    std::size_t i = home(key);
    for (; !is_empty(i); i = (i + 1) & mask) {
      if (key_of(slots_[i]) == key) return {i, false};
    }
    if (insert_grows()) {
      grow();
      i = free_index(key);
    }
    if constexpr (kIsSet) {
      slots_[i] = key;
    } else {
      slots_[i].first = key;
    }
    ++size_;
    return {i, true};
  }

  void grow() {
    const std::size_t capacity = capacity_ == 0 ? kMinCapacity : 2 * capacity_;
    FlatTable fresh;
    // lint: hot-path-alloc-ok(amortized doubling: a table of n entries has grown log2(n / 8) times)
    fresh.slots_ = std::make_unique<value_type[]>(capacity + 1);
    fresh.capacity_ = capacity;
    for (std::size_t i = 0; i < capacity_; ++i) {
      if (!is_empty(i)) fresh.slots_[fresh.free_index(key_of(slots_[i]))] = std::move(slots_[i]);
    }
    if (capacity_ != 0) fresh.slots_[capacity] = std::move(slots_[capacity_]);
    fresh.size_ = size_;
    fresh.has_empty_key_ = has_empty_key_;
    swap(fresh);
  }

  void erase_at(std::size_t i) {
    --size_;
    if (i == capacity_) {
      has_empty_key_ = false;
      slots_[i] = value_type{};
      return;
    }
    // Backward shift: walk the rest of the probe run and move each entry
    // whose home does not lie cyclically in (hole, j] into the hole.
    const std::size_t mask = capacity_ - 1;
    std::size_t hole = i;
    for (std::size_t j = (i + 1) & mask; !is_empty(j); j = (j + 1) & mask) {
      if (((j - home(key_of(slots_[j]))) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = value_type{};
  }

  std::unique_ptr<value_type[]> slots_;  // capacity_ + 1 slots once allocated
  std::size_t capacity_ = 0;             // a power of two, or 0 before the first insert
  std::size_t size_ = 0;                 // entries, the Key{} one included
  bool has_empty_key_ = false;           // Key{} is present, in slots_[capacity_]
  [[no_unique_address]] Hash hash_;
};

template <typename Key, typename Mapped, typename Hash = FlatHash<Key>>
using FlatMap = FlatTable<Key, Mapped, Hash>;
template <typename Key, typename Hash = FlatHash<Key>>
using FlatSet = FlatTable<Key, void, Hash>;

}  // namespace atum
