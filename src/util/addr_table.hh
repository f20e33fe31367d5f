/**
 * @file
 * A flat open-addressing hash table keyed by 32-bit MRAM address. The
 * allocator models keep one entry per live block (every malloc inserts,
 * every free erases), which a node-based std::unordered_map pays for
 * with one heap allocation per insert. This table stores entries
 * inline in one power-of-two array, probes linearly, and deletes by
 * backward shift, so there are no tombstones and no per-entry
 * allocation.
 */

#ifndef PIM_UTIL_ADDR_TABLE_HH
#define PIM_UTIL_ADDR_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hh"

namespace pim::util {

/** Map from 32-bit address to a small, copyable @p V. */
template <typename V>
class AddrTable
{
  public:
    /** The one key the table cannot hold; equals sim::kNullAddr, which
     *  is never a live block's address. */
    static constexpr uint32_t kEmptyKey = UINT32_MAX;

    AddrTable() { rehash(kMinSlots); }

    /** Number of entries. */
    size_t size() const { return size_; }

    /** Number of slots (tests: growth coverage). */
    size_t capacity() const { return slots_.size(); }

    /**
     * Slot where @p key's probe run starts (public for tests: wrap
     * coverage). Fibonacci hashing: block addresses share their low
     * bits, so the slot comes from the product's high bits.
     */
    size_t
    homeSlot(uint32_t key) const
    {
        return static_cast<size_t>(
            (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    /** The value stored under @p key, or nullptr. */
    V *
    find(uint32_t key)
    {
        for (size_t i = homeSlot(key);; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return &slots_[i].value;
            if (slots_[i].key == kEmptyKey)
                return nullptr;
        }
    }

    /** Store @p value under @p key, replacing any previous value. */
    void
    insert(uint32_t key, const V &value)
    {
        PIM_ASSERT(key != kEmptyKey, "AddrTable cannot hold key ", key);
        // Keep the load factor at or below 1/2: linear probing's probe
        // lengths stay short, and a probe always reaches an empty slot.
        if (2 * (size_ + 1) > slots_.size())
            rehash(2 * slots_.size());
        size_t i = homeSlot(key);
        while (slots_[i].key != kEmptyKey && slots_[i].key != key)
            i = (i + 1) & mask_;
        if (slots_[i].key == kEmptyKey)
            ++size_;
        slots_[i] = Slot{key, value};
    }

    /** Remove @p key. @return false if it was not present. */
    bool
    erase(uint32_t key)
    {
        size_t i = homeSlot(key);
        for (;; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                break;
            if (slots_[i].key == kEmptyKey)
                return false;
        }
        // Backward-shift deletion: pull later members of the probe run
        // into the hole when the hole lies on their path from their
        // home slot, so every remaining key stays reachable.
        for (size_t j = (i + 1) & mask_; slots_[j].key != kEmptyKey;
             j = (j + 1) & mask_) {
            const size_t h = homeSlot(slots_[j].key);
            if (((j - h) & mask_) >= ((j - i) & mask_)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i].key = kEmptyKey;
        --size_;
        return true;
    }

    /** Remove every entry (capacity is kept). */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.key = kEmptyKey;
        size_ = 0;
    }

  private:
    static constexpr size_t kMinSlots = 16;

    struct Slot
    {
        uint32_t key = kEmptyKey;
        V value{};
    };

    void
    rehash(size_t slots)
    {
        std::vector<Slot> old;
        old.swap(slots_);
        slots_.assign(slots, Slot{});
        mask_ = slots - 1;
        shift_ = 64;
        while ((size_t{1} << (64 - shift_)) < slots)
            --shift_;
        size_ = 0;
        for (const Slot &s : old)
            if (s.key != kEmptyKey)
                insert(s.key, s.value);
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    unsigned shift_ = 64;
    size_t size_ = 0;
};

} // namespace pim::util

#endif // PIM_UTIL_ADDR_TABLE_HH
