/**
 * @file
 * Tests for util::AddrTable, the allocators' flat live-block table:
 * a seeded random differential run against std::unordered_map that
 * grows the table, and backward-shift deletes in probe runs that wrap
 * past the table's end.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "util/addr_table.hh"
#include "util/rng.hh"

using namespace pim;
using util::AddrTable;

namespace {

/** Every key of @p ref is found with its value, and the sizes agree. */
void
expectSameContents(AddrTable<uint32_t> &table,
                   const std::unordered_map<uint32_t, uint32_t> &ref)
{
    ASSERT_EQ(table.size(), ref.size());
    for (const auto &[key, value] : ref) {
        const uint32_t *found = table.find(key);
        ASSERT_NE(found, nullptr) << "key " << key;
        EXPECT_EQ(*found, value) << "key " << key;
    }
}

/** The first @p n keys (multiples of 16, like block addresses) whose
 *  probe run starts at @p slot. */
std::vector<uint32_t>
keysHomedAt(const AddrTable<uint32_t> &table, size_t slot, size_t n)
{
    std::vector<uint32_t> keys;
    for (uint32_t k = 16; keys.size() < n; k += 16)
        if (table.homeSlot(k) == slot)
            keys.push_back(k);
    return keys;
}

} // namespace

TEST(AddrTable, MatchesUnorderedMapUnderRandomChurn)
{
    util::Rng rng(20241019);
    AddrTable<uint32_t> table;
    std::unordered_map<uint32_t, uint32_t> ref;
    const size_t initial_capacity = table.capacity();
    std::vector<uint32_t> keys; // ever inserted (erase/find targets)
    for (int op = 0; op < 200000; ++op) {
        // Churn over 4K possible keys, then only erase and find, so
        // the run covers growth, overwrites and long runs of deletes.
        const bool draining = op >= 150000;
        const double roll = rng.uniformReal();
        if (!draining && roll < 0.5) {
            const uint32_t key =
                static_cast<uint32_t>(rng.uniformInt(1u << 12)) * 16;
            const uint32_t value = static_cast<uint32_t>(rng.next());
            table.insert(key, value);
            ref[key] = value;
            keys.push_back(key);
        } else if (!keys.empty() && roll < 0.85) {
            const uint32_t key = keys[rng.uniformInt(keys.size())];
            EXPECT_EQ(table.erase(key), ref.erase(key) == 1) << "op " << op;
        } else {
            const uint32_t key =
                static_cast<uint32_t>(rng.uniformInt(1u << 12)) * 16;
            const auto it = ref.find(key);
            const uint32_t *found = table.find(key);
            ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << op;
            if (found != nullptr) {
                EXPECT_EQ(*found, it->second);
            }
        }
        ASSERT_EQ(table.size(), ref.size()) << "op " << op;
        if (op % 10000 == 0)
            expectSameContents(table, ref);
    }
    expectSameContents(table, ref);
    EXPECT_GT(table.capacity(), 8 * initial_capacity);
    for (const uint32_t key : keys)
        table.erase(key);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.find(keys.front()), nullptr);
}

TEST(AddrTable, InsertOverwritesExistingKey)
{
    AddrTable<uint32_t> table;
    table.insert(64, 1);
    table.insert(64, 2);
    EXPECT_EQ(table.size(), 1u);
    EXPECT_EQ(*table.find(64), 2u);
    EXPECT_TRUE(table.erase(64));
    EXPECT_FALSE(table.erase(64));
    EXPECT_EQ(table.find(64), nullptr);
}

TEST(AddrTable, DeletesInRunsThatWrapPastTheEnd)
{
    AddrTable<uint32_t> table;
    const size_t last = table.capacity() - 1;
    // Three keys homed at the last slot occupy it and then wrap to
    // slots 0 and 1; a key homed at slot 0 lands behind them in slot 2.
    const std::vector<uint32_t> tail = keysHomedAt(table, last, 3);
    const uint32_t head = keysHomedAt(table, 0, 1).front();
    for (const uint32_t k : tail)
        table.insert(k, k + 1);
    table.insert(head, head + 1);
    ASSERT_EQ(table.capacity(), last + 1) << "fixture must not grow";

    // Deleting the run's first member (in the last slot) must shift
    // the wrapped members back across the end, and the slot-0 key back
    // toward its home, keeping all of them reachable.
    EXPECT_TRUE(table.erase(tail[0]));
    EXPECT_EQ(table.find(tail[0]), nullptr);
    for (size_t i = 1; i < tail.size(); ++i)
        ASSERT_NE(table.find(tail[i]), nullptr) << "tail key " << i;
    ASSERT_NE(table.find(head), nullptr);
    EXPECT_EQ(*table.find(head), head + 1);

    // Delete the wrapped middle member, then the rest.
    EXPECT_TRUE(table.erase(tail[1]));
    ASSERT_NE(table.find(tail[2]), nullptr);
    ASSERT_NE(table.find(head), nullptr);
    EXPECT_TRUE(table.erase(head));
    ASSERT_NE(table.find(tail[2]), nullptr);
    EXPECT_EQ(*table.find(tail[2]), tail[2] + 1);
    EXPECT_TRUE(table.erase(tail[2]));
    EXPECT_EQ(table.size(), 0u);
}

TEST(AddrTable, ClearKeepsCapacity)
{
    AddrTable<uint32_t> table;
    for (uint32_t k = 0; k < 1000; ++k)
        table.insert(k * 32, k);
    const size_t capacity = table.capacity();
    table.clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.capacity(), capacity);
    EXPECT_EQ(table.find(32), nullptr);
    table.insert(32, 7);
    EXPECT_EQ(*table.find(32), 7u);
}

TEST(AddrTableDeath, NullAddressKeyPanics)
{
    AddrTable<uint32_t> table;
    EXPECT_DEATH(table.insert(AddrTable<uint32_t>::kEmptyKey, 1),
                 "cannot hold key");
}
