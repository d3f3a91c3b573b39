// Known-bad fixture: the B+-tree read descent (ReadLockLeaf) returns a leaf
// whose read hold is still open, so whatever the caller does with that
// leaf before checking the hold is an optimistic read section. Each
// function models a bug the linter must see through the descent helper.
// EXPECT-FAIL: validate-on-exit
// EXPECT-FAIL: no-store-in-read-section
#ifndef OPTIQL_TESTS_LINT_FIXTURES_BAD_LEAF_DESCENT_UNVALIDATED_H_
#define OPTIQL_TESTS_LINT_FIXTURES_BAD_LEAF_DESCENT_UNVALIDATED_H_

#include <cstdint>

struct Leaf {
  uint16_t count;
  uint64_t keys[4];
  uint64_t values[4];
  Lock lock;
};

// BUG: serves a value searched under the open hold without checking it; a
// writer may have been shifting the leaf's slots mid-search.
inline bool LookupUnchecked(uint64_t key, uint64_t* out) {
  ReadHold hold;
  Leaf* leaf = ReadLockLeaf(key, nullptr, hold);
  *out = leaf->values[0];
  return leaf->keys[0] == key;
}

// BUG: writes through the leaf under a read hold; an unvalidated snapshot
// must never be used to mutate shared state. A function template, like the
// B+-tree's: the `class` in its template head must not hide the body.
template <class Key>
inline bool TrimUnderReadHold(Key key) {
  ReadHold hold;
  Leaf* leaf = ReadLockLeaf(key, nullptr, hold);
  leaf->count = 0;
  return ValidateHold(leaf->lock, hold);
}

#endif  // OPTIQL_TESTS_LINT_FIXTURES_BAD_LEAF_DESCENT_UNVALIDATED_H_
