// Known-good fixture: the callers of the B+-tree read descent. The hold
// ReadLockLeaf fills is checked before anything read under it is used, so
// R1, R2 and R5 must all accept these with zero findings.
#ifndef OPTIQL_TESTS_LINT_FIXTURES_GOOD_LEAF_DESCENT_H_
#define OPTIQL_TESTS_LINT_FIXTURES_GOOD_LEAF_DESCENT_H_

#include <cstdint>

struct Leaf {
  uint64_t keys[4];
  uint64_t values[4];
  Leaf* next;
  Lock lock;
};

// Point read: search under the open hold, check the hold, restart on a
// failed check, and only then hand the result to the caller.
inline bool ReadRecord(uint64_t key, uint64_t* out) {
  while (true) {
    ReadHold hold;
    Leaf* leaf = ReadLockLeaf(key, nullptr, hold);
    const bool found = leaf->keys[0] == key;
    const uint64_t value = leaf->values[0];
    if (!ValidateHold(leaf->lock, hold)) continue;
    ReleaseHold(leaf->lock, hold);
    if (found) *out = value;
    return found;
  }
}

// The descent that stops above the leaf (`<false>`) opens no hold: the
// caller may own the leaf exclusively and locks or re-descends itself.
inline Leaf* DescendWithoutEntering(uint64_t key) {
  ReadHold parent_hold;
  return ReadLockLeaf<false>(key, nullptr, parent_hold);
}

#endif  // OPTIQL_TESTS_LINT_FIXTURES_GOOD_LEAF_DESCENT_H_
