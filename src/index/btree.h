// Memory-optimized B+-tree in the BTreeOLC style (Leis & Wang; paper §6.1),
// parameterized over the node size and the synchronization policy:
//
//   * BTreeOlcPolicy            — classic optimistic lock coupling with the
//                                 centralized OptLock everywhere (baseline).
//   * BTreeOptiQlPolicy<L,AOR>  — the paper's adapted protocol (Algorithm
//                                 4): inner nodes keep OptLock, leaves use
//                                 OptiQL (or OptiQL-NOR); writers lock the
//                                 leaf *directly* instead of upgrading, then
//                                 validate the parent. With AOR the
//                                 opportunistic-read window inherited during
//                                 handover stays open through the in-leaf
//                                 search (§6.1 last paragraph).
//   * BTreeCouplingPolicy<L>    — traditional pessimistic lock coupling for
//                                 reader-writer locks (MCS-RW, pthread).
//
// Structural decisions (all standard for memory-optimized B+-trees):
//   * Small nodes (default 256 bytes, Figure 11 sweeps 256B..16KB).
//   * Eager top-down splits: a full node is split while descending, so a
//     writer holds at most two locks and SMOs never propagate upwards.
//   * Eager top-down merges, mirroring the split discipline: a remove that
//     passes an underfull node (quarter-full) merges it with a sibling or
//     refills it by rotation while descending, holding at most parent +
//     node + sibling. Unlinked nodes are marked obsolete on their lock and
//     retired through the epoch layer, so optimistic readers still parked
//     on them fail validation instead of touching freed memory; a root
//     that loses its last separator is collapsed onto its single child.
//
// Every public operation runs inside an EpochGuard; node memory retired by
// merges is reclaimed once all concurrent readers have moved on (same
// scheme ART uses for node growth).
//
// The protocols differ only in how writers lock: every read (Lookup, Scan,
// batch lanes, transaction reads) and every optimistic write descent walks
// one descent whose per-node read hold is a property of the lock family.
//
// Concurrency discipline for optimistic readers: a value read from a node
// (child pointer, key, count) may be torn by a concurrent writer; it is
// therefore *never dereferenced or trusted* until the node's version has
// been re-validated. Counts are additionally clamped to the node capacity
// so even torn reads stay in bounds.
#ifndef OPTIQL_INDEX_BTREE_H_
#define OPTIQL_INDEX_BTREE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/check.h"
#include "common/platform.h"
#include "common/prefetch.h"
#include "common/simd.h"
#include "core/optiql.h"
#include "locks/mcs_rw_lock.h"
#include "locks/optlock.h"
#include "locks/shared_mutex_lock.h"
#include "qnode/qnode_pool.h"
#include "sync/epoch.h"
#include "sync/lock_telemetry.h"
#include "sync/txn_ops.h"

namespace optiql {

enum class BTreeProtocol { kOlc, kOptiQl, kCoupling };

struct BTreeOlcPolicy {
  static constexpr BTreeProtocol kProtocol = BTreeProtocol::kOlc;
  static constexpr bool kAdjustableOpRead = false;
  static constexpr bool kInPlaceUpdates = false;
  using InnerLock = OptLock;
  using LeafLock = OptLock;
};

template <class QlLock, bool kAor = false>
struct BTreeOptiQlPolicy {
  static constexpr BTreeProtocol kProtocol = BTreeProtocol::kOptiQl;
  static constexpr bool kAdjustableOpRead = kAor;
  static constexpr bool kInPlaceUpdates = false;
  using InnerLock = OptLock;
  using LeafLock = QlLock;
};

template <class RwLock>
struct BTreeCouplingPolicy {
  static constexpr BTreeProtocol kProtocol = BTreeProtocol::kCoupling;
  static constexpr bool kAdjustableOpRead = false;
  static constexpr bool kInPlaceUpdates = false;
  using InnerLock = RwLock;
  using LeafLock = RwLock;
};

// FB+-tree-style latch-free leaf value updates (see PAPERS.md): an Update/
// Upsert of an *existing* key publishes the new value with one atomic store
// instead of an exclusive leaf critical section, so concurrent optimistic
// readers of the leaf never restart. Structural needs (insert, remove,
// split) and validation failures fall back to the locked path unchanged.
// Opt-in per policy: range scans over an in-place tree get per-slot instead
// of per-range atomicity for racing value overwrites (DESIGN.md §10).
struct BTreeOlcInPlacePolicy : BTreeOlcPolicy {
  static constexpr bool kInPlaceUpdates = true;
};

template <class QlLock, bool kAor = false>
struct BTreeOptiQlInPlacePolicy : BTreeOptiQlPolicy<QlLock, kAor> {
  static constexpr bool kInPlaceUpdates = true;
};

template <class Key, class Value, class SyncPolicy = BTreeOlcPolicy,
          size_t kNodeBytes = 256>
class BTree {
 public:
  static constexpr BTreeProtocol kProtocol = SyncPolicy::kProtocol;
  static constexpr bool kAor = SyncPolicy::kAdjustableOpRead;
  static constexpr bool kInPlaceUpdates = SyncPolicy::kInPlaceUpdates;
  using InnerLock = typename SyncPolicy::InnerLock;
  using LeafLock = typename SyncPolicy::LeafLock;
  using InnerOps = TxnOps<InnerLock>;
  using LeafOps = TxnOps<LeafLock>;

  // In-place publication stores the value through std::atomic_ref while
  // readers copy it unsynchronized-then-validate, so the value must be a
  // single machine word; and the coupling protocol has no versioned leaf
  // lock to validate against.
  static_assert(!kInPlaceUpdates || kProtocol != BTreeProtocol::kCoupling,
                "in-place updates require a versioned (optimistic) leaf lock");
  static_assert(!kInPlaceUpdates ||
                    (std::is_trivially_copyable_v<Value> &&
                     sizeof(Value) <= 8 && alignof(Value) >= sizeof(Value)),
                "in-place updates publish the value with one atomic store; "
                "the value type must be one aligned machine word");

  BTree() { root_.store(new Leaf(), std::memory_order_release); }

  ~BTree() {
    FreeSubtree(root_.load(std::memory_order_acquire));
    // Nodes retired by merges may still sit on this thread's epoch list;
    // sweep what is provably safe so long-lived processes don't accumulate.
    EpochManager::Instance().ReclaimIfPossible();
  }

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  // Inserts (key, value). Returns false (no change) if the key exists.
  bool Insert(const Key& key, const Value& value) {
    return Write(key, &value, WriteKind::kInsert);
  }

  // Updates the value of an existing key; false if the key is absent.
  bool Update(const Key& key, const Value& value) {
    return Write(key, &value, WriteKind::kUpdate);
  }

  // Inserts or updates.
  void Upsert(const Key& key, const Value& value) {
    Write(key, &value, WriteKind::kUpsert);
  }

  // Removes the key; false if absent. Underfull nodes are merged with or
  // refilled from a sibling on the way down; emptied nodes are retired
  // through the epoch layer.
  bool Remove(const Key& key) {
    return Write(key, nullptr, WriteKind::kRemove);
  }

  // Point lookup; copies the value into `out`.
  bool Lookup(const Key& key, Value& out) const {
    EpochGuard guard;
    return ReadRecord(key, out);
  }

  // Interleave bounds for LookupBatch: the lane ring lives on the stack,
  // and past ~32 in-flight descents the prefetches start evicting each
  // other instead of overlapping.
  static constexpr size_t kMaxBatchLanes = 32;
  static constexpr size_t kDefaultBatchLanes = 8;

  // Batched point lookup: runs up to `interleave` descents at once as a
  // ring of small state machines (AMAC / group-prefetch style), so the
  // per-level cache-miss chains of the in-flight lookups overlap instead
  // of serializing. One EpochGuard covers the whole batch. `found[i]` is
  // written for every i; `values[i]` only where `found[i]` is true.
  // Returns the number of hits. Results are identical to calling Lookup
  // per key in batch order. Not available for the pessimistic coupling
  // protocol: a lane parked mid-descent would keep its shared holds across
  // the other lanes' turns, and the lanes would share the thread's
  // queue-node slots. Coupling trees fall back to the generic loop in
  // index_ops.h.
  size_t LookupBatch(const Key* keys, size_t n, Value* values, bool* found,
                     size_t interleave = kDefaultBatchLanes) const
    requires(kProtocol != BTreeProtocol::kCoupling)
  {
    if (n == 0) return 0;
    EpochGuard guard;
    size_t lane_count = interleave < n ? interleave : n;
    if (lane_count > kMaxBatchLanes) lane_count = kMaxBatchLanes;
    if (lane_count <= 1) {
      // Amortized-guard loop of singles — the baseline the interleaved
      // path is benchmarked against, and the right choice for tiny
      // batches where lane bookkeeping costs more than it hides.
      size_t hits = 0;
      for (size_t i = 0; i < n; ++i) {
        found[i] = ReadRecord(keys[i], values[i]);
        if (found[i]) ++hits;
      }
      return hits;
    }
    return LookupInterleaved(keys, n, values, found, lane_count);
  }

  // Ascending range scan starting at `start` (inclusive); copies up to
  // `limit` pairs into `out`. Returns the number copied.
  size_t Scan(const Key& start, size_t limit,
              std::vector<std::pair<Key, Value>>& out) const {
    out.clear();
    if (limit == 0) return 0;
    EpochGuard guard;
    RestartCounter restarts(read_restarts_);
    while (true) {
      out.clear();
      ReadHold hold;
      Leaf* leaf = ReadLockLeaf(start, &restarts, hold);
      bool consistent = true;
      while (true) {
        // Read the successor first and start pulling it in while this
        // leaf's batch is copied; the (possibly torn) pointer is only
        // chased after the check below succeeds.
        Leaf* next = leaf->next;
        if (next != nullptr) PrefetchNodeHeader(next);
        const uint16_t n = LoadCount(leaf, kLeafMax);
        std::pair<Key, Value> batch[Leaf::kMax];
        uint16_t batch_size = 0;
        for (uint16_t i = leaf->LowerBound(start, n); i < n; ++i) {
          batch[batch_size++] = {leaf->keys[i], leaf->values[i]};
        }
        if (!ValidateHold(leaf->lock, hold)) {
          consistent = false;
          break;
        }
        for (uint16_t i = 0; i < batch_size && out.size() < limit; ++i) {
          out.push_back(batch[i]);
        }
        if (next == nullptr || out.size() >= limit) break;
        // Hand over exactly like a descent step: the current leaf is
        // re-checked after `next` is held. Leaf rotations move keys across
        // this boundary with only version bumps (no obsolete mark), so
        // without the re-check a rotation landing between the batch check
        // above and the next-leaf hold could make the scan miss a key
        // (moved next->current) or return one twice (moved current->next).
        ReadHold next_hold;
        if (!EnterNode(leaf, hold, next, next_hold)) {
          consistent = false;
          break;
        }
        leaf = next;
        hold = next_hold;
      }
      if (!consistent) continue;
      ReleaseHold(leaf->lock, hold);
      return out.size();
    }
  }

  // Bottom-up bulk load of sorted, unique (key, value) pairs into an EMPTY
  // tree. Not thread-safe (call before sharing the tree). Leaves are filled
  // to ~90% so the first trickle of inserts does not split everywhere at
  // once. Aborts if the tree is non-empty or the input is not strictly
  // ascending.
  void BulkLoad(const std::vector<std::pair<Key, Value>>& pairs) {
    OPTIQL_CHECK(Size() == 0);
    if (pairs.empty()) return;
    const uint16_t per_leaf =
        std::max<uint16_t>(1, static_cast<uint16_t>(kLeafMax * 9 / 10));

    std::vector<NodeBase*> level_nodes;
    std::vector<Key> level_keys;  // Minimum key of each node after [0].
    Leaf* prev = nullptr;
    for (size_t i = 0; i < pairs.size();) {
      Leaf* leaf = new Leaf();
      live_nodes_.fetch_add(1, std::memory_order_relaxed);
      const size_t take = std::min<size_t>(per_leaf, pairs.size() - i);
      for (size_t j = 0; j < take; ++j) {
        if (i + j > 0) {
          OPTIQL_CHECK(pairs[i + j - 1].first < pairs[i + j].first);
        }
        leaf->keys[j] = pairs[i + j].first;
        leaf->values[j] = pairs[i + j].second;
      }
      leaf->count = static_cast<uint16_t>(take);
      if (prev != nullptr) prev->next = leaf;
      prev = leaf;
      if (!level_nodes.empty()) level_keys.push_back(leaf->keys[0]);
      level_nodes.push_back(leaf);
      i += take;
    }
    size_.store(pairs.size(), std::memory_order_release);

    // Build inner levels until a single root remains.
    uint16_t level = 1;
    const uint16_t per_inner =
        std::max<uint16_t>(2, static_cast<uint16_t>(kInnerMax * 9 / 10));
    while (level_nodes.size() > 1) {
      std::vector<NodeBase*> upper_nodes;
      std::vector<Key> upper_keys;
      for (size_t i = 0; i < level_nodes.size();) {
        Inner* inner = new Inner(level);
        live_nodes_.fetch_add(1, std::memory_order_relaxed);
        size_t children =
            std::min<size_t>(per_inner + 1u, level_nodes.size() - i);
        // Never leave a single orphan child for the next inner node.
        if (level_nodes.size() - i - children == 1) --children;
        inner->children[0] = level_nodes[i];
        for (size_t j = 1; j < children; ++j) {
          inner->keys[j - 1] = level_keys[i + j - 1];
          inner->children[j] = level_nodes[i + j];
        }
        inner->count = static_cast<uint16_t>(children - 1);
        if (!upper_nodes.empty()) upper_keys.push_back(level_keys[i - 1]);
        upper_nodes.push_back(inner);
        i += children;
      }
      level_nodes.swap(upper_nodes);
      level_keys.swap(upper_keys);
      ++level;
    }
    NodeBase* old_root = root_.load(std::memory_order_acquire);
    root_.store(level_nodes[0], std::memory_order_release);
    // LINT-ALLOW(raw-delete): BulkLoad is documented single-threaded; the
    // replaced initial tree was never visible to a concurrent reader.
    live_nodes_.fetch_sub(static_cast<int64_t>(FreeSubtree(old_root)),
                          std::memory_order_relaxed);  // The initial leaf.
  }

  // Number of live keys (exact when quiescent).
  size_t Size() const { return size_.load(std::memory_order_acquire); }

  int Height() const {
    return root_.load(std::memory_order_acquire)->level + 1;
  }

  // Number of live (reachable) nodes; retired-but-unreclaimed nodes are not
  // counted. Exact when quiescent — the steady-state metric for churn
  // workloads (a tree without merges grows this without bound).
  size_t NodeCount() const {
    return static_cast<size_t>(live_nodes_.load(std::memory_order_acquire));
  }

  // Single-threaded structural check for tests: sortedness, separator
  // bounds, level consistency and key count. Aborts on violation.
  void CheckInvariants() const {
    size_t keys = 0;
    CheckSubtree(root_.load(std::memory_order_acquire), nullptr, nullptr,
                 &keys);
    OPTIQL_CHECK(keys == Size());
  }

  static constexpr size_t LeafCapacity();
  static constexpr size_t InnerCapacity();

  // Operation statistics (relaxed counters; exact when quiescent). Restarts
  // quantify the optimistic protocols' wasted work under contention — the
  // paper's CAS-retry-storm story in numbers.
  struct Stats {
    uint64_t read_restarts;
    uint64_t write_restarts;
    uint64_t leaf_splits;
    uint64_t inner_splits;
    uint64_t leaf_merges;
    uint64_t inner_merges;
    uint64_t rebalance_borrows;
    uint64_t root_collapses;
    uint64_t nodes_retired;
  };

  Stats GetStats() const {
    return Stats{read_restarts_.load(std::memory_order_relaxed),
                 write_restarts_.load(std::memory_order_relaxed),
                 leaf_splits_.load(std::memory_order_relaxed),
                 inner_splits_.load(std::memory_order_relaxed),
                 leaf_merges_.load(std::memory_order_relaxed),
                 inner_merges_.load(std::memory_order_relaxed),
                 rebalance_borrows_.load(std::memory_order_relaxed),
                 root_collapses_.load(std::memory_order_relaxed),
                 nodes_retired_.load(std::memory_order_relaxed)};
  }

  void ResetStats() {
    read_restarts_.store(0, std::memory_order_relaxed);
    write_restarts_.store(0, std::memory_order_relaxed);
    leaf_splits_.store(0, std::memory_order_relaxed);
    inner_splits_.store(0, std::memory_order_relaxed);
    leaf_merges_.store(0, std::memory_order_relaxed);
    inner_merges_.store(0, std::memory_order_relaxed);
    rebalance_borrows_.store(0, std::memory_order_relaxed);
    root_collapses_.store(0, std::memory_order_relaxed);
    nodes_retired_.store(0, std::memory_order_relaxed);
  }

 private:
  // Test peer for the checked-invariant build: drives PublishSplit with
  // deliberately wrong lock states (tests/invariant_death_test.cc).
  friend struct BTreeTestPeer;

  // Accumulates (attempts - 1) restarts into a stats counter on scope exit.
  class RestartCounter {
   public:
    explicit RestartCounter(std::atomic<uint64_t>& sink) : sink_(sink) {}
    ~RestartCounter() {
      if (attempts_ > 1) {
        sink_.fetch_add(attempts_ - 1, std::memory_order_relaxed);
      }
    }
    void Tick() { ++attempts_; }

   private:
    std::atomic<uint64_t>& sink_;
    uint64_t attempts_ = 0;
  };

  enum class WriteKind { kInsert, kUpdate, kUpsert, kRemove };

  struct NodeBase {
    uint16_t level;  // 0 = leaf.
    uint16_t count;  // Entries; racy reads are clamped by users.
  };

  struct Inner;

  // Nodes are cacheline-aligned so the kNodeBytes budget maps to whole
  // lines: the header + lock always share line 0 (one prefetch covers
  // them) and key arrays start at a predictable line.
  struct alignas(kCachelineSize) Leaf : NodeBase {
    LeafLock lock;
    Leaf* next = nullptr;  // Right sibling (for scans).

    static constexpr size_t kHeader =
        sizeof(NodeBase) + sizeof(LeafLock) + sizeof(Leaf*);
    static constexpr size_t kMax =
        (kNodeBytes > kHeader + sizeof(Key) + sizeof(Value))
            ? (kNodeBytes - kHeader) / (sizeof(Key) + sizeof(Value))
            : 2;

    Key keys[kMax];
    Value values[kMax];

    Leaf() {
      this->level = 0;
      this->count = 0;
    }

    // First position with keys[pos] >= key. `n` must already be clamped
    // (LoadCount) so the kernel never reads outside the array even when
    // the count was torn by a concurrent writer.
    uint16_t LowerBound(const Key& key, uint16_t n) const {
      return simd::LowerBound(keys, n, key);
    }

    // Point search under a possibly racy count (clamped by LoadCount):
    // sets `pos` to the lower bound of `key` and returns whether the key
    // sits there.
    bool Find(const Key& key, uint16_t& pos) const {
      const uint16_t n = LoadCount(this, kLeafMax);
      pos = LowerBound(key, n);
      return pos < n && keys[pos] == key;
    }
  };

  struct alignas(kCachelineSize) Inner : NodeBase {
    InnerLock lock;

    static constexpr size_t kHeader = sizeof(NodeBase) + sizeof(InnerLock);
    // `count` keys and `count + 1` children must fit. Floor of 3: splitting
    // an inner with fewer than 3 keys would leave the right sibling with
    // none (mid = count/2 keys stay, one moves up, count - mid - 1 move).
    static constexpr size_t kMaxRaw =
        (kNodeBytes > kHeader + sizeof(Key) + 2 * sizeof(void*))
            ? (kNodeBytes - kHeader - sizeof(void*)) /
                  (sizeof(Key) + sizeof(void*))
            : 3;
    static constexpr size_t kMax = kMaxRaw < 3 ? 3 : kMaxRaw;

    Key keys[kMax];
    NodeBase* children[kMax + 1];

    explicit Inner(uint16_t lvl) {
      this->level = lvl;
      this->count = 0;
    }

    // Child index to follow for `key`: first separator > key. `n` must be
    // clamped by the caller (same torn-count contract as Leaf::LowerBound).
    uint16_t ChildIndex(const Key& key, uint16_t n) const {
      return simd::UpperBound(keys, n, key);
    }

    void InsertAt(uint16_t pos, const Key& separator, NodeBase* right) {
      for (uint16_t i = this->count; i > pos; --i) {
        keys[i] = keys[i - 1];
        children[i + 1] = children[i];
      }
      keys[pos] = separator;
      children[pos + 1] = right;
      ++this->count;
    }
  };

  static constexpr uint16_t kLeafMax = static_cast<uint16_t>(Leaf::kMax);
  static constexpr uint16_t kInnerMax = static_cast<uint16_t>(Inner::kMax);
  static_assert(Leaf::kMax >= 2 && Inner::kMax >= 3,
                "node geometry too small to split safely");

  // Layout assumptions the search/prefetch kernels rely on: the packed
  // header (level + count) is exactly 4 bytes, nodes start on a cacheline
  // (so the header + lock share line 0 and kNodeBytes-sized nodes do not
  // straddle an extra line), and the real node size stays within the
  // nominal budget rounded to whole lines — with at most one line of
  // slack for header padding (reachable only for exotic Key/Value sizes
  // or floor-clamped tiny geometries).
  static constexpr size_t kAlignedNodeBudget =
      ((kNodeBytes + kCachelineSize - 1) / kCachelineSize) * kCachelineSize;
  static_assert(sizeof(NodeBase) == 4, "packed node header grew");
  static_assert(alignof(Leaf) == kCachelineSize &&
                    alignof(Inner) == kCachelineSize,
                "nodes must be cacheline-aligned");
  static_assert(sizeof(Leaf) % kCachelineSize == 0 &&
                    sizeof(Inner) % kCachelineSize == 0,
                "node sizes must be whole cachelines");
  static_assert(sizeof(Leaf) <= kAlignedNodeBudget + kCachelineSize,
                "leaf layout exceeds the node-size budget");
  static_assert(sizeof(Inner) <= kAlignedNodeBudget + kCachelineSize,
                "inner layout exceeds the node-size budget");

  // Whole-node line count for the shared prefetch helpers: a batch lane
  // about to search a leaf warms every line (values included), not just
  // the header.
  static constexpr size_t kLeafLines = PrefetchLinesFor(sizeof(Leaf));

  // Warm the lines a descent touches next: line 0 (header + lock + the
  // leading keys) and, for multi-line nodes, the next line of keys. Safe
  // on unvalidated child pointers — prefetch never faults.
  static void PrefetchNodeHeader(const NodeBase* node) {
    PrefetchLines<(kNodeBytes > kCachelineSize) ? 2 : 1>(node);
  }

  // Underflow thresholds for delete-time rebalancing (quarter-full, the
  // usual lazy bound): a remove descending past a node at or below its
  // minimum merges it with a sibling or refills it by rotation. kInnerMin
  // is at least 1 so a child merge — which costs the parent one separator —
  // only runs under a parent keeping >= 1 key, preserving the non-root
  // inner invariant; rebalances that can make no progress (tiny geometry)
  // back out without touching anything.
  static constexpr uint16_t kLeafMin = kLeafMax / 4;
  static constexpr uint16_t kInnerMin =
      kInnerMax / 4 > 1 ? kInnerMax / 4 : 1;

  static bool IsLeaf(const NodeBase* node) { return node->level == 0; }
  static Leaf* AsLeaf(NodeBase* node) { return static_cast<Leaf*>(node); }
  static Inner* AsInner(NodeBase* node) { return static_cast<Inner*>(node); }

  // Invariant support: exclusive-lock introspection across the leaf/inner
  // lock types. Only instantiated for versioned protocols (the coupling
  // branch of PublishSplit is `if constexpr`-discarded, and McsRwLock has
  // no IsLockedEx).
  static bool NodeIsLockedEx(NodeBase* node) {
    return IsLeaf(node) ? AsLeaf(node)->lock.IsLockedEx()
                        : AsInner(node)->lock.IsLockedEx();
  }
  static const Leaf* AsLeaf(const NodeBase* node) {
    return static_cast<const Leaf*>(node);
  }
  static const Inner* AsInner(const NodeBase* node) {
    return static_cast<const Inner*>(node);
  }

  // Clamped count for racy reads.
  static uint16_t LoadCount(const NodeBase* node, uint16_t max) {
    const uint16_t n = node->count;
    return n > max ? max : n;
  }

  // --- Read holds: one read descent for every lock family ---
  //
  // A reader keeps a read hold on the node it stands on. What the hold is
  // follows from the node's lock family (TxnOps<Lock>::kVersioned), so the
  // three protocols share one read descent:
  //
  //   * Versioned (OptLock, OptiQL): a version snapshot `v`. Opening spins
  //     while a writer holds the word and fails once the node is obsolete
  //     (merged away; a retired lock admits no reader). A failed check
  //     restarts the operation; release is a no-op.
  //   * Reader-writer (MCS-RW, pthread; the coupling protocol): the lock
  //     taken shared in queue-node slot `slot`. Opening blocks writers out,
  //     so the check is trivially true; release is UnlockSh.
  //
  // All lock access goes through the TxnOps<Lock> contract (sync/txn_ops.h),
  // so the transaction layer validates against the very same words. The
  // shared-mode legs opt out of thread-safety analysis like the coupling
  // write path below.

  struct ReadHold {
    uint64_t v = 0;  // Version snapshot (versioned families).
    int slot = 0;    // Queue-node slot of the shared hold (reader-writer).
  };

  template <class Lock>
  static bool ReadLockHold(Lock& lock,
                           ReadHold& hold) OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    if constexpr (TxnOps<Lock>::kVersioned) {
      SpinWait wait;
      while (!TxnOps<Lock>::StableVersion(lock, hold.v)) {
        if (TxnOps<Lock>::IsObsolete(lock)) return false;
        wait.Spin();
      }
    } else {
      TxnOps<Lock>::LockSh(lock, hold.slot);
    }
    return true;
  }

  template <class Lock>
  static bool ValidateHold(const Lock& lock,
                           [[maybe_unused]] const ReadHold& hold) {
    if constexpr (TxnOps<Lock>::kVersioned) {
      return Validate(lock, hold.v);
    } else {
      return true;
    }
  }

  template <class Lock>
  static void ReleaseHold([[maybe_unused]] Lock& lock,
                          [[maybe_unused]] const ReadHold& hold)
      OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    if constexpr (!TxnOps<Lock>::kVersioned) {
      TxnOps<Lock>::UnlockSh(lock, hold.slot);
    }
  }

  static bool ReadLockNode(NodeBase* node, ReadHold& hold) {
    return IsLeaf(node) ? ReadLockHold(AsLeaf(node)->lock, hold)
                        : ReadLockHold(AsInner(node)->lock, hold);
  }

  static void ReleaseNode(NodeBase* node, const ReadHold& hold) {
    if (IsLeaf(node)) {
      ReleaseHold(AsLeaf(node)->lock, hold);
    } else {
      ReleaseHold(AsInner(node)->lock, hold);
    }
  }

  template <class Lock>
  static bool Validate(const Lock& lock, uint64_t v) {
    return TxnOps<Lock>::ValidateVersion(lock, v);
  }

  // Exclusive-mode wrappers over the same contract for locks whose
  // ExHandle is stateless (OptLock inner nodes and OLC leaves): the empty
  // handle is created and dropped in place. Queue-based leaf locks thread
  // a real handle instead — the static_assert keeps that honest.

  template <class Lock>
  static void LockNodeEx(Lock& lock, int slot) {
    static_assert(std::is_empty_v<typename TxnOps<Lock>::ExHandle>,
                  "stateful exclusive handle dropped");
    (void)TxnOps<Lock>::LockEx(lock, slot);
  }

  template <class Lock>
  static bool TryUpgradeLock(Lock& lock, uint64_t v) {
    static_assert(std::is_empty_v<typename TxnOps<Lock>::ExHandle>,
                  "stateful exclusive handle dropped");
    typename TxnOps<Lock>::ExHandle handle{};
    return TxnOps<Lock>::TryUpgrade(lock, v, /*slot=*/0, handle);
  }

  template <class Lock>
  static void UnlockNodeEx(Lock& lock) {
    static_assert(std::is_empty_v<typename TxnOps<Lock>::ExHandle>,
                  "stateful exclusive handle dropped");
    TxnOps<Lock>::UnlockEx(lock, typename TxnOps<Lock>::ExHandle{});
  }

  template <class Lock>
  static void UnlockNodeExNoBump(Lock& lock) {
    static_assert(std::is_empty_v<typename TxnOps<Lock>::ExHandle>,
                  "stateful exclusive handle dropped");
    TxnOps<Lock>::UnlockExNoBump(lock, typename TxnOps<Lock>::ExHandle{});
  }

  template <class Lock>
  static void UnlockNodeExObsolete(Lock& lock) {
    static_assert(std::is_empty_v<typename TxnOps<Lock>::ExHandle>,
                  "stateful exclusive handle dropped");
    TxnOps<Lock>::UnlockExObsolete(lock, typename TxnOps<Lock>::ExHandle{});
  }

  // Opens a read hold (slot 0) on `node`, just loaded from root_, and
  // re-checks that it is still the root: a split or a collapse may have
  // replaced it between the load and the hold. False = restart.
  bool ReadLockRoot(NodeBase* node, ReadHold& hold) const {
    hold.slot = 0;
    if (!ReadLockNode(node, hold)) return false;
    if (node == root_.load(std::memory_order_acquire)) return true;
    ReleaseNode(node, hold);
    return false;
  }

  // Descent step 1, peek: reads the child of `inner` covering `key`,
  // prefetches it, then checks the inner's hold. Returns the child, now a
  // trustworthy pointer, or nullptr (restart). The prefetch overlaps the
  // child's cache miss with the check and cannot fault on a torn pointer.
  // `whole_leaf` warms all of a leaf child, not just its header: batch
  // lanes search that leaf a full ring turn later.
  static NodeBase* PeekChild(Inner* inner, const Key& key,
                             const ReadHold& hold, bool whole_leaf = false) {
    const uint16_t n = LoadCount(inner, kInnerMax);
    NodeBase* child = inner->children[inner->ChildIndex(key, n)];
    if (whole_leaf && inner->level == 1) {
      PrefetchLines<kLeafLines>(child);
    } else {
      PrefetchNodeHeader(child);
    }
    return ValidateHold(inner->lock, hold) ? child : nullptr;
  }

  // Descent step 2, enter: the one step that moves a reader onto a node,
  // whether the peeked child during a descent or a leaf's right sibling
  // during a scan. Opens the node's read hold, then checks and releases the
  // hold on `from`. For versioned holds the re-check makes the two reads
  // mutually consistent; shared holds go hand over hand (the node is held
  // before `from` is let go). False = restart; only versioned holds fail,
  // and dropping one is free.
  template <class From>
  static bool EnterNode(From* from, const ReadHold& from_hold, NodeBase* node,
                        ReadHold& hold) {
    hold.slot = 1 - from_hold.slot;
    if (!ReadLockNode(node, hold)) return false;
    const bool consistent = ValidateHold(from->lock, from_hold);
    ReleaseHold(from->lock, from_hold);
    return consistent;
  }

  // The read descent: root to the leaf covering `key`, peeking and then
  // entering each child. Returns the leaf with its hold open in `hold`. A
  // failed step restarts from the root; `restarts` (may be null) ticks once
  // per attempt. With kEnterLeaf false it stops without opening the leaf's
  // hold, for callers that may hold that leaf exclusively (a version read
  // would spin on their own lock). That leaf is only parent-validated: it
  // covered `key` when the last inner's hold was checked.
  template <bool kEnterLeaf = true>
  Leaf* ReadLockLeaf(const Key& key, RestartCounter* restarts,
                     ReadHold& hold) const {
    while (true) {
      if (restarts != nullptr) restarts->Tick();
      NodeBase* node = root_.load(std::memory_order_acquire);
      if constexpr (!kEnterLeaf) {
        // A stale root leaf is caught by the caller's coverage checks.
        if (IsLeaf(node)) return AsLeaf(node);
      }
      if (!ReadLockRoot(node, hold)) continue;
      while (true) {
        if (IsLeaf(node)) return AsLeaf(node);
        Inner* inner = AsInner(node);
        NodeBase* child = PeekChild(inner, key, hold);
        if (child == nullptr) break;
        if constexpr (!kEnterLeaf) {
          // `child` is trustworthy now; its level field is immutable.
          if (IsLeaf(child)) {
            ReleaseHold(inner->lock, hold);
            return AsLeaf(child);
          }
        }
        ReadHold child_hold;
        if (!EnterNode(inner, hold, child, child_hold)) break;
        node = child;
        hold = child_hold;
      }
    }
  }

  // The point read behind Lookup, LookupBatch's single-key loop and
  // TxnRead: whether `key` is present, with its value copied into `out` on
  // a hit (untouched on a miss). With `lock` set it also reports the leaf's
  // lock and the version the search validated, for OCC commit checks.
  bool ReadRecord(const Key& key, Value& out, const LeafLock** lock = nullptr,
                  uint64_t* version = nullptr) const {
    RestartCounter restarts(read_restarts_);
    while (true) {
      ReadHold hold;
      Leaf* leaf = ReadLockLeaf(key, &restarts, hold);
      uint16_t pos;
      const bool found = leaf->Find(key, pos);
      Value value{};
      if (found) value = leaf->values[pos];
      if (!ValidateHold(leaf->lock, hold)) continue;
      ReleaseHold(leaf->lock, hold);
      if (found) out = value;
      if (lock != nullptr) {
        *lock = &leaf->lock;
        *version = hold.v;
      }
      return found;
    }
  }

  // --- Interleaved (AMAC-style) batched descent ---
  //
  // Each in-flight lookup is a small state machine (a "lane"). A lane is
  // always in one of two states, the two steps of the read descent taken on
  // separate turns: it either PEEKS the next child under its validated
  // parent hold (PeekChild, which issues the prefetch), or it ENTERS the
  // child it peeked on its previous turn (EnterNode). The scheduler visits
  // the lanes round-robin, so between issuing a lane's prefetch and
  // touching that memory it advances every other lane; that turns one
  // serial cache-miss chain per descent into `lane_count` overlapping ones.
  // A validation failure restarts only the failing lane from the root; the
  // rest of the group never stalls.

  struct BatchLane {
    NodeBase* node = nullptr;   // Position (read hold open).
    NodeBase* child = nullptr;  // Peeked and prefetched, not yet entered.
    ReadHold hold;              // Read hold on `node`.
    size_t op = 0;              // Index into the caller's batch.
    bool entering = false;      // Next step: enter `child`.
    bool active = false;
  };

  // (Re)points a lane at the root with a fresh read hold. Named into the
  // read-lock helper family on purpose: the open hold it returns with is
  // validated by the lane's next scheduler step.
  void ReadLockRootLane(BatchLane& lane) const {
    do {
      lane.node = root_.load(std::memory_order_acquire);
    } while (!ReadLockRoot(lane.node, lane.hold));
    lane.entering = false;
  }

  size_t LookupInterleaved(const Key* keys, size_t n, Value* values,
                           bool* found, size_t lane_count) const {
    RestartCounter restarts(read_restarts_);
    restarts.Tick();  // The whole batch is one attempt...
    BatchLane lanes[kMaxBatchLanes];
    size_t next_op = 0;
    size_t active = 0;
    for (size_t i = 0; i < lane_count; ++i) {
      lanes[i].op = next_op++;
      lanes[i].active = true;
      ReadLockRootLane(lanes[i]);
      ++active;
    }

    size_t hits = 0;
    size_t l = 0;
    while (active > 0) {
      BatchLane& lane = lanes[l];
      l = (l + 1 == lane_count) ? 0 : l + 1;
      if (!lane.active) continue;

      if (lane.entering) {
        ReadHold child_hold;
        if (!EnterNode(AsInner(lane.node), lane.hold, lane.child,
                       child_hold)) {
          restarts.Tick();  // ...and each lane restart adds one.
          ReadLockRootLane(lane);
          continue;
        }
        lane.node = lane.child;
        lane.hold = child_hold;
        lane.entering = false;
        continue;
      }

      if (!IsLeaf(lane.node)) {
        // The prefetch is the latency this lane hides: the child is only
        // touched after every other lane has taken a turn.
        NodeBase* child = PeekChild(AsInner(lane.node), keys[lane.op],
                                    lane.hold, /*whole_leaf=*/true);
        if (child == nullptr) {
          restarts.Tick();
          ReadLockRootLane(lane);
          continue;
        }
        lane.child = child;
        lane.entering = true;
        continue;
      }

      const Leaf* leaf = AsLeaf(lane.node);
      uint16_t pos;
      const bool hit = leaf->Find(keys[lane.op], pos);
      Value value{};
      if (hit) value = leaf->values[pos];
      if (!ValidateHold(leaf->lock, lane.hold)) {
        restarts.Tick();
        ReadLockRootLane(lane);
        continue;
      }
      found[lane.op] = hit;
      if (hit) {
        values[lane.op] = value;
        ++hits;
      }
      if (next_op < n) {
        lane.op = next_op++;
        ReadLockRootLane(lane);
      } else {
        lane.active = false;
        --active;
      }
    }
    return hits;
  }

  // --- Write paths ---

  bool Write(const Key& key, const Value* value, WriteKind kind) {
    EpochGuard guard;
    if constexpr (kProtocol == BTreeProtocol::kCoupling) {
      return WriteCoupling(key, value, kind);
    } else {
      return WriteOptimistic(key, value, kind);
    }
  }

  // Shared by OLC and OptiQL protocols: the read descent with eager
  // inner-node splits and merges (OptLock-style upgrades on inner nodes),
  // then a protocol-specific leaf step.
  bool WriteOptimistic(const Key& key, const Value* value, WriteKind kind) {
    RestartCounter restarts(write_restarts_);
    while (true) {
      restarts.Tick();
      NodeBase* node = root_.load(std::memory_order_acquire);
      ReadHold hold;
      if (!ReadLockRoot(node, hold)) continue;

      Inner* parent = nullptr;
      uint64_t pv = 0;
      bool parent_is_root = false;
      bool restart = false;

      while (!IsLeaf(node)) {
        Inner* inner = AsInner(node);
        // Eager split keeps the instability scope at parent+node.
        if (NeedsSplitForWrite(kind) && inner->count == kInnerMax) {
          if (UpgradeForSplit(parent, pv, inner, hold.v)) {
            SplitNode(parent, inner);
            if (parent != nullptr) UnlockNodeEx(parent->lock);
            UnlockNodeEx(inner->lock);
          }
          restart = true;  // Structure changed or a lock step failed.
          break;
        }
        // Eager merge mirrors the eager split: fix an underfull inner node
        // while descending for a remove, so SMOs never propagate upwards.
        if (kind == WriteKind::kRemove && parent != nullptr &&
            inner->count <= kInnerMin) {
          bool screen_restart = false;
          if (RebalanceInnerMightHelp(parent, pv, parent_is_root, inner,
                                      &screen_restart)) {
            if (RebalanceUpgraded(parent, pv, parent_is_root, inner,
                                  hold.v)) {
              restart = true;
              break;
            }
            UnlockNodeExNoBump(inner->lock);
            UnlockNodeExNoBump(parent->lock);
          } else if (screen_restart) {
            restart = true;
            break;
          }
          // No profitable rebalance: every lock was released without a
          // version bump (or none was taken at all), so the snapshots stay
          // valid; keep descending.
        }
        NodeBase* child = PeekChild(inner, key, hold);
        ReadHold child_hold;
        if (child == nullptr || !EnterNode(inner, hold, child, child_hold)) {
          restart = true;
          break;
        }
        parent_is_root = parent == nullptr;
        parent = inner;
        pv = hold.v;
        node = child;
        hold = child_hold;
      }
      if (restart) continue;

      Leaf* leaf = AsLeaf(node);
      bool result = false;
      if constexpr (kInPlaceUpdates) {
        // Latch-free point update: for an existing key, publish the value
        // with one atomic store under a version-preserving micro-window, so
        // overlapping optimistic readers never restart. Falls back to the
        // locked path for misses needing insertion and lost races.
        if (kind == WriteKind::kUpdate || kind == WriteKind::kUpsert) {
          const InPlaceStatus ip =
              LeafUpdateInPlace(leaf, hold.v, key, value, kind, &result);
          if (ip == InPlaceStatus::kDone) return result;
          if (ip == InPlaceStatus::kRestart) continue;
          // kFallback: take the locked leaf path below.
        }
      }
      LeafWriteStatus status;
      if constexpr (kProtocol == BTreeProtocol::kOptiQl) {
        status = LeafWriteOptiQl(leaf, parent, pv, parent_is_root, key, value,
                                 kind, &result);
      } else {
        status = LeafWriteOlc(leaf, hold.v, parent, pv, parent_is_root, key,
                              value, kind, &result);
      }
      if (status == LeafWriteStatus::kRestart) continue;
      return result;
    }
  }

  enum class LeafWriteStatus { kDone, kRestart };

  enum class InPlaceStatus { kDone, kRestart, kFallback };

  // Latch-free leaf value overwrite (FB+-tree style, ISSUE 6 tentpole (b)).
  //
  // Soundness: a pure store-then-validate scheme is unsound here, because a
  // concurrent locked writer can shift slots between our validated search
  // and our store, landing the store in a *different* key's slot (validation
  // would detect but not undo the corruption). Instead the store is
  // published under a version-preserving micro-window:
  //
  //   1. search the leaf optimistically, then Validate(v) — pos is the
  //      key's slot as of version v;
  //   2. TryUpgrade(v): success proves the word never changed since the
  //      snapshot, so no writer intervened and pos is still the slot;
  //   3. one atomic release-store of the 8-byte value;
  //   4. ReleaseExNoBump: the word returns to exactly v.
  //
  // Because the version is preserved, optimistic readers overlapping the
  // update never restart — from the reader side the update is latch-free;
  // they observe either the old or the new value atomically. No key,
  // count, or structure changes, so concurrent writers' validated searches
  // stay correct, and any structural writer bumps the version, which makes
  // our TryUpgrade fail and routes us to the locked path.
  InPlaceStatus LeafUpdateInPlace(Leaf* leaf, uint64_t v, const Key& key,
                                  const Value* value, WriteKind kind,
                                  bool* result) {
    uint16_t pos;
    const bool exists = leaf->Find(key, pos);
    if (!Validate(leaf->lock, v)) return InPlaceStatus::kRestart;
    if (!exists) {
      if (kind == WriteKind::kUpdate) {
        // Validated miss: the key is genuinely absent at version v.
        *result = false;
        return InPlaceStatus::kDone;
      }
      // Upsert of a missing key needs an insertion: structural, locked path.
      return InPlaceStatus::kFallback;
    }
    typename LeafOps::ExHandle handle{};
    if (!LeafOps::TryUpgrade(leaf->lock, v, /*slot=*/0, handle)) {
      // Lost the race (writer queued, or an OPREAD window is open): the
      // locked path will line up in the queue instead of spinning here.
      LockTelemetry::Count(LockTelemetry::kInPlaceFallback);
      return InPlaceStatus::kFallback;
    }
    std::atomic_ref<Value>(leaf->values[pos])
        .store(*value, std::memory_order_release);
    LeafOps::UnlockExNoBump(leaf->lock, handle);
    LockTelemetry::Count(LockTelemetry::kInPlaceUpdate);
    *result = true;
    return InPlaceStatus::kDone;
  }

  static constexpr bool NeedsSplitForWrite(WriteKind kind) {
    return kind == WriteKind::kInsert || kind == WriteKind::kUpsert;
  }

  // OLC split entry: upgrades `parent` (or, at the root, verifies that
  // `node` still is the root) and then `node` from their snapshots, and
  // checks that the parent still has room for a separator. A parent that
  // filled up since we passed it is split eagerly on the next descent.
  // False = every lock released; the caller restarts.
  template <class Node>
  bool UpgradeForSplit(Inner* parent, uint64_t pv, Node* node, uint64_t v) {
    if (parent != nullptr && !TryUpgradeLock(parent->lock, pv)) return false;
    if (!TryUpgradeLock(node->lock, v)) {
      if (parent != nullptr) UnlockNodeEx(parent->lock);
      return false;
    }
    if (parent == nullptr && root_.load(std::memory_order_acquire) != node) {
      UnlockNodeEx(node->lock);
      return false;
    }
    if (parent != nullptr && parent->count == kInnerMax) {
      UnlockNodeEx(parent->lock);
      UnlockNodeEx(node->lock);
      return false;
    }
    return true;
  }

  // The one split, for every protocol: moves the upper half of `node` to a
  // new right sibling and publishes it into `parent`, or under a new root
  // when `parent` is null. A leaf keeps the lower half of its pairs and
  // links the new leaf into the chain; an inner node's middle key moves up.
  // The caller holds `node` and `parent` exclusively (or verified root
  // ownership). Returns the new right node.
  NodeBase* SplitNode(Inner* parent, NodeBase* node) {
    NodeBase* right;
    Key separator;
    if (IsLeaf(node)) {
      leaf_splits_.fetch_add(1, std::memory_order_relaxed);
      Leaf* leaf = AsLeaf(node);
      const uint16_t mid = leaf->count / 2;
      Leaf* half = new Leaf();
      half->count = static_cast<uint16_t>(leaf->count - mid);
      for (uint16_t i = 0; i < half->count; ++i) {
        half->keys[i] = leaf->keys[mid + i];
        half->values[i] = leaf->values[mid + i];
      }
      leaf->count = mid;
      half->next = leaf->next;
      leaf->next = half;
      separator = half->keys[0];
      right = half;
    } else {
      inner_splits_.fetch_add(1, std::memory_order_relaxed);
      Inner* inner = AsInner(node);
      const uint16_t mid = inner->count / 2;
      Inner* half = new Inner(inner->level);
      half->count = static_cast<uint16_t>(inner->count - mid - 1);
      for (uint16_t i = 0; i < half->count; ++i) {
        half->keys[i] = inner->keys[mid + 1 + i];
      }
      for (uint16_t i = 0; i <= half->count; ++i) {
        half->children[i] = inner->children[mid + 1 + i];
      }
      separator = inner->keys[mid];
      inner->count = mid;
      right = half;
    }
    live_nodes_.fetch_add(1, std::memory_order_relaxed);
    PublishSplit(parent, node, right, separator);
    return right;
  }

  // Inserts (separator, right) into `parent`, or grows a new root when
  // `parent` is null. Caller holds `left` (and `parent` if present)
  // exclusively and has verified root identity when parent is null.
  void PublishSplit(Inner* parent, NodeBase* left, NodeBase* right,
                    const Key& separator) {
    if constexpr (kProtocol != BTreeProtocol::kCoupling) {
      // SMO ordering: a split becomes visible to optimistic readers the
      // moment the separator lands in the parent, so both the parent and
      // the (half-emptied) left node must already be exclusively locked —
      // publishing first and locking after would expose a torn split.
      // (The coupling protocol's reader-writer locks carry no IsLockedEx;
      // its discipline is enforced by thread-safety analysis instead.)
      OPTIQL_INVARIANT(
          parent == nullptr || parent->lock.IsLockedEx(),
          "B+-tree SMO ordering: split published into an unlocked parent");
      OPTIQL_INVARIANT(
          NodeIsLockedEx(left),
          "B+-tree SMO ordering: split published while the left half is "
          "not exclusively locked");
    }
    if (parent != nullptr) {
      parent->InsertAt(parent->ChildIndex(separator, parent->count),
                       separator, right);
      return;
    }
    Inner* new_root = new Inner(static_cast<uint16_t>(left->level + 1));
    live_nodes_.fetch_add(1, std::memory_order_relaxed);
    new_root->count = 1;
    new_root->keys[0] = separator;
    new_root->children[0] = left;
    new_root->children[1] = right;
    root_.store(new_root, std::memory_order_release);
  }

  // OLC leaf step: upgrade from the observed version (CAS); on any failure
  // the operation restarts from the root (paper §6.1's description of the
  // original protocol).
  LeafWriteStatus LeafWriteOlc(Leaf* leaf, uint64_t v, Inner* parent,
                               uint64_t pv, bool parent_is_root,
                               const Key& key, const Value* value,
                               WriteKind kind, bool* result) {
    if (kind == WriteKind::kRemove && parent != nullptr &&
        leaf->count <= kLeafMin) {
      if (RebalanceUpgraded(parent, pv, parent_is_root, leaf, v)) {
        return LeafWriteStatus::kRestart;
      }
      // No profitable structural move (tiny geometry, or the siblings are
      // as drained as we are): complete the remove in place.
      UnlockNodeExNoBump(parent->lock);
      *result = ApplyToLeaf(leaf, key, nullptr, WriteKind::kRemove);
      UnlockNodeEx(leaf->lock);
      return LeafWriteStatus::kDone;
    }
    if (NeedsSplitForWrite(kind) && leaf->count == kLeafMax) {
      if (!UpgradeForSplit(parent, pv, leaf, v)) {
        return LeafWriteStatus::kRestart;
      }
      *result = SplitLeafAndApply(leaf, parent, key, value, kind);
      if (parent != nullptr) UnlockNodeEx(parent->lock);
      UnlockNodeEx(leaf->lock);
      return LeafWriteStatus::kDone;
    }

    if (!TryUpgradeLock(leaf->lock, v)) return LeafWriteStatus::kRestart;
    *result = ApplyToLeaf(leaf, key, value, kind);
    UnlockNodeEx(leaf->lock);
    return LeafWriteStatus::kDone;
  }


  // OptiQL leaf step (paper Algorithm 4): lock the leaf *directly* with the
  // queue-based lock, then validate the parent; no upgrade, no re-search
  // after waiting in the queue.
  LeafWriteStatus LeafWriteOptiQl(Leaf* leaf, Inner* parent, uint64_t pv,
                                  bool parent_is_root, const Key& key,
                                  const Value* value, WriteKind kind,
                                  bool* result) {
    typename LeafOps::ExHandle handle{};
    if constexpr (kAor) {
      // The AOR window (deferred acquisition with opportunistic reads) is
      // OptiQL-specific and outside the TxnOps contract; enter it directly
      // and fold the queue node into the contract handle for the releases.
      handle.node = ThreadQNodes::Get(0);
      leaf->lock.AcquireExDeferred(handle.node);
    } else {
      handle = LeafOps::LockEx(leaf->lock, /*slot=*/0);
    }
    auto abort = [&] {
      if constexpr (kAor) leaf->lock.FinishAcquireEx(handle.node);
      LeafOps::UnlockEx(leaf->lock, handle);
      return LeafWriteStatus::kRestart;
    };
    // The leaf may have been split/emptied while we waited in the queue;
    // the parent's version tells us (step 3 of the adapted protocol).
    if (parent != nullptr) {
      if (!Validate(parent->lock, pv)) return abort();
    } else if (root_.load(std::memory_order_acquire) != leaf) {
      return abort();
    }

    if (kind == WriteKind::kRemove && parent != nullptr &&
        leaf->count <= kLeafMin) {
      // Structural work modifies the leaf; close any inherited window now.
      if constexpr (kAor) leaf->lock.FinishAcquireEx(handle.node);
      return RebalanceLeafOptiQl(parent, pv, parent_is_root, leaf, handle,
                                 key, result);
    }

    if (NeedsSplitForWrite(kind) && leaf->count == kLeafMax) {
      if constexpr (kAor) leaf->lock.FinishAcquireEx(handle.node);
      if (parent != nullptr) {
        if (!TryUpgradeLock(parent->lock, pv)) {
          LeafOps::UnlockEx(leaf->lock, handle);
          return LeafWriteStatus::kRestart;
        }
        if (parent->count == kInnerMax) {
          UnlockNodeEx(parent->lock);
          LeafOps::UnlockEx(leaf->lock, handle);
          return LeafWriteStatus::kRestart;
        }
      }
      *result = SplitLeafAndApply(leaf, parent, key, value, kind);
      if (parent != nullptr) UnlockNodeEx(parent->lock);
      LeafOps::UnlockEx(leaf->lock, handle);
      return LeafWriteStatus::kDone;
    }

    if constexpr (kAor) {
      // AOR: opportunistic readers stay admitted through the (read-only)
      // in-leaf search; close the window only before modifying.
      const uint16_t n = leaf->count;
      const uint16_t pos = leaf->LowerBound(key, n);
      leaf->lock.FinishAcquireEx(handle.node);
      *result = ApplyToLeafAt(leaf, pos, key, value, kind);
    } else {
      *result = ApplyToLeaf(leaf, key, value, kind);
    }
    LeafOps::UnlockEx(leaf->lock, handle);
    return LeafWriteStatus::kDone;
  }


  // Splits an exclusively-locked full leaf (parent exclusively locked or
  // root ownership verified), then applies the pending write to the half
  // that now covers `key`. Returns the operation result.
  bool SplitLeafAndApply(Leaf* leaf, Inner* parent, const Key& key,
                         const Value* value, WriteKind kind) {
    Leaf* right = AsLeaf(SplitNode(parent, leaf));
    return ApplyToLeaf(key < right->keys[0] ? leaf : right, key, value, kind);
  }

  bool ApplyToLeaf(Leaf* leaf, const Key& key, const Value* value,
                   WriteKind kind) {
    const uint16_t pos = leaf->LowerBound(key, leaf->count);
    return ApplyToLeafAt(leaf, pos, key, value, kind);
  }

  bool ApplyToLeafAt(Leaf* leaf, uint16_t pos, const Key& key,
                     const Value* value, WriteKind kind) {
    const bool exists =
        pos < leaf->count && leaf->keys[pos] == key;
    switch (kind) {
      case WriteKind::kInsert:
        if (exists) return false;
        InsertIntoLeaf(leaf, pos, key, *value);
        return true;
      case WriteKind::kUpdate:
        if (!exists) return false;
        leaf->values[pos] = *value;
        return true;
      case WriteKind::kUpsert:
        if (exists) {
          leaf->values[pos] = *value;
        } else {
          InsertIntoLeaf(leaf, pos, key, *value);
        }
        return true;
      case WriteKind::kRemove:
        if (!exists) return false;
        for (uint16_t i = pos; i + 1 < leaf->count; ++i) {
          leaf->keys[i] = leaf->keys[i + 1];
          leaf->values[i] = leaf->values[i + 1];
        }
        --leaf->count;
        size_.fetch_sub(1, std::memory_order_acq_rel);
        return true;
    }
    return false;
  }

  void InsertIntoLeaf(Leaf* leaf, uint16_t pos, const Key& key,
                      const Value& value) {
    OPTIQL_CHECK(leaf->count < kLeafMax);
    for (uint16_t i = leaf->count; i > pos; --i) {
      leaf->keys[i] = leaf->keys[i - 1];
      leaf->values[i] = leaf->values[i - 1];
    }
    leaf->keys[pos] = key;
    leaf->values[pos] = value;
    ++leaf->count;
    size_.fetch_add(1, std::memory_order_acq_rel);
  }

  // --- Delete-time rebalancing (all protocols) ---
  //
  // Lock discipline mirrors the split paths: the parent is always held
  // exclusively before any same-level sibling pair, so at most three locks
  // (parent + node + sibling) are held and SMOs never propagate upwards.
  // Merges prefer absorbing the right node into the left (the leaf chain
  // then just skips the victim); when neither a merge fits nor a rotation
  // puts both nodes strictly above their minimum, the pass backs out
  // without publishing any change.

  static bool IsUnderfull(const NodeBase* node) {
    return IsLeaf(node) ? node->count <= kLeafMin
                        : node->count <= kInnerMin;
  }

  // True iff balancing `l + r` entries across both nodes leaves each
  // strictly above `min` — i.e. the rotation actually cures the underflow.
  // Signed arithmetic: l + r can be 0 and unsigned wraparound would claim
  // progress where none is possible, re-triggering forever.
  static bool RotationHelps(uint16_t l, uint16_t r, uint16_t min) {
    return (static_cast<int>(l) + static_cast<int>(r)) / 2 >
           static_cast<int>(min);
  }

  // True iff adjacent siblings holding `l` and `r` entries fit in one node
  // (an inner merge also pulls their separator down) and the parent can
  // give up a separator: a non-root inner node must keep at least one.
  static bool MergeFits(bool leaf, uint16_t l, uint16_t r,
                        uint16_t parent_count, bool parent_is_root) {
    const int entries = l + r + (leaf ? 0 : 1);
    return entries <= (leaf ? kLeafMax : kInnerMax) &&
           (parent_count >= 2 || parent_is_root);
  }

  // `child` is guaranteed present: every caller holds `parent` exclusively
  // and (re)validated the parent-child edge under that lock.
  static uint16_t FindChildIndex(const Inner* parent, const NodeBase* child) {
    for (uint16_t i = 0; i <= parent->count; ++i) {
      if (parent->children[i] == child) return i;
    }
    OPTIQL_CHECK(!"child vanished from an exclusively held parent");
    return 0;
  }

  // Removes separator keys[child_idx - 1] and children[child_idx].
  static void RemoveChildAt(Inner* parent, uint16_t child_idx) {
    OPTIQL_CHECK(child_idx >= 1 && child_idx <= parent->count);
    for (uint16_t i = child_idx; i < parent->count; ++i) {
      parent->keys[i - 1] = parent->keys[i];
      parent->children[i] = parent->children[i + 1];
    }
    --parent->count;
  }

  // Absorbs `right` into `left` (adjacent leaves under `parent`, all held
  // exclusively) and unlinks it from parent and leaf chain. The victim's
  // contents are deliberately left intact: optimistic readers parked on it
  // may still scan it before their validation fails.
  void MergeLeaves(Inner* parent, uint16_t left_idx, Leaf* left,
                   Leaf* right) {
    OPTIQL_CHECK(left->next == right);
    OPTIQL_CHECK(left->count + right->count <= kLeafMax);
    for (uint16_t i = 0; i < right->count; ++i) {
      left->keys[left->count + i] = right->keys[i];
      left->values[left->count + i] = right->values[i];
    }
    left->count = static_cast<uint16_t>(left->count + right->count);
    left->next = right->next;
    RemoveChildAt(parent, static_cast<uint16_t>(left_idx + 1));
    leaf_merges_.fetch_add(1, std::memory_order_relaxed);
  }

  // Same for inner nodes; the separator between them comes down to bridge
  // left's last child and right's first.
  void MergeInners(Inner* parent, uint16_t left_idx, Inner* left,
                   Inner* right) {
    OPTIQL_CHECK(left->count + right->count + 1 <= kInnerMax);
    left->keys[left->count] = parent->keys[left_idx];
    for (uint16_t i = 0; i < right->count; ++i) {
      left->keys[left->count + 1 + i] = right->keys[i];
    }
    for (uint16_t i = 0; i <= right->count; ++i) {
      left->children[left->count + 1 + i] = right->children[i];
    }
    left->count = static_cast<uint16_t>(left->count + right->count + 1);
    RemoveChildAt(parent, static_cast<uint16_t>(left_idx + 1));
    inner_merges_.fetch_add(1, std::memory_order_relaxed);
  }

  // Rotations between exclusively held adjacent siblings: entries move one
  // at a time across keys[left_idx], the separator between them, until the
  // two counts differ by at most one.

  static void BalanceLeaves(Inner* parent, uint16_t left_idx, Leaf* left,
                            Leaf* right) {
    while (left->count + 1 < right->count) {
      left->keys[left->count] = right->keys[0];
      left->values[left->count] = right->values[0];
      ++left->count;
      for (uint16_t i = 1; i < right->count; ++i) {
        right->keys[i - 1] = right->keys[i];
        right->values[i - 1] = right->values[i];
      }
      --right->count;
      parent->keys[left_idx] = right->keys[0];
    }
    while (right->count + 1 < left->count) {
      for (uint16_t i = right->count; i > 0; --i) {
        right->keys[i] = right->keys[i - 1];
        right->values[i] = right->values[i - 1];
      }
      right->keys[0] = left->keys[left->count - 1];
      right->values[0] = left->values[left->count - 1];
      ++right->count;
      --left->count;
      parent->keys[left_idx] = right->keys[0];
    }
  }

  static void BalanceInners(Inner* parent, uint16_t left_idx, Inner* left,
                            Inner* right) {
    while (left->count + 1 < right->count) {
      // Separator descends to left's tail, adopting right's first child;
      // right's first key ascends.
      left->keys[left->count] = parent->keys[left_idx];
      left->children[left->count + 1] = right->children[0];
      ++left->count;
      parent->keys[left_idx] = right->keys[0];
      for (uint16_t i = 1; i < right->count; ++i) {
        right->keys[i - 1] = right->keys[i];
      }
      for (uint16_t i = 1; i <= right->count; ++i) {
        right->children[i - 1] = right->children[i];
      }
      --right->count;
    }
    while (right->count + 1 < left->count) {
      for (uint16_t i = right->count; i > 0; --i) {
        right->keys[i] = right->keys[i - 1];
      }
      for (uint16_t i = static_cast<uint16_t>(right->count + 1); i > 0; --i) {
        right->children[i] = right->children[i - 1];
      }
      right->keys[0] = parent->keys[left_idx];
      right->children[0] = left->children[left->count];
      ++right->count;
      parent->keys[left_idx] = left->keys[left->count - 1];
      --left->count;
    }
  }

  // Unlinks are published before this runs, so late readers of the victim
  // fail validation (obsolete lock) and nobody holds a path to it; the
  // epoch layer defers the actual free past every in-flight guard.
  void RetireNode(NodeBase* node) {
    live_nodes_.fetch_sub(1, std::memory_order_relaxed);
    nodes_retired_.fetch_add(1, std::memory_order_relaxed);
    if (IsLeaf(node)) {
      EpochManager::Instance().Retire(AsLeaf(node));
    } else {
      EpochManager::Instance().Retire(AsInner(node));
    }
  }

  // Points root_ at the lone child of a root merged down to zero
  // separators. The caller holds the old root exclusively and retires it
  // after the release.
  void CollapseRoot(Inner* root) {
    OPTIQL_CHECK(root_.load(std::memory_order_acquire) == root);
    root_.store(root->children[0], std::memory_order_release);
    root_collapses_.fetch_add(1, std::memory_order_relaxed);
  }

  // Releases the exclusively held parent after a child merge, collapsing a
  // root left with zero separators onto its lone child. `parent_is_root`
  // stays truthful under the held lock: any operation that moves root_ away
  // from a node bumps that node's version first, which would have failed
  // the caller's upgrade.
  void ReleaseParentAfterMerge(Inner* parent, bool parent_is_root) {
    if (parent_is_root && parent->count == 0) {
      CollapseRoot(parent);
      UnlockNodeExObsolete(parent->lock);
      RetireNode(parent);
      return;
    }
    UnlockNodeEx(parent->lock);
  }

  // Lock-free pre-screen for rebalancing an inner node: peeks at the node's
  // neighbour under the parent snapshot and reports whether a merge could
  // fit or a rotation could cure the underflow. Without it every remove
  // descending past a permanently-underfull inner node (tiny geometry,
  // drained siblings) would upgrade two locks and block on the sibling only
  // to back out, serializing hot inner nodes. The counts are unvalidated —
  // they gate a heuristic only; the locked pass re-checks everything. On a
  // dead parent snapshot sets *restart and returns false.
  bool RebalanceInnerMightHelp(const Inner* parent, uint64_t pv,
                               bool parent_is_root, const Inner* inner,
                               bool* restart) const {
    const uint16_t pn = LoadCount(parent, kInnerMax);
    uint16_t idx = 0;
    while (idx <= pn && parent->children[idx] != inner) ++idx;
    if (idx > pn || pn == 0) {
      // Racy miss, or no visible sibling: let the locked pass decide.
      return true;
    }
    const NodeBase* sibling = parent->children[idx < pn ? idx + 1 : idx - 1];
    if (!Validate(parent->lock, pv)) {
      *restart = true;
      return false;
    }
    // `sibling` is now a real child pointer; even if it is merged away
    // concurrently its memory stays valid under our epoch guard.
    const uint16_t n = LoadCount(inner, kInnerMax);
    const uint16_t s = LoadCount(sibling, kInnerMax);
    return MergeFits(/*leaf=*/false, n, s, pn, parent_is_root) ||
           RotationHelps(n, s, kInnerMin);
  }

  enum class Rebalanced { kMerged, kRotated, kNone };

  // The adjacent pair a rebalance works on: keys[left_idx] of the parent
  // separates `left` from `right`, and `sibling` is whichever of the two
  // is not the underfull node.
  struct SiblingPair {
    NodeBase* left = nullptr;
    NodeBase* right = nullptr;
    NodeBase* sibling = nullptr;
    uint16_t left_idx = 0;
  };

  // The one delete-time rebalance, for every protocol and node kind.
  // `parent` and the underfull `node` are held exclusively. Picks the
  // node's right sibling (its left one when the node is the last child),
  // has `lock_sibling(pair)` lock that sibling exclusively, then merges the
  // pair when it fits in one node (right into left, unlinking right), or
  // rotates entries across when that lifts both above their minimum, or
  // changes nothing. Every lock release, and retiring `pair.right` after a
  // merge, stays with the caller, whose lock family decides how.
  template <class LockSibling>
  Rebalanced MergeOrRotate(Inner* parent, bool parent_is_root, NodeBase* node,
                           SiblingPair& pair, const LockSibling& lock_sibling) {
    const uint16_t idx = FindChildIndex(parent, node);
    const bool node_is_left = idx < parent->count;
    pair.left_idx = node_is_left ? idx : static_cast<uint16_t>(idx - 1);
    pair.left = parent->children[pair.left_idx];
    pair.right = parent->children[pair.left_idx + 1];
    pair.sibling = node_is_left ? pair.right : pair.left;
    lock_sibling(pair);

    const bool leaf = IsLeaf(node);
    const uint16_t l = pair.left->count;
    const uint16_t r = pair.right->count;
    if (MergeFits(leaf, l, r, parent->count, parent_is_root)) {
      if (leaf) {
        MergeLeaves(parent, pair.left_idx, AsLeaf(pair.left),
                    AsLeaf(pair.right));
      } else {
        MergeInners(parent, pair.left_idx, AsInner(pair.left),
                    AsInner(pair.right));
      }
      return Rebalanced::kMerged;
    }
    if (!RotationHelps(l, r, leaf ? kLeafMin : kInnerMin)) {
      return Rebalanced::kNone;
    }
    if (leaf) {
      BalanceLeaves(parent, pair.left_idx, AsLeaf(pair.left),
                    AsLeaf(pair.right));
    } else {
      BalanceInners(parent, pair.left_idx, AsInner(pair.left),
                    AsInner(pair.right));
    }
    rebalance_borrows_.fetch_add(1, std::memory_order_relaxed);
    return Rebalanced::kRotated;
  }

  // Rebalance by upgrades (optimistic inner nodes and OLC leaves): upgrade
  // parent, then node, from their snapshots; lock the sibling blocking,
  // which is deadlock-free because every writer that locks a same-level
  // pair holds their parent exclusively first, and we hold it. True = the
  // structure changed or a lock step failed (all released; restart).
  // False = no profitable move: the sibling was released without a bump,
  // and `parent` + `node` stay held for the caller to release.
  template <class Node>
  bool RebalanceUpgraded(Inner* parent, uint64_t pv, bool parent_is_root,
                         Node* node, uint64_t v) {
    if (!TryUpgradeLock(parent->lock, pv)) return true;
    if (!TryUpgradeLock(node->lock, v)) {
      UnlockNodeExNoBump(parent->lock);
      return true;
    }
    SiblingPair pair;
    const Rebalanced done =
        MergeOrRotate(parent, parent_is_root, node, pair,
                      [](const SiblingPair& p) {
                        LockNodeEx(static_cast<Node*>(p.sibling)->lock,
                                   /*slot=*/1);
                      });
    Node* sibling = static_cast<Node*>(pair.sibling);
    if (done == Rebalanced::kMerged) {
      UnlockNodeExObsolete(static_cast<Node*>(pair.right)->lock);
      UnlockNodeEx(static_cast<Node*>(pair.left)->lock);
      RetireNode(pair.right);
      ReleaseParentAfterMerge(parent, parent_is_root);
      return true;
    }
    if (done == Rebalanced::kRotated) {
      UnlockNodeEx(sibling->lock);
      UnlockNodeEx(node->lock);
      UnlockNodeEx(parent->lock);
      return true;
    }
    UnlockNodeExNoBump(sibling->lock);
    return false;
  }

  // Leaf-level rebalance for the OptiQL protocol. The caller already owns
  // the leaf exclusively (queue grant, window closed) and validated the
  // parent edge; we upgrade the parent from its snapshot and lock the
  // sibling through its queue. Queued writers on a merged-away leaf drain
  // normally and fail their parent validation afterwards.
  LeafWriteStatus RebalanceLeafOptiQl(Inner* parent, uint64_t pv,
                                      bool parent_is_root, Leaf* leaf,
                                      typename LeafOps::ExHandle handle,
                                      const Key& key, bool* result) {
    if (!TryUpgradeLock(parent->lock, pv)) {
      LeafOps::UnlockEx(leaf->lock, handle);
      return LeafWriteStatus::kRestart;
    }
    // Deadlock-free: sibling holders either hold only that leaf (plain leaf
    // writers — they never block on the parent, they validate it) or
    // acquired the parent first (structural passes — excluded, we hold it).
    SiblingPair pair;
    typename LeafOps::ExHandle sibling_handle{};
    const Rebalanced done =
        MergeOrRotate(parent, parent_is_root, leaf, pair,
                      [&sibling_handle](const SiblingPair& p) {
                        sibling_handle =
                            LeafOps::LockEx(AsLeaf(p.sibling)->lock, 1);
                      });
    Leaf* sibling = AsLeaf(pair.sibling);
    if (done == Rebalanced::kMerged) {
      if (pair.right == leaf) {
        LeafOps::UnlockExObsolete(leaf->lock, handle);
        LeafOps::UnlockEx(sibling->lock, sibling_handle);
      } else {
        LeafOps::UnlockExObsolete(sibling->lock, sibling_handle);
        LeafOps::UnlockEx(leaf->lock, handle);
      }
      RetireNode(pair.right);
      ReleaseParentAfterMerge(parent, parent_is_root);
      return LeafWriteStatus::kRestart;
    }
    if (done == Rebalanced::kRotated) {
      LeafOps::UnlockEx(sibling->lock, sibling_handle);
      LeafOps::UnlockEx(leaf->lock, handle);
      UnlockNodeEx(parent->lock);
      return LeafWriteStatus::kRestart;
    }
    // No profitable move; release the sibling with a bump anyway — a
    // spurious version bump only costs overlapping readers a restart.
    LeafOps::UnlockEx(sibling->lock, sibling_handle);
    UnlockNodeExNoBump(parent->lock);
    *result = ApplyToLeaf(leaf, key, nullptr, WriteKind::kRemove);
    LeafOps::UnlockEx(leaf->lock, handle);
    return LeafWriteStatus::kDone;
  }

  // --- Pessimistic write path: exclusive top-down coupling with eager
  // splits (at most two exclusive locks held). ---
  //
  // Hand-over-hand coupling is outside what Clang's thread-safety analysis
  // can express: the set of held locks is data-dependent (each iteration
  // acquires child then releases parent), so the coupling functions below
  // opt out with OPTIQL_NO_THREAD_SAFETY_ANALYSIS. These paths are covered
  // by the coupling suites under TSan and the invariant build instead.
  // Coupling goes through the slot-based exclusive surface of the TxnOps
  // contract (InnerLock == LeafLock for coupling policies).
  using POps = TxnOps<InnerLock>;

  static void LockOf(NodeBase* node,
                     int slot) OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    if (IsLeaf(node)) {
      POps::LockEx(AsLeaf(node)->lock, slot);
    } else {
      POps::LockEx(AsInner(node)->lock, slot);
    }
  }

  static void UnlockOf(NodeBase* node,
                       int slot) OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    if (IsLeaf(node)) {
      POps::UnlockEx(AsLeaf(node)->lock, slot);
    } else {
      POps::UnlockEx(AsInner(node)->lock, slot);
    }
  }

  bool WriteCoupling(const Key& key, const Value* value,
                     WriteKind kind) OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    while (true) {
      NodeBase* node = root_.load(std::memory_order_acquire);
      int slot = 0;
      LockOf(node, slot);
      if (node != root_.load(std::memory_order_acquire)) {
        UnlockOf(node, slot);
        continue;
      }

      // Split a full root first so descending splits always have a parent.
      // The key may now belong to the new right sibling, which is only
      // reachable through the new root, so re-traverse.
      if (NeedsSplitForWrite(kind) && IsFull(node)) {
        SplitNode(nullptr, node);
        UnlockOf(node, slot);
        continue;
      }

      bool at_root = true;
      bool restart = false;
      while (!IsLeaf(node)) {
        Inner* inner = AsInner(node);
        NodeBase* child =
            inner->children[inner->ChildIndex(key, inner->count)];
        PrefetchNodeHeader(child);  // Warm the child's lock word.
        const int child_slot = 1 - slot;
        LockOf(child, child_slot);
        if (NeedsSplitForWrite(kind) && IsFull(child)) {
          SplitNode(inner, child);
          // Re-route: the key may belong to the new right node.
          NodeBase* target =
              inner->children[inner->ChildIndex(key, inner->count)];
          if (target != child) {
            UnlockOf(child, child_slot);
            LockOf(target, child_slot);
            child = target;
          }
        } else if (kind == WriteKind::kRemove && IsUnderfull(child) &&
                   RebalanceChildCoupling(inner, at_root, slot, child,
                                          child_slot)) {
          // Structure changed and every lock was released; separators may
          // have moved, so re-route from the root.
          restart = true;
          break;
        }
        UnlockOf(node, slot);
        node = child;
        slot = child_slot;
        at_root = false;
      }
      if (restart) continue;

      Leaf* leaf = AsLeaf(node);
      const bool result = ApplyToLeaf(leaf, key, value, kind);
      UnlockOf(node, slot);
      return result;
    }
  }

  // Rebalances an underfull child during a pessimistic descent. On entry
  // `parent` and `child` are held exclusively. Returns true when the
  // structure changed — then ALL locks are released and the caller must
  // re-traverse; false leaves parent + child held and unchanged.
  bool RebalanceChildCoupling(Inner* parent, bool at_root, int parent_slot,
                              NodeBase* child,
                              int child_slot) OPTIQL_NO_THREAD_SAFETY_ANALYSIS {
    const int sibling_slot = 2;
    SiblingPair pair;
    const Rebalanced done = MergeOrRotate(
        parent, at_root, child, pair, [&](const SiblingPair& p) {
          if (p.sibling == p.right) {
            LockOf(p.right, sibling_slot);
            return;
          }
          // Same-level locks must be taken left-to-right: scans couple
          // rightwards along the leaf chain, so holding `child` while
          // blocking on its left sibling can deadlock against a scan
          // holding that sibling shared. Drop the child, lock left, relock.
          // Safe: every writer path to `child` goes through `parent`, which
          // we hold, so its state cannot change while unlocked.
          UnlockOf(child, child_slot);
          LockOf(p.left, sibling_slot);
          LockOf(child, child_slot);
        });
    const int right_slot = pair.right == child ? child_slot : sibling_slot;
    const int left_slot = pair.left == child ? child_slot : sibling_slot;
    if (done == Rebalanced::kMerged) {
      // Nobody can be queued on the victim: reaching it requires the
      // parent or the left sibling, and we hold both exclusively.
      UnlockOf(pair.right, right_slot);
      RetireNode(pair.right);
      UnlockOf(pair.left, left_slot);
      const bool collapse = at_root && parent->count == 0;
      if (collapse) CollapseRoot(parent);
      UnlockOf(parent, parent_slot);
      if (collapse) RetireNode(parent);
      return true;
    }
    if (done == Rebalanced::kRotated) {
      UnlockOf(pair.right, right_slot);
      UnlockOf(pair.left, left_slot);
      UnlockOf(parent, parent_slot);
      return true;
    }
    // No profitable move: release only the sibling and let the descent
    // continue through the still-held parent + child.
    UnlockOf(pair.sibling, sibling_slot);
    return false;
  }

  bool IsFull(const NodeBase* node) const {
    return IsLeaf(node) ? node->count == kLeafMax : node->count == kInnerMax;
  }

  // --- Maintenance ---

  // Frees the subtree and returns the number of nodes freed.
  size_t FreeSubtree(NodeBase* node) {
    if (node == nullptr) return 0;
    if (IsLeaf(node)) {
      delete AsLeaf(node);
      return 1;
    }
    Inner* inner = AsInner(node);
    size_t freed = 1;
    for (uint16_t i = 0; i <= inner->count; ++i) {
      freed += FreeSubtree(inner->children[i]);
    }
    delete inner;
    return freed;
  }

  void CheckSubtree(const NodeBase* node, const Key* lower, const Key* upper,
                    size_t* keys) const {
    if (IsLeaf(node)) {
      const Leaf* leaf = AsLeaf(node);
      OPTIQL_CHECK(leaf->count <= kLeafMax);
      for (uint16_t i = 0; i < leaf->count; ++i) {
        if (i > 0) OPTIQL_CHECK(leaf->keys[i - 1] < leaf->keys[i]);
        if (lower != nullptr) OPTIQL_CHECK(!(leaf->keys[i] < *lower));
        if (upper != nullptr) OPTIQL_CHECK(leaf->keys[i] < *upper);
      }
      *keys += leaf->count;
      return;
    }
    const Inner* inner = AsInner(node);
    OPTIQL_CHECK(inner->count >= 1);
    OPTIQL_CHECK(inner->count <= kInnerMax);
    for (uint16_t i = 0; i < inner->count; ++i) {
      if (i > 0) OPTIQL_CHECK(inner->keys[i - 1] < inner->keys[i]);
    }
    for (uint16_t i = 0; i <= inner->count; ++i) {
      const NodeBase* child = inner->children[i];
      OPTIQL_CHECK(child->level + 1 == inner->level);
      const Key* lo = i == 0 ? lower : &inner->keys[i - 1];
      const Key* hi = i == inner->count ? upper : &inner->keys[i];
      CheckSubtree(child, lo, hi, keys);
    }
  }

 public:
  // --- Transaction-layer hooks (src/txn/) ---
  //
  // Available for the optimistic protocols (the leaf lock carries the
  // version word OCC validates against — the same word single-key
  // operations use, not a shadow table). The hooks assume the CCBench-style
  // transactional workload model: a fixed key population, with structural
  // modifications (Insert/Remove) quiesced while transactions run. Index
  // writers performing splits/merges block on leaf locks while holding
  // inner locks, which a transaction holding leaves could not safely spin
  // against.
  //
  // The caller (a TxnContext) holds one EpochGuard for the whole
  // transaction, so leaf pointers captured here stay dereferenceable until
  // it commits or aborts.

  using TxnLock = LeafLock;

  struct TxnReadResult {
    bool found = false;
    Value value{};
    const LeafLock* lock = nullptr;  // leaf lock guarding the record
    uint64_t version = 0;            // validated snapshot of that word
  };

  // OCC execution-phase read: a validated snapshot of the record plus the
  // leaf word commit-time validation re-checks. Must not be called while
  // the transaction holds leaf locks (it can spin on a held leaf).
  void TxnRead(const Key& key, TxnReadResult& out) const
    requires(kProtocol != BTreeProtocol::kCoupling)
  {
    out.value = Value{};
    out.found = ReadRecord(key, out.value, &out.lock, &out.version);
  }

  // Exclusive record hold for the transaction layer. Non-owning guards
  // piggyback on a leaf the transaction already holds (two keys can share
  // a leaf), so only the owning guard releases.
  class TxnWriteGuard {
   public:
    TxnWriteGuard() = default;

    const LeafLock* LockPtr() const { return &leaf_->lock; }
    Value Read() const { return leaf_->values[pos_]; }
    void Install(const Value& value) {
      OPTIQL_INVARIANT(leaf_ != nullptr,
                       "Install on a guard that never locked a record");
      leaf_->values[pos_] = value;
    }
    uint64_t HeldVersion() const {
      return LeafOps::HeldVersion(leaf_->lock, handle_);
    }
    bool owns() const { return owns_; }

    // Releases the leaf. `installed` == false releases without a version
    // bump where the family supports it, so pure-abort unlocks do not
    // invalidate concurrent readers.
    void Unlock(bool installed) {
      if (!owns_) return;
      owns_ = false;
      if constexpr (LeafOps::kHasNoBump) {
        if (!installed) {
          LeafOps::UnlockExNoBump(leaf_->lock, handle_);
          return;
        }
      }
      (void)installed;
      LeafOps::UnlockEx(leaf_->lock, handle_);
    }

   private:
    friend class BTree;
    Leaf* leaf_ = nullptr;
    uint16_t pos_ = 0;
    bool owns_ = false;
    typename LeafOps::ExHandle handle_{};
  };

  // Commit-time record lock, blocking: queue-based leaf locks wait in the
  // leaf queue. After acquiring, a fresh descent confirms the locked leaf
  // still covers `key` — coverage is then frozen for as long as we hold it
  // (every split/merge/rotation of a leaf requires its lock).
  // `already_held` reports leaf locks this transaction already owns.
  template <class HeldContains>
  TxnLockStatus TxnLockForWrite(const Key& key, int slot,
                                const HeldContains& already_held,
                                TxnWriteGuard& guard)
    requires(kProtocol != BTreeProtocol::kCoupling)
  {
    while (true) {
      Leaf* leaf = TxnDescendToLeaf(key);
      if (already_held(&leaf->lock)) {
        return BindHeldGuard(leaf, key, guard);
      }
      guard.handle_ = LeafOps::LockEx(leaf->lock, slot);
      guard.leaf_ = leaf;
      guard.owns_ = true;
      if (LeafOps::IsObsolete(leaf->lock) || TxnDescendToLeaf(key) != leaf) {
        guard.Unlock(/*installed=*/false);
        continue;
      }
      uint16_t pos;
      if (leaf->Find(key, pos)) {
        guard.pos_ = pos;
        return TxnLockStatus::kAcquired;
      }
      guard.Unlock(/*installed=*/false);
      return TxnLockStatus::kAbsent;
    }
  }

  // No-wait variant (2PL deadlock avoidance): the record is locked by
  // promoting a validated leaf snapshot (TryUpgrade), so a competing
  // holder or a concurrent change both come back kBusy, never a wait.
  template <class HeldContains>
  TxnLockStatus TxnTryLockForWrite(const Key& key, int slot,
                                   const HeldContains& already_held,
                                   TxnWriteGuard& guard)
    requires(kProtocol != BTreeProtocol::kCoupling)
  {
    Leaf* leaf = TxnDescendToLeaf(key);
    if (already_held(&leaf->lock)) {
      return BindHeldGuard(leaf, key, guard);
    }
    uint64_t v;
    if (!LeafOps::StableVersion(leaf->lock, v)) return TxnLockStatus::kBusy;
    uint16_t pos;
    const bool found = leaf->Find(key, pos);
    if (!LeafOps::ValidateVersion(leaf->lock, v)) return TxnLockStatus::kBusy;
    if (!found) return TxnLockStatus::kAbsent;
    if (!LeafOps::TryUpgrade(leaf->lock, v, slot, guard.handle_)) {
      return TxnLockStatus::kBusy;
    }
    guard.leaf_ = leaf;
    guard.pos_ = pos;
    guard.owns_ = true;
    return TxnLockStatus::kAcquired;
  }

  // Deadlock-avoidance rank: leaf ranges are ordered by key, so
  // transactions that lock their write sets in ascending key order acquire
  // leaf locks in a consistent global order.
  static std::pair<uint64_t, uint64_t> TxnLockRank(const Key& key)
    requires(kProtocol != BTreeProtocol::kCoupling)
  {
    return {static_cast<uint64_t>(key), 0};
  }

 private:
  // Descends to the leaf covering `key` WITHOUT reading the leaf's own
  // version word: the caller may already hold that leaf exclusively, and a
  // version read would spin on our own lock. The returned pointer is
  // parent-validated (see ReadLockLeaf).
  Leaf* TxnDescendToLeaf(const Key& key) const
    requires(kProtocol != BTreeProtocol::kCoupling)
  {
    ReadHold parent_hold;
    return ReadLockLeaf</*kEnterLeaf=*/false>(key, /*restarts=*/nullptr,
                                              parent_hold);
  }

  // Completes a guard over a leaf this transaction already holds: the leaf
  // is stable under our own exclusive hold, so a plain search suffices.
  TxnLockStatus BindHeldGuard(Leaf* leaf, const Key& key,
                              TxnWriteGuard& guard) {
    guard.leaf_ = leaf;
    guard.owns_ = false;
    uint16_t pos;
    if (leaf->Find(key, pos)) {
      guard.pos_ = pos;
      return TxnLockStatus::kAcquired;
    }
    return TxnLockStatus::kAbsent;
  }

  std::atomic<NodeBase*> root_;
  std::atomic<size_t> size_{0};
  mutable std::atomic<uint64_t> read_restarts_{0};
  std::atomic<uint64_t> write_restarts_{0};
  std::atomic<uint64_t> leaf_splits_{0};
  std::atomic<uint64_t> inner_splits_{0};
  std::atomic<uint64_t> leaf_merges_{0};
  std::atomic<uint64_t> inner_merges_{0};
  std::atomic<uint64_t> rebalance_borrows_{0};
  std::atomic<uint64_t> root_collapses_{0};
  std::atomic<uint64_t> nodes_retired_{0};
  // Live (reachable) nodes; starts at 1 for the empty root leaf.
  std::atomic<int64_t> live_nodes_{1};
};

template <class Key, class Value, class SyncPolicy, size_t kNodeBytes>
constexpr size_t BTree<Key, Value, SyncPolicy, kNodeBytes>::LeafCapacity() {
  return Leaf::kMax;
}

template <class Key, class Value, class SyncPolicy, size_t kNodeBytes>
constexpr size_t BTree<Key, Value, SyncPolicy, kNodeBytes>::InnerCapacity() {
  return Inner::kMax;
}

}  // namespace optiql

#endif  // OPTIQL_INDEX_BTREE_H_
