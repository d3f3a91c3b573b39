// TxnOps<Lock> — the one uniform version/lock contract over every lock
// family the indexes use. Before this header, each consumer of a lock's
// version word or exclusive mode spoke a private dialect: the B+-tree
// policies called AcquireSh/ReleaseSh member pairs directly, the coupling
// trees went through a PessimisticOps facade, and a transaction layer could
// not be written once at all. TxnOps gives every family the same spellings:
//
//   Optimistic read (versioned families: OptLock, OptiQL, OptiCLH)
//     StableVersion(lock, v)     snapshot the word; false = locked/retired
//     ValidateVersion(lock, v)   seqlock validation: whole word unchanged
//     SnapshotVersion(word)      the version component of a snapshot
//     IsObsolete(lock)           retired-object probe (where supported)
//
//   Exclusive mode (every family)
//     LockEx(lock, slot) -> ExHandle      blocking acquire
//     TryLockEx(lock, slot, h) -> bool    no-wait acquire (2PL, OCC commit)
//     TryUpgrade(lock, v, slot, h)        snapshot -> exclusive promotion
//     UnlockEx(lock, h)                   release, bump version
//     UnlockExNoBump(lock, h)             release, no bump (no-op sections)
//     UnlockExObsolete(lock, h)           release + retire the object
//     HeldVersion(lock, h)                version a validated snapshot of
//                                         this lock must carry while WE
//                                         hold it (OCC self-held reads)
//
//   Shared mode (pessimistic reader-writer families: MCS-RW, shared_mutex)
//     LockSh/UnlockSh(lock, slot)         blocking, coupling protocols
//     TryLockSh(lock) -> bool             no-wait, queue-less (txn reads)
//     UnlockShNoQueue(lock)               pairs with TryLockSh
//     TryUpgradeSh(lock, slot, n, h)      atomically convert the caller's n
//                                         queue-less shared holds into an
//                                         exclusive hold (kHasShUpgrade)
//
// `slot` selects a thread-local queue node (ThreadQNodes) for queue-based
// locks and is ignored by centralized ones; coupling alternates slots 0/1
// by depth and uses slot 2 for rebalance siblings, the txn layer owns
// slots ThreadQNodes::kTxnSlotBase and up. ExHandle is a trivially
// copyable token: empty for centralized locks, the queue node for MCS
// descendants (OptiCLH's handle is the node AcquireEx *returns*, which is
// not the one passed in — CLH queue nodes migrate).
//
// Capability dispatch is by `if constexpr` on the flags:
//   kVersioned     optimistic read surface exists; the word doubles as the
//                  Silo-style OCC timestamp (no shadow version table)
//   kSharedMode    pessimistic shared mode exists
//   kHasShUpgrade  TryUpgradeSh supported (a shared-mode family without it
//                  cannot host 2PL read-then-write on one record)
//   kHasNoBump     UnlockExNoBump supported
//   kHasObsolete   UnlockExObsolete / IsObsolete supported (a lock without
//                  it cannot guard nodes that get unlinked, e.g. B+-tree
//                  leaves under delete-time merging)
//
// TSA annotations appear ONLY on the MCS-RW / shared_mutex specializations
// (annotated capability types); the optimistic families' read side is not
// expressible in TSA and is covered by scripts/lint_optimistic.py and the
// checked-invariant build instead (see common/annotations.h).
#ifndef OPTIQL_SYNC_TXN_OPS_H_
#define OPTIQL_SYNC_TXN_OPS_H_

#include <atomic>
#include <cstdint>

#include "common/annotations.h"
#include "core/opticlh.h"
#include "core/optiql.h"
#include "locks/mcs_rw_lock.h"
#include "locks/optlock.h"
#include "locks/shared_mutex_lock.h"
#include "qnode/qnode_pool.h"

namespace optiql {

// Exclusive-acquisition handles. Distinct tiny structs (not ints/pointers)
// so the slot-based and handle-based UnlockEx overloads can never be
// confused at a call site.
struct NoExHandle {};
struct QNodeExHandle {
  QNode* node = nullptr;
};

// Primary template intentionally undefined: a lock family joins the
// contract by specialization, never by accidental duck typing.
template <class Lock>
struct TxnOps;

// Outcome of an index's record-lock hooks (TxnLockForWrite and friends):
// the record was locked, it does not exist, or a no-wait attempt lost to a
// competing holder (the transaction aborts and retries).
enum class TxnLockStatus { kAcquired, kAbsent, kBusy };

// Concept for "this lock family carries a validatable version word" —
// what Silo-style OCC needs from a host index's locks.
template <class Lock>
concept VersionedLock = TxnOps<Lock>::kVersioned;

template <class Lock>
concept SharedModeLock = TxnOps<Lock>::kSharedMode;

// --- OptLock: centralized, word = [locked | obsolete | version] ------------

template <class BackoffPolicy>
struct TxnOps<BasicOptLock<BackoffPolicy>> {
  using Lock = BasicOptLock<BackoffPolicy>;
  using ExHandle = NoExHandle;
  static constexpr bool kVersioned = true;
  static constexpr bool kSharedMode = false;
  static constexpr bool kHasShUpgrade = false;
  static constexpr bool kHasNoBump = true;
  static constexpr bool kHasObsolete = true;

  static bool StableVersion(const Lock& lock, uint64_t& v) {
    return lock.AcquireSh(v);
  }
  static bool ValidateVersion(const Lock& lock, uint64_t v) {
    return lock.ReleaseSh(v);
  }
  static uint64_t SnapshotVersion(uint64_t word) {
    return word & Lock::kVersionMask;
  }
  static bool IsObsolete(const Lock& lock) { return lock.IsObsolete(); }

  static ExHandle LockEx(Lock& lock, int /*slot*/) {
    lock.AcquireEx();
    return {};
  }
  static bool TryLockEx(Lock& lock, int /*slot*/, ExHandle& handle) {
    handle = {};
    return lock.TryAcquireEx();
  }
  static bool TryUpgrade(Lock& lock, uint64_t v, int /*slot*/,
                         ExHandle& handle) {
    handle = {};
    return lock.TryUpgrade(v);
  }
  static void UnlockEx(Lock& lock, ExHandle) { lock.ReleaseEx(); }
  static void UnlockExNoBump(Lock& lock, ExHandle) { lock.ReleaseExNoBump(); }
  static void UnlockExObsolete(Lock& lock, ExHandle) {
    lock.ReleaseExObsolete();
  }
  // While held, the word is `snapshot | kLockedBit`: the version field
  // still carries the pre-acquisition version.
  static uint64_t HeldVersion(const Lock& lock, const ExHandle&) {
    return lock.LoadWord() & Lock::kVersionMask;
  }
};

// --- OptiQL: MCS-queued, version handed over through the queue node --------

template <bool kEnableOpRead>
struct TxnOps<BasicOptiQL<kEnableOpRead>> {
  using Lock = BasicOptiQL<kEnableOpRead>;
  using ExHandle = QNodeExHandle;
  static constexpr bool kVersioned = true;
  static constexpr bool kSharedMode = false;
  static constexpr bool kHasShUpgrade = false;
  static constexpr bool kHasNoBump = true;
  static constexpr bool kHasObsolete = true;

  static bool StableVersion(const Lock& lock, uint64_t& v) {
    return lock.AcquireSh(v);
  }
  static bool ValidateVersion(const Lock& lock, uint64_t v) {
    return lock.ReleaseSh(v);
  }
  static uint64_t SnapshotVersion(uint64_t word) {
    return Lock::VersionOf(word);
  }
  static bool IsObsolete(const Lock& lock) { return lock.IsObsolete(); }

  static ExHandle LockEx(Lock& lock, int slot) {
    QNode* node = ThreadQNodes::Get(slot);
    lock.AcquireEx(node);
    return {node};
  }
  static bool TryLockEx(Lock& lock, int slot, ExHandle& handle) {
    QNode* node = ThreadQNodes::Get(slot);
    if (!lock.TryAcquireEx(node)) return false;
    handle = {node};
    return true;
  }
  static bool TryUpgrade(Lock& lock, uint64_t v, int slot, ExHandle& handle) {
    QNode* node = ThreadQNodes::Get(slot);
    if (!lock.TryUpgrade(v, node)) return false;
    handle = {node};
    return true;
  }
  static void UnlockEx(Lock& lock, ExHandle handle) {
    lock.ReleaseEx(handle.node);
  }
  static void UnlockExNoBump(Lock& lock, ExHandle handle) {
    lock.ReleaseExNoBump(handle.node);
  }
  static void UnlockExObsolete(Lock& lock, ExHandle handle) {
    lock.ReleaseExObsolete(handle.node);
  }
  // The grant stored NextVersion(snapshot) in the holder's queue node;
  // modular -1 recovers the version an overlapping (or opportunistic-read)
  // snapshot must carry for the protected data to be unchanged.
  static uint64_t HeldVersion(const Lock&, const ExHandle& handle) {
    return (handle.node->version.load(std::memory_order_relaxed) +
            Lock::kVersionMask) &
           Lock::kVersionMask;
  }
};

// --- OptiCLH: CLH-queued; the acquisition handle is the node AcquireEx ----
// returns (queue nodes migrate to the successor). No obsolete marker: this
// family cannot guard nodes that get unlinked under concurrency.

template <>
struct TxnOps<OptiCLH> {
  using Lock = OptiCLH;
  using ExHandle = QNodeExHandle;
  static constexpr bool kVersioned = true;
  static constexpr bool kSharedMode = false;
  static constexpr bool kHasShUpgrade = false;
  static constexpr bool kHasNoBump = false;
  static constexpr bool kHasObsolete = false;

  static bool StableVersion(const Lock& lock, uint64_t& v) {
    return lock.AcquireSh(v);
  }
  static bool ValidateVersion(const Lock& lock, uint64_t v) {
    return lock.ReleaseSh(v);
  }
  static uint64_t SnapshotVersion(uint64_t word) {
    return Lock::VersionOf(word);
  }

  static ExHandle LockEx(Lock& lock, int /*slot*/) {
    return {lock.AcquireEx()};
  }
  static bool TryLockEx(Lock& lock, int /*slot*/, ExHandle& handle) {
    QNode* node = lock.TryAcquireEx();
    if (node == nullptr) return false;
    handle = {node};
    return true;
  }
  static bool TryUpgrade(Lock& lock, uint64_t v, int /*slot*/,
                         ExHandle& handle) {
    QNode* node = lock.TryUpgrade(v);
    if (node == nullptr) return false;
    handle = {node};
    return true;
  }
  static void UnlockEx(Lock& lock, ExHandle handle) {
    lock.ReleaseEx(handle.node);
  }
  // OptiCLH grants carry NextVersion(snapshot) in the handle's aux field.
  static uint64_t HeldVersion(const Lock&, const ExHandle& handle) {
    return (handle.node->aux.load(std::memory_order_relaxed) +
            Lock::kVersionMask) &
           Lock::kVersionMask;
  }
};

// --- MCS-RW: pessimistic reader-writer, no version word --------------------
// The annotations forward the capability through the facade, exactly as the
// old PessimisticOps did: TSA sees `TxnOps<L>::LockSh(lock, slot)` acquire
// `lock` itself, so callers are checked as if they had called the lock.

template <>
struct TxnOps<McsRwLock> {
  using Lock = McsRwLock;
  using ExHandle = QNodeExHandle;
  static constexpr bool kVersioned = false;
  static constexpr bool kSharedMode = true;
  static constexpr bool kHasShUpgrade = true;
  static constexpr bool kHasNoBump = false;
  static constexpr bool kHasObsolete = false;

  // Slot-based blocking surface (lock-coupling protocols).
  static void LockSh(Lock& lock, int slot) OPTIQL_ACQUIRE_SHARED(lock) {
    lock.AcquireSh(ThreadQNodes::Get(slot));
  }
  static void UnlockSh(Lock& lock, int slot) OPTIQL_RELEASE_SHARED(lock) {
    lock.ReleaseSh(ThreadQNodes::Get(slot));
  }
  static void LockEx(Lock& lock, int slot) OPTIQL_ACQUIRE(lock) {
    lock.AcquireEx(ThreadQNodes::Get(slot));
  }
  static void UnlockEx(Lock& lock, int slot) OPTIQL_RELEASE(lock) {
    lock.ReleaseEx(ThreadQNodes::Get(slot));
  }

  // Handle-based no-wait surface (txn layer).
  static bool TryLockEx(Lock& lock, int slot, ExHandle& handle)
      OPTIQL_TRY_ACQUIRE(true, lock) {
    QNode* node = ThreadQNodes::Get(slot);
    if (!lock.TryAcquireEx(node)) return false;
    handle = {node};
    return true;
  }
  static void UnlockEx(Lock& lock, ExHandle handle) OPTIQL_RELEASE(lock) {
    lock.ReleaseEx(handle.node);
  }
  static bool TryLockSh(Lock& lock) OPTIQL_TRY_ACQUIRE_SHARED(true, lock) {
    return lock.TryAcquireSh();
  }
  static void UnlockShNoQueue(Lock& lock) OPTIQL_RELEASE_SHARED(lock) {
    lock.ReleaseShNoQueue();
  }
  // Converts `my_holds` of the caller's TryLockSh holds into an exclusive
  // hold in one CAS (2PL read-then-write on one record — without this a
  // write into a self-read bucket would no-wait-abort forever). Success
  // consumes the shared holds; failure leaves them. Unannotated: a
  // conditional shared→exclusive conversion is not expressible in TSA —
  // analyzed callers wrap the call site (see McsRwLock).
  static bool TryUpgradeSh(Lock& lock, int slot, uint32_t my_holds,
                           ExHandle& handle) {
    QNode* node = ThreadQNodes::Get(slot);
    if (!lock.TryUpgradeShNoQueue(node, my_holds)) return false;
    handle = {node};
    return true;
  }
};

// --- shared_mutex (the paper's pthread baseline) ----------------------------

template <>
struct TxnOps<SharedMutexLock> {
  using Lock = SharedMutexLock;
  using ExHandle = NoExHandle;
  static constexpr bool kVersioned = false;
  static constexpr bool kSharedMode = true;
  // std::shared_mutex has no atomic upgrade, so this family cannot host
  // 2PL read-then-write on one record (TxnSharedReadHost excludes it).
  static constexpr bool kHasShUpgrade = false;
  static constexpr bool kHasNoBump = false;
  static constexpr bool kHasObsolete = false;

  static void LockSh(Lock& lock, int /*slot*/) OPTIQL_ACQUIRE_SHARED(lock) {
    lock.AcquireSh();
  }
  static void UnlockSh(Lock& lock, int /*slot*/) OPTIQL_RELEASE_SHARED(lock) {
    lock.ReleaseSh();
  }
  static void LockEx(Lock& lock, int /*slot*/) OPTIQL_ACQUIRE(lock) {
    lock.AcquireEx();
  }
  static void UnlockEx(Lock& lock, int /*slot*/) OPTIQL_RELEASE(lock) {
    lock.ReleaseEx();
  }

  static bool TryLockEx(Lock& lock, int /*slot*/, ExHandle& handle)
      OPTIQL_TRY_ACQUIRE(true, lock) {
    handle = {};
    return lock.TryAcquireEx();
  }
  static void UnlockEx(Lock& lock, ExHandle) OPTIQL_RELEASE(lock) {
    lock.ReleaseEx();
  }
  static bool TryLockSh(Lock& lock) OPTIQL_TRY_ACQUIRE_SHARED(true, lock) {
    return lock.TryAcquireSh();
  }
  static void UnlockShNoQueue(Lock& lock) OPTIQL_RELEASE_SHARED(lock) {
    lock.ReleaseSh();
  }
};

}  // namespace optiql

#endif  // OPTIQL_SYNC_TXN_OPS_H_
