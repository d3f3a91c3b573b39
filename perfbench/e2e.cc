// End-to-end benchmark binary: one ShardedStore<BTree<OptiQL>,
// RangeShardRouter> (8 range shards over dense 8-byte keys) driven by a
// closed loop of 3 pinned client threads, under one of three workloads.
// See README.md in this directory for why each workload exists, what each
// metric means, and which end-to-end metric each layer metric should move.
//
// One process = one run:
//   1. Inputs come from --seed only: the preload, every client's request
//      stream (per-client xoshiro seeded from --seed) and every key.
//   2. Set-up (store construction + BulkLoad) runs several times; the last
//      store is kept. Untraced runs set up again after the window, and the
//      median over both groups is reported as setup_s.
//   3. A warm-up window lets the population and the caches settle.
//   4. Untraced (--trace 0): one measured window split into slices; every
//      request is timed, and each metric is the median over the slices.
//      Traced (--trace 1): an untraced half-window (the overhead baseline),
//      then a traced half-window in which every request is split into
//      spans around the public calls of each layer (route, direct shard
//      calls, epoch guard, txn body/commit), plus layer counter deltas.
//      Ops the workload's mix never issues are timed afterwards by
//      single-client probes on the quiesced store.
//   5. Every read and scan result is checked while it runs; afterwards the
//      whole store is scanned and checked (and, for write-hot, its
//      structural invariants). Wrong outcomes are counted as failed.
// The result is one JSON line on stdout; perfbench/run.py turns it into the
// benchmark's result line.
#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/optiql.h"
#include "harness/bench_runner.h"
#include "index/btree.h"
#include "stats.h"
#include "store/sharded_store.h"
#include "sync/epoch.h"
#include "txn/txn.h"
#include "workload/distributions.h"

namespace perfbench {
namespace {

using optiql::BTree;
using optiql::BTreeOptiQlPolicy;
using optiql::EpochGuard;
using optiql::EpochManager;
using optiql::OccTxn;
using optiql::OptiQL;
using optiql::RangeShardRouter;
using optiql::ShardedStore;
using optiql::TxnResult;
using optiql::TxnStats;
using optiql::Xoshiro256;

using Tree = BTree<uint64_t, uint64_t, BTreeOptiQlPolicy<OptiQL>>;
using Store = ShardedStore<Tree, RangeShardRouter>;
using Txn = OccTxn<Store>;
using Pairs = std::vector<std::pair<uint64_t, uint64_t>>;

constexpr size_t kShards = 8;
constexpr int kClients = 3;
constexpr int kSlices = 20;
// Set-up repeats, before and after the window: each time at least
// kMinSetups, more while under kSetupBudgetS in total, so a small store's
// set-up time is a median of many.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 20;
constexpr double kSetupBudgetS = 0.5;
constexpr size_t kBatchKeys = 16;
constexpr uint32_t kMaxScan = 100;
constexpr int kTransferKeys = 4;
constexpr uint64_t kUnit = uint64_t{1} << 32;  // One unit of balance.
constexpr uint64_t kInitialBalance = 1000;
constexpr int kProbes = 20000;
constexpr int64_t kSignedOffset = 32768;  // Range of the self-time hists.
constexpr int64_t kNone = INT64_MIN;

enum Op { kLookup, kMultiget, kUpdate, kInsert, kRemove, kScan, kTransfer,
          kOps };
// Latency classes of the end-to-end metrics; a transfer is a write.
enum Class { kClassLookup, kClassWrite, kClassMultiget, kClassScan,
             kClasses };

constexpr Class ClassOf(int op) {
  switch (op) {
    case kLookup: return kClassLookup;
    case kMultiget: return kClassMultiget;
    case kScan: return kClassScan;
    default: return kClassWrite;
  }
}

enum class Dist { kUniform, kSelfSimilar, kZipf };

struct Workload {
  const char* name;
  uint64_t records;  // Size of the key space [0, records).
  int preload_permille;  // Share of the key space preloaded, drawn by seed.
  Dist dist;
  double skew;
  std::array<int, kOps> permille;  // Request mix by Op; sums to 1000.
};

// Every workload issues each latency class, so every end-to-end metric is
// measured on every workload. Sizes and mixes are explained in README.md.
// write-hot inserts and removes keys drawn from one distribution, which
// drives every key it touches to 50% presence; preloading half the key
// space puts the whole space at that equilibrium from the start, so the
// population stays put during the window.
constexpr Workload kWorkloads[] = {
    {"read-large", 32'000'000, 1000, Dist::kUniform, 0.0,
     {890, 50, 50, 0, 0, 10, 0}},
    {"write-hot", 1'000'000, 500, Dist::kSelfSimilar, 0.1,
     {300, 50, 400, 100, 100, 50, 0}},
    {"txn-transfer", 1'000'000, 1000, Dist::kZipf, 0.99,
     {40, 20, 0, 0, 0, 20, 920}},
};

// Every stored value carries its key's low 32 bits, so a read that returns
// another key's value is caught; the high half is payload (the balance in
// txn-transfer).
constexpr uint64_t Encode(uint64_t key, uint64_t payload) {
  return (payload << 32) | (key & 0xffffffffu);
}
constexpr bool Carries(uint64_t key, uint64_t value) {
  return static_cast<uint32_t>(value) == static_cast<uint32_t>(key);
}

class KeySampler {
 public:
  KeySampler(const Workload& w, uint64_t n) : dist_(w.dist), uniform_(n) {
    if (w.dist == Dist::kSelfSimilar) self_similar_.emplace(n, w.skew);
    if (w.dist == Dist::kZipf) zipf_.emplace(n, w.skew);
  }

  uint64_t Next(Xoshiro256& rng) const {
    switch (dist_) {
      case Dist::kSelfSimilar: return self_similar_->Next(rng);
      case Dist::kZipf: return zipf_->Next(rng);
      case Dist::kUniform: break;
    }
    return uniform_.Next(rng);
  }

 private:
  Dist dist_;
  optiql::UniformDistribution uniform_;
  std::optional<optiql::SelfSimilarDistribution> self_similar_;
  std::optional<optiql::ZipfianDistribution> zipf_;
};

// Keys of the key space that may be absent: those left out of the preload
// and those a Remove has been issued for at least once. A Remove marks its
// key before it is issued, so any reader that observes the removal also
// observes the mark; a miss on an unmarked key is a lost key.
class MaybeAbsent {
 public:
  explicit MaybeAbsent(uint64_t n) : n_(n), words_((n + 63) / 64) {}

  void Mark(uint64_t key) {
    if (key >= n_) return;
    std::atomic<uint64_t>& word = words_[key / 64];
    const uint64_t bit = uint64_t{1} << (key % 64);
    if ((word.load(std::memory_order_relaxed) & bit) == 0) word.fetch_or(bit);
  }

  bool Test(uint64_t key) const {
    return key < n_ && (words_[key / 64].load(std::memory_order_acquire) &
                        (uint64_t{1} << (key % 64))) != 0;
  }

 private:
  uint64_t n_;
  std::vector<std::atomic<uint64_t>> words_;
};

struct Request {
  int op = kLookup;
  uint64_t key = 0;      // Point key, or a scan's start key.
  uint64_t payload = 0;  // High half of a written value.
  uint32_t limit = 0;    // Scan length.
};

struct Slice {
  uint64_t ops = 0;
  std::array<Hist, kClasses> latency;
};

// One client's per-layer samples from the traced window (or the probes).
struct Trace {
  Hist route;
  Hist lookup_self = Hist(kSignedOffset);
  Hist write_self = Hist(kSignedOffset);
  Hist multiget_self = Hist(kSignedOffset);
  std::array<Hist, kOps> index;  // Direct shard calls; kMultiget: per batch.
  Hist guard;
  Hist txn_exec;
  Hist txn_commit;
  uint64_t scans = 0;
  uint64_t scan_shards = 0;
  uint64_t txn_gets = 0;
  TxnStats txn;
  std::array<uint64_t, kOps> issued{};
  // A store-path sample waiting for the decomposed sample it pairs with.
  std::array<int64_t, kOps> pending = MakePending();

  static std::array<int64_t, kOps> MakePending() {
    std::array<int64_t, kOps> p;
    p.fill(kNone);
    return p;
  }

  void Merge(const Trace& o) {
    route.Merge(o.route);
    lookup_self.Merge(o.lookup_self);
    write_self.Merge(o.write_self);
    multiget_self.Merge(o.multiget_self);
    for (int i = 0; i < kOps; ++i) {
      index[i].Merge(o.index[i]);
      issued[i] += o.issued[i];
    }
    guard.Merge(o.guard);
    txn_exec.Merge(o.txn_exec);
    txn_commit.Merge(o.txn_commit);
    scans += o.scans;
    scan_shards += o.scan_shards;
    txn_gets += o.txn_gets;
    txn += o.txn;
  }
};

struct alignas(64) Client {
  explicit Client(uint64_t seed) : rng(seed) {}

  Xoshiro256 rng;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t inserted = 0;
  uint64_t removed = 0;
  TxnStats txn;  // Untraced windows.
  std::vector<Slice> slices;
  Trace trace;
  uint64_t keys[kBatchKeys] = {};
  uint64_t values[kBatchKeys] = {};
  bool found[kBatchKeys] = {};
  Pairs scan;
  Pairs scan_part;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t records = 0;  // 0 = the workload's size.
  bool plant_wrong_values = false;
  uint64_t plant_delay_ns = 0;
};

enum class Mode { kWarmup, kMeasure, kTrace };

struct Counters {
  uint64_t read_restarts = 0;
  uint64_t write_restarts = 0;
  uint64_t leaf_splits = 0;
  uint64_t leaf_merges = 0;
  uint64_t retired = 0;
  uint64_t reclaimed = 0;
};

class Bench {
 public:
  // `absent` marks the keys of [0, n) left out of the `preloaded` ones.
  Bench(const Workload& w, uint64_t n, uint64_t preloaded,
        MaybeAbsent absent, Store& store, const Clock& clock,
        const Options& opt)
      : w_(w),
        n_(n),
        preloaded_(preloaded),
        store_(store),
        clock_(clock),
        sampler_(w, n),
        maybe_absent_(std::move(absent)),
        spans_(store.SpanSnapshot()),
        delay_ticks_(static_cast<uint64_t>(
            static_cast<double>(opt.plant_delay_ns) / clock.ns_per_tick)) {
    for (int i = 0; i <= kClients; ++i) {
      clients_.push_back(std::make_unique<Client>(
          optiql::Mix64(opt.seed * 0x9E3779B97F4A7C15ULL + 1 + i)));
    }
  }

  Client& client(int i) { return *clients_[static_cast<size_t>(i)]; }
  // The main thread's state: probes and post-run checks.
  Client& main_client() { return client(kClients); }

  // Runs the clients for `seconds` and returns the runner's result, whose
  // per-thread op counts are the requests completed inside the window.
  optiql::RunResult Window(Mode mode, double seconds) {
    for (int i = 0; i < kClients; ++i) {
      Client& c = client(i);
      c.slices.assign(mode == Mode::kMeasure ? kSlices : 0, Slice{});
      if (mode == Mode::kTrace) c.trace = Trace{};
    }
    const uint64_t window = clock_.TicksFor(seconds);
    std::atomic<uint64_t> start{0};
    optiql::RunOptions options;
    options.threads = kClients;
    options.duration_ms = static_cast<int>(seconds * 1000) + 100;
    options.pin_threads = true;
    optiql::RunResult result = optiql::RunFixedDuration(
        options, [&](int i, const std::atomic<bool>& stop,
                     optiql::WorkerStats& stats) {
          uint64_t begin = 0;
          const uint64_t now = Ticks();
          if (start.compare_exchange_strong(begin, now)) begin = now;
          switch (mode) {
            case Mode::kWarmup:
            case Mode::kMeasure:
              Loop<false>(client(i), begin, window, stop, stats);
              break;
            case Mode::kTrace:
              Loop<true>(client(i), begin, window, stop, stats);
              break;
          }
        });
    result.seconds = clock_.Seconds(window);
    return result;
  }

  // Single-client spans for the ops the window never issued (the quiesced
  // store allows structure changes even where transactions ran).
  void Probes(const Trace& live) {
    Client& c = main_client();
    Request r;
    if (live.issued[kUpdate] == 0) {
      for (int i = 0; i < 2 * kProbes; ++i) {
        r.op = kUpdate;
        r.key = sampler_.Next(c.rng);
        uint64_t v = 0;
        if (!store_.Lookup(r.key, v)) continue;
        r.payload = v >> 32;  // Same value: balances and sums stay intact.
        Traced(c, r);
      }
    }
    if (live.issued[kInsert] == 0 || live.issued[kRemove] == 0) {
      // Fresh keys above the preload, removed again afterwards.
      for (int op : {kInsert, kRemove}) {
        for (int i = 0; i < 2 * kProbes; ++i) {
          r.op = op;
          r.key = n_ + static_cast<uint64_t>(i);
          r.payload = 1;
          Traced(c, r);
        }
      }
    }
    if (live.issued[kTransfer] == 0) {
      for (int i = 0; i < kProbes; ++i) {
        r.op = kTransfer;
        PrepareTransfer(c);
        Traced(c, r);
      }
    }
  }

  void PlantWrongValues() {
    for (uint64_t k = 0; k < n_; k += 97) {
      store_.Update(k, Encode(k + 1, 7));
    }
  }

  Counters Snapshot() const {
    Counters c;
    for (size_t i = 0; i < store_.ShardCount(); ++i) {
      const Tree::Stats s = store_.ShardAt(i).GetStats();
      c.read_restarts += s.read_restarts;
      c.write_restarts += s.write_restarts;
      c.leaf_splits += s.leaf_splits;
      c.leaf_merges += s.leaf_merges;
    }
    c.retired = EpochManager::Instance().TotalRetired();
    c.reclaimed = EpochManager::Instance().TotalReclaimed();
    return c;
  }

  // Scans the whole store: keys ascend, stay inside the key space, carry
  // their own values, and every preloaded key never removed is present; the
  // count matches Size() and the preload plus net inserts. Returns the value
  // sum (mod 2^64) and whether every check held.
  std::pair<uint64_t, bool> VerifyContents() {
    Client& c = main_client();
    uint64_t inserted = 0, removed = 0;
    for (const auto& client : clients_) {
      inserted += client->inserted;
      removed += client->removed;
    }
    constexpr size_t kChunk = 4096;
    Pairs buf;
    uint64_t expect = 0, count = 0, sum = 0;
    bool ok = true;
    for (uint64_t cur = 0;;) {
      store_.Scan(cur, kChunk, buf);
      for (const auto& [k, v] : buf) {
        if (k < expect || k >= n_ || !Carries(k, v)) ok = false;
        for (; expect < k && ok; ++expect) ok = maybe_absent_.Test(expect);
        expect = k + 1;
        sum += v;
        ++count;
      }
      if (buf.size() < kChunk || !ok) break;
      cur = buf.back().first + 1;
    }
    for (; expect < n_ && ok; ++expect) ok = maybe_absent_.Test(expect);
    ok = ok && count == store_.Size() &&
         count == preloaded_ + inserted - removed;
    c.attempted += 1;
    c.failed += ok ? 0 : 1;
    return {sum, ok};
  }

  uint64_t Attempted() const {
    uint64_t total = 0;
    for (const auto& c : clients_) total += c->attempted;
    return total;
  }
  uint64_t Failed() const {
    uint64_t total = 0;
    for (const auto& c : clients_) total += c->failed;
    return total;
  }

 private:
  template <bool kTraced>
  void Loop(Client& c, uint64_t begin, uint64_t window,
            const std::atomic<bool>& stop, optiql::WorkerStats& stats) {
    Request r;
    while (!stop.load(std::memory_order_relaxed)) {
      Prepare(c, r);
      uint64_t t0 = 0, t1 = 0;
      if constexpr (kTraced) {
        t1 = Traced(c, r);
      } else {
        std::tie(t0, t1) = Execute(c, r);
      }
      const uint64_t at = t1 - begin;
      if (at >= window) break;
      ++stats.ops;
      if constexpr (!kTraced) {
        if (!c.slices.empty()) {
          Slice& s = c.slices[at * kSlices / window];
          ++s.ops;
          s.latency[ClassOf(r.op)].Record(clock_.SpanNs(t0, t1));
        }
      }
    }
  }

  int PickOp(Xoshiro256& rng) const {
    int draw = static_cast<int>(rng.NextBounded(1000));
    for (int op = 0; op < kOps; ++op) {
      draw -= w_.permille[op];
      if (draw < 0) return op;
    }
    return kLookup;
  }

  void PrepareTransfer(Client& c) {
    for (int i = 0; i < kTransferKeys; ++i) {
      bool dup = true;
      while (dup) {
        c.keys[i] = sampler_.Next(c.rng);
        dup = std::find(c.keys, c.keys + i, c.keys[i]) != c.keys + i;
      }
    }
  }

  void Prepare(Client& c, Request& r) {
    r.op = PickOp(c.rng);
    switch (r.op) {
      case kMultiget:
        for (uint64_t& k : c.keys) k = sampler_.Next(c.rng);
        break;
      case kTransfer:
        PrepareTransfer(c);
        break;
      case kScan:
        r.key = sampler_.Next(c.rng);
        r.limit = 1 + static_cast<uint32_t>(c.rng.NextBounded(kMaxScan));
        break;
      default:
        r.key = sampler_.Next(c.rng);
        r.payload = c.rng.Next() >> 32;
        break;
    }
  }

  // --- Output checks ---

  void CheckPoint(Client& c, uint64_t key, bool found, uint64_t value) {
    if (found ? !Carries(key, value) : !maybe_absent_.Test(key)) ++c.failed;
  }

  void CheckUpdate(Client& c, uint64_t key, bool ok) {
    if (!ok && !maybe_absent_.Test(key)) ++c.failed;
  }

  // A preloaded key that was never removed is present, so inserting it must
  // fail; a fresh key above the key space is absent, so inserting it must
  // not.
  void CheckInsert(Client& c, uint64_t key, bool ok) {
    if (ok) ++c.inserted;
    if (key < n_ ? ok && !maybe_absent_.Test(key) : !ok) ++c.failed;
  }

  void CheckRemove(Client& c, uint64_t key, bool ok) {
    if (ok) ++c.removed;
    if (key >= n_ && !ok) ++c.failed;
  }

  // Ascending, at or after the start key, values carry their keys, and no
  // preloaded, never-removed key inside the covered range is skipped.
  void CheckScan(Client& c, uint64_t start, uint32_t limit, const Pairs& out) {
    uint64_t expect = start;
    bool ok = true;
    for (const auto& [k, v] : out) {
      if (k < expect || !Carries(k, v)) {
        ok = false;
        break;
      }
      for (; expect < k && ok; ++expect) ok = maybe_absent_.Test(expect);
      expect = k + 1;
    }
    if (out.size() < limit) {
      const uint64_t end = std::min(n_, expect + limit);
      for (; expect < end && ok; ++expect) ok = maybe_absent_.Test(expect);
    }
    if (!ok) ++c.failed;
  }

  // Checks the outcome of one request; a transfer checks its own reads.
  void Check(Client& c, const Request& r, bool ok, uint64_t value) {
    switch (r.op) {
      case kLookup:
        CheckPoint(c, r.key, ok, value);
        break;
      case kMultiget:
        for (size_t i = 0; i < kBatchKeys; ++i) {
          CheckPoint(c, c.keys[i], c.found[i], c.values[i]);
        }
        break;
      case kUpdate:
        CheckUpdate(c, r.key, ok);
        break;
      case kInsert:
        CheckInsert(c, r.key, ok);
        break;
      case kRemove:
        CheckRemove(c, r.key, ok);
        break;
      case kScan:
        CheckScan(c, r.key, r.limit, c.scan);
        break;
      default:
        break;
    }
  }

  // The point op of `r` on the store or on one of its shards (both offer
  // the same Lookup/Update/Insert/Remove signatures).
  template <class Target>
  static bool PointOp(Target& target, const Request& r, uint64_t& value) {
    switch (r.op) {
      case kLookup: return target.Lookup(r.key, value);
      case kUpdate: return target.Update(r.key, Encode(r.key, r.payload));
      case kInsert: return target.Insert(r.key, Encode(r.key, r.payload));
      default: return target.Remove(r.key);
    }
  }

  // --- Untraced execution: the whole request through the store, timed ---

  void Delay(uint64_t t0) const {
    while (delay_ticks_ != 0 && Ticks() - t0 < delay_ticks_) {
    }
  }

  std::pair<uint64_t, uint64_t> Execute(Client& c, const Request& r) {
    ++c.attempted;
    if (r.op == kRemove) maybe_absent_.Mark(r.key);
    bool ok = false;
    uint64_t value = 0;
    const uint64_t t0 = Ticks();
    switch (r.op) {
      case kMultiget:
        store_.LookupBatch(c.keys, kBatchKeys, c.values, c.found);
        break;
      case kScan:
        store_.Scan(r.key, r.limit, c.scan);
        break;
      case kTransfer: {
        uint64_t body_begin = 0, body_end = 0;
        Transfer(c, c.txn, nullptr, body_begin, body_end);
        break;
      }
      default:
        ok = PointOp(store_, r, value);
        break;
    }
    Delay(t0);
    const uint64_t t1 = Ticks();
    Check(c, r, ok, value);
    return {t0, t1};
  }

  // Reads 4 keys and moves one unit from the first to the second, retried
  // by RunTxn until it commits. Only the committed attempt's reads count.
  void Transfer(Client& c, TxnStats& stats, uint64_t* gets,
                uint64_t& body_begin, uint64_t& body_end) {
    bool bad = false;
    optiql::RunTxn<Txn>(store_, stats, [&](Txn& txn) {
      body_begin = Ticks();
      bad = false;
      bool skip = false;
      uint64_t v[kTransferKeys] = {};
      for (int i = 0; i < kTransferKeys; ++i) {
        const TxnResult res = txn.Get(c.keys[i], v[i]);
        if (gets != nullptr) ++*gets;
        if (res != TxnResult::kOk) {
          bad = bad || !maybe_absent_.Test(c.keys[i]);
          skip = true;
        } else if (!Carries(c.keys[i], v[i])) {
          bad = skip = true;
        }
      }
      if (!skip) {
        txn.Put(c.keys[0], v[0] - kUnit);
        txn.Put(c.keys[1], v[1] + kUnit);
      }
      body_end = Ticks();
      return true;
    });
    if (bad) ++c.failed;
  }

  // --- Traced execution: spans around each layer's public calls ---
  //
  // Requests of one op alternate between the store path and a decomposed
  // path (route, then the direct ShardAt(i) call), and each decomposed
  // sample pairs with the preceding store sample of the same op: store
  // self time = store op - route - direct shard op.

  // True when the next request of `op` takes the store path (no store
  // sample is waiting for its decomposed partner).
  static bool TakeStorePath(Trace& t, int op) {
    return t.pending[op] == kNone;
  }

  // Runs one request with its spans recorded; returns its end tick.
  uint64_t Traced(Client& c, const Request& r) {
    ++c.attempted;
    Trace& t = c.trace;
    ++t.issued[r.op];
    {
      const uint64_t g0 = Ticks();
      { EpochGuard guard; }
      t.guard.Record(clock_.SpanNs(g0, Ticks()));
    }
    if (r.op == kRemove) maybe_absent_.Mark(r.key);
    bool ok = false;
    uint64_t value = 0;
    switch (r.op) {
      case kMultiget:
        MultigetTraced(c);
        break;
      case kScan:
        ScanTraced(c, r);
        break;
      case kTransfer: {
        uint64_t body_begin = 0, body_end = 0;
        Transfer(c, t.txn, &t.txn_gets, body_begin, body_end);
        const uint64_t done = Ticks();
        t.txn_exec.Record(clock_.SpanNs(body_begin, body_end));
        t.txn_commit.Record(clock_.SpanNs(body_end, done));
        break;
      }
      default:
        ok = PointTraced(t, r, value);
        break;
    }
    Check(c, r, ok, value);
    return Ticks();
  }

  bool PointTraced(Trace& t, const Request& r, uint64_t& value) {
    if (TakeStorePath(t, r.op)) {
      const uint64_t t0 = Ticks();
      const bool ok = PointOp(store_, r, value);
      t.pending[r.op] = clock_.SpanNs(t0, Ticks());
      return ok;
    }
    const uint64_t t0 = Ticks();
    const size_t shard = store_.ShardIndexOf(r.key);
    const uint64_t t1 = Ticks();
    const bool ok = PointOp(store_.ShardAt(shard), r, value);
    const uint64_t t2 = Ticks();
    const int64_t route = clock_.SpanNs(t0, t1);
    const int64_t direct = clock_.SpanNs(t1, t2);
    t.route.Record(route);
    t.index[r.op].Record(direct);
    Hist& self = r.op == kLookup ? t.lookup_self : t.write_self;
    self.Record(t.pending[r.op] - route - direct);
    t.pending[r.op] = kNone;
    return ok;
  }

  void MultigetTraced(Client& c) {
    Trace& t = c.trace;
    if (TakeStorePath(t, kMultiget)) {
      const uint64_t t0 = Ticks();
      store_.LookupBatch(c.keys, kBatchKeys, c.values, c.found);
      t.pending[kMultiget] = clock_.SpanNs(t0, Ticks());
      return;
    }
    // Partition outside the spans; time only the per-shard batch calls.
    size_t shard_of[kBatchKeys];
    for (size_t i = 0; i < kBatchKeys; ++i) {
      shard_of[i] = store_.ShardIndexOf(c.keys[i]);
    }
    int64_t direct = 0;
    uint64_t keys[kBatchKeys], values[kBatchKeys];
    bool found[kBatchKeys];
    size_t at[kBatchKeys];
    for (size_t s = 0; s < spans_.size(); ++s) {
      size_t m = 0;
      for (size_t i = 0; i < kBatchKeys; ++i) {
        if (shard_of[i] == s) {
          at[m] = i;
          keys[m++] = c.keys[i];
        }
      }
      if (m == 0) continue;
      const uint64_t t0 = Ticks();
      store_.ShardAt(s).LookupBatch(keys, m, values, found);
      direct += clock_.SpanNs(t0, Ticks());
      for (size_t j = 0; j < m; ++j) {
        c.found[at[j]] = found[j];
        c.values[at[j]] = values[j];
      }
    }
    t.index[kMultiget].Record(direct);
    t.multiget_self.Record(t.pending[kMultiget] - direct);
    t.pending[kMultiget] = kNone;
  }

  void ScanTraced(Client& c, const Request& r) {
    Trace& t = c.trace;
    if (TakeStorePath(t, kScan)) {
      store_.Scan(r.key, r.limit, c.scan);
      t.pending[kScan] = 0;
      return;
    }
    // The store's span walk, replayed from outside: one direct scan per
    // span the range reaches (range shards hold only their own span).
    size_t span = static_cast<size_t>(
        std::upper_bound(spans_.begin(), spans_.end(), r.key,
                         [](uint64_t key, const Store::SpanInfo& s) {
                           return key < s.begin;
                         }) -
        spans_.begin() - 1);
    c.scan.clear();
    int64_t direct = 0;
    for (uint64_t cur = r.key;;) {
      const uint64_t t0 = Ticks();
      store_.ShardAt(spans_[span].shard)
          .Scan(cur, r.limit - c.scan.size(), c.scan_part);
      direct += clock_.SpanNs(t0, Ticks());
      ++t.scan_shards;
      c.scan.insert(c.scan.end(), c.scan_part.begin(), c.scan_part.end());
      if (c.scan.size() >= r.limit || span + 1 == spans_.size()) break;
      cur = spans_[++span].begin;
    }
    ++t.scans;
    t.index[kScan].Record(direct);
    t.pending[kScan] = kNone;
  }

  const Workload& w_;
  const uint64_t n_;
  const uint64_t preloaded_;
  Store& store_;
  const Clock& clock_;
  const KeySampler sampler_;
  MaybeAbsent maybe_absent_;
  const std::vector<Store::SpanInfo> spans_;
  const uint64_t delay_ticks_;
  std::vector<std::unique_ptr<Client>> clients_;
};

// A "VmHWM"/"VmRSS" field of /proc/self/status, in MB.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Returns freed heap pages to the system, then restarts VmHWM from the
// current RSS (Linux >= 4.0), so the peak covers what stays resident from
// here on, not the set-up's transients. Returns false if the reset failed.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  return clear_refs.good();
}

void PinCurrentThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);  // Best effort.
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (double v : values) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    out += (out.size() > 1 ? "," : "") + std::string(buf, r.ptr);
  }
  return out + "]";
}

JsonObject BuildInfo() {
  const auto on = [](bool v) { return v ? "ON" : "OFF"; };
  JsonObject options;
#if defined(__AVX2__)
  options.Str("OPTIQL_AVX2", on(true));
#else
  options.Str("OPTIQL_AVX2", on(false));
#endif
#if defined(OPTIQL_CHECK_INVARIANTS)
  options.Str("OPTIQL_CHECK_INVARIANTS", on(true));
#else
  options.Str("OPTIQL_CHECK_INVARIANTS", on(false));
#endif
#if defined(OPTIQL_LOCK_TELEMETRY)
  options.Str("OPTIQL_LOCK_TELEMETRY", on(true));
#else
  options.Str("OPTIQL_LOCK_TELEMETRY", on(false));
#endif
#if defined(OPTIQL_FORCE_SCALAR)
  options.Str("OPTIQL_FORCE_SCALAR", on(true));
#else
  options.Str("OPTIQL_FORCE_SCALAR", on(false));
#endif
  JsonObject build;
  build.Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", __VERSION__)
      .Obj("options", options);
  return build;
}

// End-to-end metrics of one measured window: each is the median over the
// window's slices, so a short stall moves one slice, not the result.
void EndToEnd(Bench& bench, const optiql::RunResult& run, JsonObject& metrics,
              JsonObject& details) {
  std::vector<Slice> slices(kSlices);
  for (int i = 0; i < kClients; ++i) {
    for (int s = 0; s < kSlices; ++s) {
      const Slice& from = bench.client(i).slices[static_cast<size_t>(s)];
      slices[static_cast<size_t>(s)].ops += from.ops;
      for (int k = 0; k < kClasses; ++k) {
        slices[static_cast<size_t>(s)].latency[k].Merge(from.latency[k]);
      }
    }
  }
  const double slice_seconds = run.seconds / kSlices;
  std::vector<double> throughput, p50, p99;
  std::array<std::vector<double>, kClasses> class_p99;
  std::array<Hist, kClasses> window;
  Hist window_all;
  for (const Slice& s : slices) {
    throughput.push_back(static_cast<double>(s.ops) / slice_seconds);
    Hist all;
    for (int k = 0; k < kClasses; ++k) {
      all.Merge(s.latency[k]);
      class_p99[k].push_back(s.latency[k].Quantile(0.99));
      window[k].Merge(s.latency[k]);
    }
    p50.push_back(all.Quantile(0.5));
    p99.push_back(all.Quantile(0.99));
    window_all.Merge(all);
  }
  static constexpr const char* kClassNames[kClasses] = {"lookup", "write",
                                                        "multiget", "scan"};
  metrics.Num("throughput_ops_s", Median(throughput))
      .Num("p50_ns", Median(p50))
      .Num("p99_ns", Median(p99));
  for (int k = 0; k < kClasses; ++k) {
    metrics.Num(std::string(kClassNames[k]) + "_p99_ns", Median(class_p99[k]));
  }
  metrics.Num("fairness_jain", run.JainFairness());

  // p99.9 over the whole window, beside the samples that support it.
  JsonObject tail;
  const auto describe = [&](const std::string& name, const Hist& h) {
    JsonObject o;
    o.Num("p999_ns", h.Quantile(0.999))
        .Int("samples", h.n())
        .Int("samples_above_p999", h.CountAbove(0.999));
    tail.Obj(name, o);
  };
  describe("all", window_all);
  for (int k = 0; k < kClasses; ++k) describe(kClassNames[k], window[k]);
  details.Obj("tail", tail)
      .Raw("slice_throughput_ops_s", JsonArray(throughput))
      .Raw("slice_p99_ns", JsonArray(p99))
      .Num("window_s", run.seconds);
}

void PerLayer(const Store& store, const Trace& live,
              const Trace& probe, const Counters& before,
              const Counters& after, const optiql::RunResult& base,
              const optiql::RunResult& traced, JsonObject& metrics,
              JsonObject& details) {
  JsonObject source, samples;
  const auto median = [&](const std::string& name, const Hist& l,
                          const Hist& p) {
    const Hist& h = l.n() > 0 ? l : p;
    source.Str(name, l.n() > 0 ? "live" : "probe");
    samples.Int(name, h.n());
    return h.Quantile(0.5);
  };
  const Hist none;
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };

  metrics.Num("store.route_ns", median("store.route_ns", live.route, none))
      .Num("store.lookup_self_ns",
           median("store.lookup_self_ns", live.lookup_self, none))
      .Num("store.write_self_ns",
           median("store.write_self_ns", live.write_self, probe.write_self))
      .Num("store.multiget_self_ns",
           median("store.multiget_self_ns", live.multiget_self, none))
      .Num("store.scan_shards", ratio(static_cast<double>(live.scan_shards),
                                      static_cast<double>(live.scans)));
  static constexpr std::pair<int, const char*> kIndexOps[] = {
      {kLookup, "index.lookup_ns"}, {kUpdate, "index.update_ns"},
      {kInsert, "index.insert_ns"}, {kRemove, "index.remove_ns"},
      {kScan, "index.scan_ns"}};
  for (const auto& [op, name] : kIndexOps) {
    metrics.Num(name, median(name, live.index[op], probe.index[op]));
  }
  metrics.Num("index.lookup_batch_ns_per_key",
              median("index.lookup_batch_ns_per_key", live.index[kMultiget],
                     none) /
                  kBatchKeys);

  double height = 0;
  for (size_t i = 0; i < store.ShardCount(); ++i) {
    height += store.ShardAt(i).Height();
  }
  metrics
      .Num("index.nodes_per_key",
           ratio(static_cast<double>(store.NodeCount()),
                 static_cast<double>(store.Size())))
      .Num("index.height", height / static_cast<double>(store.ShardCount()));

  uint64_t requests = 0;
  for (uint64_t n : live.issued) requests += n;
  const double kops = static_cast<double>(requests) / 1000.0;
  const double reads = static_cast<double>(
      live.issued[kLookup] + live.issued[kMultiget] + live.issued[kScan] +
      live.txn_gets);
  const double writes = static_cast<double>(
      live.issued[kUpdate] + live.issued[kInsert] + live.issued[kRemove]);
  const double read_restarts =
      static_cast<double>(after.read_restarts - before.read_restarts);
  metrics.Num("index.read_restarts_per_op", ratio(read_restarts, reads))
      .Num("index.write_restarts_per_op",
           ratio(static_cast<double>(after.write_restarts -
                                     before.write_restarts),
                 writes))
      .Num("index.read_success_ratio", ratio(reads, reads + read_restarts))
      .Num("index.leaf_splits_per_kop",
           ratio(static_cast<double>(after.leaf_splits - before.leaf_splits),
                 kops))
      .Num("index.leaf_merges_per_kop",
           ratio(static_cast<double>(after.leaf_merges - before.leaf_merges),
                 kops))
      .Num("epoch.guard_ns", median("epoch.guard_ns", live.guard, none))
      .Num("epoch.retired_per_kop",
           ratio(static_cast<double>(after.retired - before.retired), kops))
      .Num("epoch.reclaimed_per_kop",
           ratio(static_cast<double>(after.reclaimed - before.reclaimed), kops))
      .Num("epoch.backlog",
           static_cast<double>(after.retired - after.reclaimed));

  const TxnStats& txn = live.txn.commits > 0 ? live.txn : probe.txn;
  const double commits = static_cast<double>(txn.commits);
  const double attempts = static_cast<double>(txn.commits + txn.aborts);
  metrics
      .Num("txn.exec_ns",
           median("txn.exec_ns", live.txn_exec, probe.txn_exec))
      .Num("txn.commit_ns",
           median("txn.commit_ns", live.txn_commit, probe.txn_commit))
      .Num("txn.attempts_per_commit", ratio(attempts, commits))
      .Num("txn.commit_ratio", ratio(commits, attempts))
      .Num("txn.validation_aborts_per_commit",
           ratio(static_cast<double>(txn.validation_aborts), commits));

  const double base_rate = ratio(static_cast<double>(base.TotalOps()),
                                 base.seconds);
  const double traced_rate = ratio(static_cast<double>(traced.TotalOps()),
                                   traced.seconds);
  metrics.Num("trace.overhead_frac", 1.0 - ratio(traced_rate, base_rate));
  source.Str("txn.ratios", live.txn.commits > 0 ? "live" : "probe");
  details.Obj("source", source)
      .Obj("samples", samples)
      .Num("untraced_ops_s", base_rate)
      .Num("traced_ops_s", traced_rate)
      .Int("traced_requests", requests);
}

// Fills `pairs` with the preload, a function of the seed alone, and marks
// the keys it leaves out in `absent` (if given). Returns the value sum.
uint64_t MakePreload(const Workload& w, uint64_t n, uint64_t seed,
                     Pairs& pairs, MaybeAbsent* absent) {
  const bool transfers = w.permille[kTransfer] > 0;
  pairs.clear();
  pairs.reserve(n);
  Xoshiro256 rng(optiql::Mix64(seed));
  uint64_t sum = 0;
  for (uint64_t k = 0; k < n; ++k) {
    if (w.preload_permille < 1000 &&
        static_cast<int>(rng.NextBounded(1000)) >= w.preload_permille) {
      if (absent != nullptr) absent->Mark(k);
      continue;
    }
    pairs.emplace_back(
        k, Encode(k, transfers ? kInitialBalance : rng.Next() >> 32));
    sum += pairs.back().second;
  }
  return sum;
}

// Constructs and bulk-loads the store at least `min_setups` times, more
// while these total under kSetupBudgetS (at most `max_setups`), and appends
// each one's time to `times`. The last store is left in `store`. Every
// set-up, the first included, starts on pages fresh from the system rather
// than on the previous store's freed heap.
void SetUp(std::unique_ptr<Store>& store, const Pairs& pairs, uint64_t n,
           int min_setups, int max_setups, std::vector<double>& times) {
  double total = 0;
  for (int i = 0; i < min_setups || (total < kSetupBudgetS && i < max_setups);
       ++i) {
    store.reset();
    malloc_trim(0);
    const auto t0 = std::chrono::steady_clock::now();
    store = std::make_unique<Store>(
        kShards, RangeShardRouter::EvenOver(n, kShards));
    store->BulkLoad(pairs);
    times.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    total += times.back();
  }
}

bool ParseOptions(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const auto number = [&](uint64_t& out) {
      if (!has_value) return false;
      char* end = nullptr;
      out = std::strtoull(argv[++i], &end, 10);
      return end != nullptr && *end == '\0';
    };
    uint64_t v = 0;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      if (!number(opt.seed)) return false;
    } else if (arg == "--seconds") {
      if (!has_value) return false;
      opt.seconds = std::strtod(argv[++i], nullptr);
      if (!(opt.seconds > 0 && opt.seconds <= 600)) return false;
    } else if (arg == "--trace") {
      if (!number(v) || v > 1) return false;
      opt.trace = v == 1;
    } else if (arg == "--records") {
      if (!number(opt.records)) return false;
    } else if (arg == "--plant-wrong-values") {
      opt.plant_wrong_values = true;
    } else if (arg == "--plant-delay-ns") {
      if (!number(opt.plant_delay_ns)) return false;
    } else {
      return false;
    }
  }
  return !opt.workload.empty();
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--records N] "
                 "[--plant-wrong-values] [--plant-delay-ns N]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (opt.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const uint64_t n = opt.records != 0 ? opt.records : w->records;
  if (n < 1024 || n >= (uint64_t{1} << 32)) {
    std::fprintf(stderr, "--records must be in [1024, 2^32)\n");
    return 2;
  }
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  PinCurrentThread(static_cast<int>(kClients % cores));
  const Clock clock = Clock::Calibrate();
  const bool transfers = w->permille[kTransfer] > 0;

  Pairs pairs;
  MaybeAbsent absent(n);
  const uint64_t initial_sum = MakePreload(*w, n, opt.seed, pairs, &absent);
  const uint64_t preloaded = pairs.size();

  // Set-ups before the window and, untraced, again after it: the host's
  // speed drifts over seconds, and the median of both groups is steadier
  // than that of one burst.
  std::vector<double> setup_s;
  std::unique_ptr<Store> store;
  SetUp(store, pairs, n, opt.trace ? 1 : kMinSetups,
        opt.trace ? 1 : kMaxSetups, setup_s);
  Pairs().swap(pairs);
  const bool peak_reset = ResetPeakRss();
  const double rss_after_setup_mb = StatusMb("VmRSS");

  Bench bench(*w, n, preloaded, std::move(absent), *store, clock, opt);
  if (opt.plant_wrong_values) bench.PlantWrongValues();
  bench.Window(Mode::kWarmup, std::min(1.0, 0.2 * opt.seconds));

  JsonObject metrics, details;
  const uint64_t population_start = store->Size();
  if (!opt.trace) {
    EndToEnd(bench, bench.Window(Mode::kMeasure, opt.seconds), metrics,
             details);
  } else {
    const optiql::RunResult base =
        bench.Window(Mode::kMeasure, opt.seconds / 2);
    const Counters before = bench.Snapshot();
    const optiql::RunResult traced =
        bench.Window(Mode::kTrace, opt.seconds / 2);
    const Counters after = bench.Snapshot();
    Trace live;
    for (int i = 0; i < kClients; ++i) live.Merge(bench.client(i).trace);
    bench.Probes(live);
    PerLayer(*store, live, bench.main_client().trace, before, after,
             base, traced, metrics, details);
  }

  const uint64_t population_end = store->Size();

  // Post-run checks (OPTIQL_CHECK aborts the process on a broken tree).
  if (w->permille[kInsert] + w->permille[kRemove] > 0) {
    store->CheckInvariants();
  }
  const auto [sum, contents_ok] = bench.VerifyContents();
  if (transfers) {
    Client& c = bench.main_client();
    ++c.attempted;
    if (sum != initial_sum) ++c.failed;
  }
  const uint64_t attempted = bench.Attempted();
  const uint64_t failed = bench.Failed();
  const uint64_t final_size = store->Size();
  if (!opt.trace) {
    const double peak_rss_mb = StatusMb("VmHWM");
    store.reset();
    MakePreload(*w, n, opt.seed, pairs, nullptr);
    SetUp(store, pairs, n, kMinSetups, kMaxSetups, setup_s);
    metrics.Num("ok_frac", 1.0 - static_cast<double>(failed) /
                                     static_cast<double>(attempted))
        .Num("setup_s", Median(setup_s))
        .Num("peak_rss_mb", peak_rss_mb);
  }
  details.Raw("setup_runs_s", JsonArray(setup_s))
      .Bool("peak_rss_reset", peak_reset)
      .Num("rss_after_setup_mb", rss_after_setup_mb)
      .Bool("contents_ok", contents_ok)
      .Int("preloaded", preloaded)
      .Int("population_start", population_start)
      .Int("population_end", population_end)
      .Int("final_size", final_size)
      .Num("clock_ns_per_tick", clock.ns_per_tick)
      .Num("clock_read_ns", clock.read_ns);

  JsonObject out;
  out.Str("workload", w->name)
      .Int("seed", opt.seed)
      .Int("records", n)
      .Int("clients", kClients)
      .Int("shards", kShards)
      .Bool("trace", opt.trace)
      .Num("seconds", opt.seconds)
      .Obj("build", BuildInfo())
      .Bool("correct", failed == 0)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Obj("metrics", metrics)
      .Obj("details", details);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
