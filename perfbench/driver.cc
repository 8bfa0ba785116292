// Closed-loop benchmark driver: runs one workload once against a
// ConcurrentIndex through the library's public APIs and prints one JSON
// object as its last stdout line. perfbench/run.py builds this binary,
// runs one process per workload run (so the peak-RSS high-water mark
// belongs to that run) and turns the object into the benchmark result.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--dir DIR]
//
// --trace 0 measures the end-to-end metrics with one closed-loop client.
// --trace 1 repeats the workload with spans around every ConcurrentIndex
// call (alternating traced and untraced slices, so the tracing overhead
// is measured on the same index state), then probes each lower layer's
// entry points on the quiesced index and runs a 4-client leg for the
// contention counters and the scaling ratio.
// perfbench/README.md defines every metric.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cc/concurrent_index.h"
#include "cc/dgl.h"
#include "common/parse.h"
#include "harness/experiment.h"
#include "workload/churn.h"
#include "workload/skew.h"

namespace burtree {
namespace {

using Clock = std::chrono::steady_clock;

enum OpKind { kUpdate, kInsert, kDelete, kQuery, kKnn, kNumKinds };
constexpr const char* kKindNames[kNumKinds] = {"update", "insert", "delete",
                                               "query", "knn"};
bool IsWrite(OpKind k) {
  return k == kUpdate || k == kInsert || k == kDelete;
}

// Fixed deployment shared by every workload (README "Workloads"). The
// measured loop runs one client; the contended leg of the traced run
// runs kClients, one per buffer shard.
constexpr uint32_t kClients = 4;
constexpr double kQueryDim = 0.01;
constexpr size_t kKnnK = 10;
constexpr double kMaxMove = 0.03;
// The measured window runs in slices of this length. Traced legs
// alternate traced and untraced slices; each slice's rate is recorded.
constexpr double kSliceS = 0.25;
constexpr size_t kProbeSamples = 2000;
constexpr size_t kOracleWindows = 200;
constexpr size_t kOracleKnn = 50;
// Round r of a run with seed s builds its dataset from s * kMaxRounds + r.
constexpr uint64_t kMaxRounds = 8;

struct WorkloadSpec {
  const char* name;
  uint64_t objects;
  StorageBackend backend;
  bool wal;
  double buffer_fraction;
  // An untraced run measures this many rounds, each on a dataset of its
  // own and in a child process of its own (README "How a run measures").
  int rounds;
  // Op mix in percent; the rest are window queries.
  double update_pct, insert_pct, delete_pct, knn_pct;
  bool hotspot;  // 90% of updates go to 5% of each client's objects
};

constexpr WorkloadSpec kWorkloads[] = {
    {"update_hot_mem", 100000, StorageBackend::kMem, false, 1.0, 6,
     80, 0, 0, 0, true},
    {"read_mostly_mem", 100000, StorageBackend::kMem, false, 1.0, 6,
     10, 0, 0, 10, false},
    {"churn_durable_file", 200000, StorageBackend::kFile, true, 0.05, 3,
     60, 10, 10, 0, false},
};

ExperimentConfig MakeConfig(const WorkloadSpec& w, uint64_t seed,
                            const std::string& dir) {
  ExperimentConfig c;
  c.workload.num_objects = w.objects;
  c.workload.distribution = Distribution::kUniform;
  c.workload.max_move_distance = kMaxMove;
  c.workload.query_max_dim = kQueryDim;
  c.workload.seed = seed;
  c.strategy = StrategyKind::kGeneralizedBottomUp;
  c.buffer_fraction = w.buffer_fraction;
  c.buffer_shards = kClients;
  c.latch_mode = LatchMode::kCoupled;
  c.read_mode = ReadMode::kOptimistic;
  c.storage.backend = w.backend;
  c.storage.file_dir = dir;
  c.storage.io_engine = IoEngineKind::kSync;
  c.storage.fsync_on_flush = false;
  c.storage.wal.enabled = w.wal;
  // A 5 ms commit window with a buffer that holds a page longer than the
  // window: evictions rarely wait for the log, and fdatasync runs about
  // 200 times a second instead of back to back (README "Flush policy").
  c.storage.wal.group_commit_us = 5000;
  c.storage.wal.dir = dir;
  return c;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
Clock::duration Duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}
uint64_t Nanos(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Blocking transfers of exactly n bytes over a pipe.
bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}
bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// Latency histogram of fixed size, so that recording does not move the
// peak-RSS metric with the op count. Values below 256 ns get a bucket
// each; above, every power-of-two octave splits into 256 buckets (at most
// 0.4% wide), up to 2^36 ns. Percentiles are nearest-rank, reported as
// the bucket's lower bound.
class Histogram {
 public:
  Histogram() : counts_(kBuckets, 0) {}

  void Add(uint64_t ns) {
    ++counts_[Bucket(ns)];
    ++n_;
  }
  void Merge(const Histogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }
  uint64_t count() const { return n_; }

  bool WriteTo(int fd) const {
    return WriteAll(fd, &n_, sizeof(n_)) &&
           WriteAll(fd, counts_.data(), counts_.size() * sizeof(counts_[0]));
  }
  bool ReadFrom(int fd) {
    return ReadAll(fd, &n_, sizeof(n_)) &&
           ReadAll(fd, counts_.data(), counts_.size() * sizeof(counts_[0]));
  }

  double PercentileUs(double p) const {
    if (n_ == 0) return 0.0;
    const double exact = std::ceil(p / 100.0 * static_cast<double>(n_));
    const uint64_t rank = std::max<uint64_t>(1, static_cast<uint64_t>(exact));
    uint64_t seen = 0;
    size_t i = 0;
    while (i + 1 < kBuckets && (seen += counts_[i]) < rank) ++i;
    return static_cast<double>(LowerBound(i)) / 1000.0;
  }

 private:
  static constexpr int kSubBits = 8;
  static constexpr int kMaxBits = 36;
  static constexpr size_t kBuckets = size_t{kMaxBits - kSubBits + 1}
                                     << kSubBits;
  static size_t Bucket(uint64_t ns) {
    if (ns < (uint64_t{1} << kSubBits)) return ns;
    const int msb = 63 - __builtin_clzll(ns);
    if (msb >= kMaxBits) return kBuckets - 1;
    const uint64_t sub = (ns >> (msb - kSubBits)) & ((1u << kSubBits) - 1);
    return (static_cast<size_t>(msb - kSubBits + 1) << kSubBits) + sub;
  }
  static uint64_t LowerBound(size_t i) {
    if (i < (size_t{1} << kSubBits)) return i;
    const int msb = static_cast<int>(i >> kSubBits) - 1 + kSubBits;
    const uint64_t sub = i & ((size_t{1} << kSubBits) - 1);
    return (uint64_t{1} << msb) | (sub << (msb - kSubBits));
  }

  std::vector<uint32_t> counts_;
  uint64_t n_ = 0;
};

struct Op {
  OpKind kind = kQuery;
  ObjectId oid = 0;
  Point from, to;  // update: from -> to; insert/delete: to; kNN: to
  Rect window;
};

// One client's persistent state: its op stream and its share of the
// position ledger. Initial objects [lo, hi) receive its updates; its
// ChurnTracker owns the objects it inserted.
struct Client {
  Client(uint32_t id, uint64_t lo_, uint64_t hi_, uint64_t seed,
         ObjectId base)
      : rng(seed * 7919 + id), lo(lo_), hi(hi_), churn(base, id) {}
  Rng rng;
  uint64_t lo, hi;
  ChurnTracker churn;
  uint64_t picks = 0;
};

// What one client recorded during one leg's measured window.
struct Tally {
  uint64_t ops[kNumKinds] = {};
  uint64_t retries = 0;
  uint64_t failed = 0;
  // Per op, retries included.
  Histogram write, read;
  // Traced legs only (one per op kind): a span per ConcurrentIndex call
  // in traced slices, and the calling thread's page-store accesses per op.
  std::vector<Histogram> span;
  uint64_t span_ops[kNumKinds] = {};
  uint64_t span_io[kNumKinds] = {};
  Status error;
};

// Every layer's public stats accessor, read at one instant.
struct Counters {
  IndexSystem::IoBreakdown io;
  BufferPoolStats pool;
  LockStats lock;
  LatchModeStats latch;
  LatchTableStats latch_table;
  UpdatePathCounts paths;
  RTreeStats tree;
  WalStats wal;
};

struct LegResult {
  Tally total;  // merged over clients
  double window_s = 0;
  // Completed ops per second of each slice, by slice kind.
  std::vector<double> traced_tps, untraced_tps;
  Counters before, after;
  uint64_t completed() const {
    uint64_t n = 0;
    for (uint64_t c : total.ops) n += c;
    return n;
  }
  double tps() const {
    return Ratio(static_cast<double>(completed()), window_s);
  }
  uint64_t writes() const {
    return total.ops[kUpdate] + total.ops[kInsert] + total.ops[kDelete];
  }
};

struct Metric {
  double value;
  std::string unit;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, const std::string& dir)
      : spec_(spec),
        seed_(seed),
        config_(MakeConfig(spec, seed, dir)),
        workload_(config_.workload),
        picker_(MakeSkew(spec)) {
    const double u = spec.update_pct;
    cut_update_ = u;
    cut_insert_ = u + spec.insert_pct;
    cut_delete_ = cut_insert_ + spec.delete_pct;
    cut_knn_ = cut_delete_ + spec.knn_pct;
  }

  IndexSystem& sys() { return *fx_.system; }
  std::vector<std::string>& errors() { return errors_; }

  // MakeFixture + BuildIndex; returns the seconds it took. A later call
  // replaces the previous index (and resets the ledger and clients).
  StatusOr<double> Setup() {
    Teardown();
    workload_ = WorkloadGenerator(config_.workload);
    const Clock::time_point t0 = Clock::now();
    fx_ = MakeFixture(config_);
    Status st = BuildIndex(config_, workload_, &fx_);
    const double s = Seconds(Clock::now() - t0);
    if (!st.ok()) return st;
    ConcurrencyOptions copts;
    copts.latch_mode = config_.latch_mode;
    copts.read_mode = config_.read_mode;
    copts.io_latency_us = 0;  // no synthetic disk latency
    index_ = std::make_unique<ConcurrentIndex>(
        fx_.system.get(), fx_.strategy.get(), fx_.executor.get(), copts);
    // Client 0 owns every initial object: the measured loop. Clients
    // 1..kClients own a share each: the contended leg.
    clients_.clear();
    const uint64_t n = spec_.objects;
    clients_.push_back(std::make_unique<Client>(0, 0, n, seed_, n));
    for (uint32_t t = 0; t < kClients; ++t) {
      clients_.push_back(std::make_unique<Client>(
          t + 1, n * t / kClients, n * (t + 1) / kClients, seed_, n));
    }
    return s;
  }

  // Destroys the index (and removes its files on the file backend).
  void Teardown() {
    // Tear down users before what they point into.
    index_.reset();
    fx_.executor.reset();
    fx_.strategy.reset();
    fx_.system.reset();
  }

  std::vector<Client*> OneClient() { return {clients_[0].get()}; }

  std::vector<Client*> ContendedClients() {
    std::vector<Client*> out;
    for (uint32_t t = 1; t <= kClients; ++t) out.push_back(clients_[t].get());
    return out;
  }

  Counters Snapshot() {
    Counters c;
    c.io = sys().SnapshotIo();
    c.pool = sys().buffer().pool_stats();
    c.lock = index_->lock_manager().stats();
    c.latch = index_->latch_stats();
    c.latch_table = index_->latch_table_stats();
    c.paths = fx_.strategy->path_counts();
    c.tree = sys().tree().stats();
    if (sys().wal() != nullptr) c.wal = sys().wal()->stats();
    return c;
  }

  LegResult RunLeg(const std::vector<Client*>& clients, double warmup_s,
                   double window_s, bool traced);

  // Output oracle on the quiesced index; appends to errors().
  void Oracle(double* validate_s);

  // Single-threaded probe of each lower layer's entry points.
  void Probe(std::map<std::string, Metric>* m);

 private:
  static SkewOptions MakeSkew(const WorkloadSpec& spec) {
    SkewOptions s;
    if (spec.hotspot) {
      s.kind = SkewKind::kHotspot;
      s.hot_fraction = 0.05;
      s.hot_prob = 0.9;
    }
    return s;
  }

  Op NextOp(Client& c) {
    Op op;
    const double r = c.rng.NextDouble() * 100.0;
    if (r < cut_update_) {
      op.kind = kUpdate;
      const WorkloadGenerator::UpdateOp u = workload_.NextUpdateFor(
          c.lo + picker_.Pick(c.rng, c.hi - c.lo, c.picks++), c.rng);
      op.oid = u.oid;
      op.from = u.from;
      op.to = u.to;
    } else if (r < cut_delete_) {
      // A delete pick with nothing of the client's own to delete becomes
      // an insert, so the ledger stays exact (initial objects are never
      // deleted).
      if (r >= cut_insert_ && c.churn.CanDelete()) {
        op.kind = kDelete;
        const auto victim = c.churn.TakeDelete(c.rng);
        op.oid = victim.first;
        op.to = victim.second;
      } else {
        op.kind = kInsert;
        op.to = Point{c.rng.NextDouble(), c.rng.NextDouble()};
        op.oid = c.churn.MintInsert(op.to);
      }
    } else if (r < cut_knn_) {
      op.kind = kKnn;
      op.to = Point{c.rng.NextDouble(), c.rng.NextDouble()};
    } else {
      op.kind = kQuery;
      op.window = WorkloadGenerator::QueryWindowFrom(c.rng, kQueryDim);
    }
    return op;
  }

  Status Call(const Op& op) {
    switch (op.kind) {
      case kUpdate: return index_->Update(op.oid, op.from, op.to);
      case kInsert: return index_->Insert(op.oid, op.to);
      case kDelete: return index_->Delete(op.oid, op.to);
      case kQuery: return index_->Query(op.window).status();
      case kKnn: return index_->Knn(op.to, kKnnK).status();
      case kNumKinds: break;
    }
    return Status::InvalidArgument("bad op kind");
  }

  void ClientLoop(Client& c, Tally& tally, bool traced,
                  const std::atomic<int>& phase,
                  const std::atomic<bool>& trace_on, std::atomic<bool>& abort,
                  std::atomic<uint64_t>& done);

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const ExperimentConfig config_;
  // Also the position ledger of the initial objects: a client moves only
  // its own [lo, hi) objects, and legs never overlap.
  WorkloadGenerator workload_;
  const SkewPicker picker_;
  double cut_update_, cut_insert_, cut_delete_, cut_knn_;
  StrategyFixture fx_;
  std::unique_ptr<ConcurrentIndex> index_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<std::string> errors_;
};

void Bench::ClientLoop(Client& c, Tally& tally, bool traced,
                       const std::atomic<int>& phase,
                       const std::atomic<bool>& trace_on,
                       std::atomic<bool>& abort,
                       std::atomic<uint64_t>& done) {
  if (traced) tally.span.resize(kNumKinds);
  for (;;) {
    const int ph = phase.load(std::memory_order_acquire);
    if (ph == 2 || abort.load(std::memory_order_relaxed)) break;
    const bool measuring = ph == 1;
    const bool tr =
        traced && measuring && trace_on.load(std::memory_order_relaxed);
    const Op op = NextOp(c);
    uint64_t io = 0;
    const Clock::time_point t0 = Clock::now();
    Status st;
    for (;;) {
      const Clock::time_point c0 = tr ? Clock::now() : t0;
      // ConcurrentIndex resets the thread's counter itself, so the count
      // is read per call rather than as a difference across the op.
      if (tr) PageStore::ResetThreadIo();
      st = Call(op);
      if (tr) {
        tally.span[op.kind].Add(Nanos(Clock::now() - c0));
        io += PageStore::thread_io();
      }
      if (st.code() != StatusCode::kAborted ||
          abort.load(std::memory_order_relaxed)) {
        break;
      }
      if (measuring) ++tally.retries;
      std::this_thread::yield();
    }
    const uint64_t ns = Nanos(Clock::now() - t0);
    if (!st.ok()) {
      if (measuring) ++tally.failed;
      tally.error = st;
      abort.store(true);
      break;
    }
    if (!measuring) continue;
    ++tally.ops[op.kind];
    (IsWrite(op.kind) ? tally.write : tally.read).Add(ns);
    done.fetch_add(1, std::memory_order_relaxed);
    if (tr) {
      ++tally.span_ops[op.kind];
      tally.span_io[op.kind] += io;
    }
  }
}

LegResult Bench::RunLeg(const std::vector<Client*>& clients, double warmup_s,
                        double window_s, bool traced) {
  std::atomic<int> phase{0};  // 0 warm-up, 1 measured window, 2 stop
  std::atomic<bool> trace_on{false};
  std::atomic<bool> abort{false};
  std::vector<Tally> tallies(clients.size());
  // Completed measured ops per client, read by the coordinator per slice.
  struct alignas(64) Progress {
    std::atomic<uint64_t> done{0};
  };
  std::vector<Progress> progress(clients.size());
  auto done_now = [&] {
    uint64_t n = 0;
    for (const Progress& p : progress) {
      n += p.done.load(std::memory_order_relaxed);
    }
    return n;
  };
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      ClientLoop(*clients[i], tallies[i], traced, phase, trace_on, abort,
                 progress[i].done);
    });
  }
  // Sleeps until `until`, or until a client failed.
  auto wait_until = [&](Clock::time_point until) {
    while (Clock::now() < until && !abort.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  LegResult res;
  wait_until(Clock::now() + Duration(warmup_s));
  res.before = Snapshot();
  const Clock::time_point w0 = Clock::now();
  const Clock::time_point end = w0 + Duration(window_s);
  phase.store(1, std::memory_order_release);
  // The window runs in slices; traced legs alternate traced and untraced
  // ones. Each slice's completed-op count gives its rate.
  bool on = false;
  uint64_t n0 = 0;
  for (Clock::time_point s0 = w0; s0 < end && !abort.load();) {
    on = traced && !on;
    trace_on.store(on, std::memory_order_relaxed);
    wait_until(std::min(end, s0 + Duration(kSliceS)));
    const Clock::time_point s1 = Clock::now();
    const uint64_t n1 = done_now();
    // The window's last slice may be cut short; a short one gives no rate.
    if (Seconds(s1 - s0) >= kSliceS / 2) {
      (on ? res.traced_tps : res.untraced_tps)
          .push_back(static_cast<double>(n1 - n0) / Seconds(s1 - s0));
    }
    s0 = s1;
    n0 = n1;
  }
  phase.store(2, std::memory_order_release);
  res.window_s = Seconds(Clock::now() - w0);
  for (std::thread& t : threads) t.join();
  res.after = Snapshot();

  Tally& m = res.total;
  if (traced) m.span.resize(kNumKinds);
  for (Tally& t : tallies) {
    for (int k = 0; k < kNumKinds; ++k) {
      m.ops[k] += t.ops[k];
      m.span_ops[k] += t.span_ops[k];
      m.span_io[k] += t.span_io[k];
      if (traced) m.span[k].Merge(t.span[k]);
    }
    m.retries += t.retries;
    m.failed += t.failed;
    m.write.Merge(t.write);
    m.read.Merge(t.read);
    if (!t.error.ok()) {
      errors_.push_back("op failed: " + t.error.ToString() + " (workload " +
                        spec_.name + ", seed " + std::to_string(seed_) + ")");
    }
  }
  return res;
}

void Bench::Oracle(double* validate_s) {
  const std::string where =
      std::string(" (workload ") + spec_.name + ", seed " +
      std::to_string(seed_) + ")";
  auto fail = [&](const std::string& what) {
    errors_.push_back("oracle " + what + where);
  };
  const Clock::time_point v0 = Clock::now();
  const Status valid = sys().tree().Validate(/*check_min_fill=*/false);
  *validate_s = Seconds(Clock::now() - v0);
  if (!valid.ok()) fail("rtree.validate: " + valid.ToString());

  // The ledger: every live object's position as the clients moved,
  // inserted and deleted them (NextUpdateFor keeps the generator's
  // positions current).
  std::vector<Point> live = workload_.initial_positions();
  int64_t net = 0;
  for (const auto& c : clients_) {
    net += c->churn.net();
    for (const auto& e : c->churn.live()) live.push_back(e.second);
  }
  const uint64_t expected =
      static_cast<uint64_t>(static_cast<int64_t>(spec_.objects) + net);
  StatusOr<size_t> all = index_->Query(Rect(0.0, 0.0, 1.0, 1.0));
  if (!all.ok()) {
    fail("conservation: " + all.status().ToString());
  } else if (all.value() != expected) {
    fail("conservation: full-space count " + std::to_string(all.value()) +
         " != initial + inserts - deletes " + std::to_string(expected));
  }

  Rng rng(seed_ * 7919 + 0x0dac1e);
  for (size_t i = 0; i < kOracleWindows; ++i) {
    const Rect w = WorkloadGenerator::QueryWindowFrom(rng, kQueryDim);
    size_t want = 0;
    for (const Point& p : live) want += w.Contains(p) ? 1 : 0;
    StatusOr<size_t> got = index_->Query(w);
    if (!got.ok() || got.value() != want) {
      const std::string have = got.ok() ? std::to_string(got.value())
                                        : got.status().ToString();
      fail("window_count sample " + std::to_string(i) + ": index " + have +
           " != ledger " + std::to_string(want));
    }
  }
  std::vector<double> dist(live.size());
  for (size_t i = 0; i < kOracleKnn; ++i) {
    const Point q{rng.NextDouble(), rng.NextDouble()};
    const size_t k = std::min(kKnnK, live.size());
    for (size_t j = 0; j < live.size(); ++j) {
      dist[j] = Rect::FromPoint(live[j]).MinDistanceTo(q);
    }
    std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(k),
                      dist.end());
    StatusOr<size_t> count = index_->Knn(q, kKnnK);
    auto nn = sys().tree().NearestNeighbors(q, kKnnK);
    bool same = count.ok() && count.value() == k && nn.ok() &&
                nn.value().size() == k;
    if (same) {
      std::vector<double> got;
      for (const auto& n : nn.value()) got.push_back(n.distance);
      std::sort(got.begin(), got.end());
      same = std::equal(got.begin(), got.end(), dist.begin());
    }
    if (!same) {
      fail("knn sample " + std::to_string(i) +
           ": neighbor count or distances differ from the ledger");
    }
  }
}

void Bench::Probe(std::map<std::string, Metric>* m) {
  IndexSystem& s = sys();
  HashIndex& oids = *s.oid_index();
  SummaryStructure& summary = *s.summary();
  const size_t n = kProbeSamples;
  // A sample of the workload's own inputs.
  Rng rng(seed_ * 7919 + 0x9b0be);
  // The moves advance the ledger now; the update probe, the last one,
  // applies them in the same order.
  std::vector<WorkloadGenerator::UpdateOp> move(n);
  std::vector<Point> knn_q(n);
  std::vector<Rect> window(n);
  for (size_t i = 0; i < n; ++i) {
    move[i] = workload_.NextUpdateFor(picker_.Pick(rng, spec_.objects, i),
                                      rng);
    window[i] = WorkloadGenerator::QueryWindowFrom(rng, kQueryDim);
    knn_q[i] = Point{rng.NextDouble(), rng.NextDouble()};
  }
  Histogram calls;  // the last probe's call times
  auto time_each = [&](const char* name, auto&& call) {
    calls = Histogram();
    for (size_t i = 0; i < n; ++i) {
      const Clock::time_point t0 = Clock::now();
      const Status st = call(i);
      calls.Add(Nanos(Clock::now() - t0));
      if (!st.ok()) {
        errors_.push_back(std::string("probe ") + name + ": " +
                          st.ToString() + " (workload " + spec_.name +
                          ", seed " + std::to_string(seed_) + ")");
        break;
      }
    }
    (*m)[name] = Metric{calls.PercentileUs(50), "us"};
  };

  std::vector<PageId> leaf(n, kInvalidPageId);
  const IoSnapshot h0 = IoSnapshot::Take(oids.io_stats());
  time_each("oid_index.lookup_us", [&](size_t i) {
    StatusOr<PageId> r = oids.Lookup(move[i].oid);
    if (r.ok()) leaf[i] = r.value();
    return r.status();
  });
  const IoSnapshot h1 = IoSnapshot::Take(oids.io_stats());
  (*m)["oid_index.io_per_lookup"] =
      Metric{Ratio(static_cast<double>((h1 - h0).total_io()),
                   static_cast<double>(n)),
             "count"};

  time_each("summary.find_ancestor_us", [&](size_t i) {
    (void)summary.FindAncestorContaining(leaf[i], move[i].to,
                                         GbuOptions::kLevelThresholdMax);
    return Status::OK();
  });
  time_each("summary.overlap_parents_us", [&](size_t i) {
    if (summary.root_level() >= 1) {
      (void)summary.OverlappingLeafParents(window[i]);
    }
    return Status::OK();
  });
  time_each("buffer.fetch_us", [&](size_t i) {
    StatusOr<Page*> p = s.buffer().FetchPage(leaf[i]);
    if (p.ok()) s.buffer().UnpinPage(leaf[i], /*dirty=*/false);
    return p.status();
  });
  std::vector<uint8_t> page(s.file().page_size());
  time_each("storage.read_us",
            [&](size_t i) { return s.file().Read(leaf[i], page.data()); });
  SpatialGranules granules;
  LockManager& locks = index_->lock_manager();
  time_each("cc.dgl_acquire_us", [&](size_t i) {
    // Transaction ids far above the index's own, uncontended.
    const uint64_t txn = (1ull << 62) + i;
    const Status st =
        locks.Acquire(txn, granules.CellOf(move[i].to), LockMode::kX);
    locks.ReleaseAll(txn);
    return st;
  });
  time_each("update.query_exec_us", [&](size_t i) {
    return fx_.executor->Query(window[i]).status();
  });
  if (spec_.knn_pct == 0) {
    // The mix has no kNN: cc.knn_* come from uncontended calls instead.
    time_each("cc.knn_p50_us", [&](size_t i) {
      return index_->Knn(knn_q[i], kKnnK).status();
    });
    (*m)["cc.knn_p99_us"] = Metric{calls.PercentileUs(99), "us"};
  }
  time_each("update.strategy_update_us", [&](size_t i) {
    WalOpScope scope(s.wal());  // one log record per update, as clients do
    return fx_.strategy->Update(move[i].oid, move[i].from, move[i].to)
        .status();
  });
}

// ---- Metrics ----

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// What one round of an untraced run sends back to the parent process.
// Counts are deltas across the round's window, so they do not depend on
// its length (no final flush is charged to it).
struct RoundResult {
  double setup_s = 0;
  double window_s = 0;
  uint64_t ops[kNumKinds] = {};
  uint64_t retries = 0;
  uint64_t failed = 0;
  uint64_t io = 0;           // tree + hash store page accesses
  double written_bytes = 0;  // page write-backs x page size + WAL bytes
  double peak_rss_mb = 0;    // the round's process, before the oracle
  uint64_t writes() const {
    return ops[kUpdate] + ops[kInsert] + ops[kDelete];
  }
  uint64_t completed() const {
    uint64_t n = 0;
    for (uint64_t c : ops) n += c;
    return n;
  }
};

RoundResult Summarize(const LegResult& leg, double setup_s,
                      size_t page_size) {
  RoundResult r;
  r.setup_s = setup_s;
  r.window_s = leg.window_s;
  for (int k = 0; k < kNumKinds; ++k) r.ops[k] = leg.total.ops[k];
  r.retries = leg.total.retries;
  r.failed = leg.total.failed;
  const IoSnapshot tree = leg.after.io.tree - leg.before.io.tree;
  const IoSnapshot hash = leg.after.io.hash - leg.before.io.hash;
  r.io = tree.total_io() + hash.total_io();
  r.written_bytes = static_cast<double>(
      (tree.writes + hash.writes) * page_size +
      (leg.after.wal.appended_bytes - leg.before.wal.appended_bytes));
  return r;
}

// The end-to-end metrics over all rounds: rates and ratios of the summed
// counts, percentiles of the merged histograms, the median set-up and the
// largest peak RSS.
void EndToEnd(const std::vector<RoundResult>& rounds, const Histogram& write,
              const Histogram& read, std::map<std::string, Metric>* m) {
  double ops = 0, writes = 0, window_s = 0, io = 0, written_bytes = 0;
  double peak_rss_mb = 0;
  std::vector<double> setups;
  for (const RoundResult& r : rounds) {
    ops += static_cast<double>(r.completed());
    writes += static_cast<double>(r.writes());
    window_s += r.window_s;
    io += static_cast<double>(r.io);
    written_bytes += r.written_bytes;
    setups.push_back(r.setup_s);
    peak_rss_mb = std::max(peak_rss_mb, r.peak_rss_mb);
  }
  (*m)["tps"] = Metric{Ratio(ops, window_s), "1/s"};
  (*m)["write_p50_us"] = Metric{write.PercentileUs(50), "us"};
  (*m)["write_p90_us"] = Metric{write.PercentileUs(90), "us"};
  (*m)["read_p50_us"] = Metric{read.PercentileUs(50), "us"};
  (*m)["read_p90_us"] = Metric{read.PercentileUs(90), "us"};
  (*m)["io_per_op"] = Metric{Ratio(io, ops), "count"};
  (*m)["bytes_written_per_write"] =
      Metric{Ratio(written_bytes, writes), "bytes"};
  (*m)["setup_s"] = Metric{Median(setups), "s"};
  (*m)["peak_rss_mb"] = Metric{peak_rss_mb, "MB"};
}

void PerLayer(const LegResult& leg, std::map<std::string, Metric>* m) {
  const Counters& a = leg.before;
  const Counters& b = leg.after;
  const Tally& t = leg.total;
  const double ops = static_cast<double>(leg.completed());
  const double writes = static_cast<double>(leg.writes());
  auto put = [&](const std::string& name, double v, const char* unit) {
    (*m)[name] = Metric{v, unit};
  };
  auto d = [](uint64_t before, uint64_t after) {
    return static_cast<double>(after - before);
  };

  // cc: spans by op kind (kNN from the probe when the mix has none).
  for (OpKind k : {kUpdate, kQuery, kKnn}) {
    if (t.span[k].count() == 0) continue;
    const std::string base = std::string("cc.") + kKindNames[k];
    put(base + "_p50_us", t.span[k].PercentileUs(50), "us");
    put(base + "_p99_us", t.span[k].PercentileUs(99), "us");
  }
  put("cc.dgl_waits_per_op", Ratio(d(a.lock.waits, b.lock.waits), ops),
      "count");
  put("cc.dgl_aborts_per_op", Ratio(d(a.lock.aborts, b.lock.aborts), ops),
      "count");
  put("cc.abort_retries_per_op", Ratio(static_cast<double>(t.retries), ops),
      "count");
  put("cc.descent_restarts_per_op",
      Ratio(d(a.latch.descent_restarts, b.latch.descent_restarts), ops),
      "count");
  // coupled_queries counts every window query the coupled path completed.
  const double queries = d(a.latch.coupled_queries, b.latch.coupled_queries);
  put("cc.optimistic_fallback_frac",
      Ratio(d(a.latch.optimistic_fallbacks, b.latch.optimistic_fallbacks),
            queries),
      "frac");
  // Coupled-mode kNN always drains through the compound gate and bumps
  // the same counter; only the write-side compound SMOs count here.
  put("cc.compound_smo_frac",
      Ratio(d(a.latch.compound_smos, b.latch.compound_smos) -
                d(a.latch.knn_queries, b.latch.knn_queries),
            writes),
      "frac");
  put("cc.latch_try_fail_frac",
      Ratio(d(a.latch_table.try_failures, b.latch_table.try_failures),
            d(a.latch_table.try_acquires, b.latch_table.try_acquires)),
      "frac");

  // update: decision-ladder shares.
  const double paths = d(a.paths.total(), b.paths.total());
  const std::pair<const char*, uint64_t UpdatePathCounts::*> kPaths[] = {
      {"in_place", &UpdatePathCounts::in_place},
      {"extend", &UpdatePathCounts::extend},
      {"sibling", &UpdatePathCounts::sibling},
      {"ascend", &UpdatePathCounts::ascend},
      {"root_insert", &UpdatePathCounts::root_insert},
      {"top_down", &UpdatePathCounts::top_down}};
  for (const auto& [name, count] : kPaths) {
    put(std::string("update.path_share.") + name,
        Ratio(d(a.paths.*count, b.paths.*count), paths), "frac");
  }

  // summary
  put("summary.pruned_query_frac",
      Ratio(d(a.latch.pruned_queries, b.latch.pruned_queries), queries),
      "frac");

  // rtree
  put("rtree.leaf_splits_per_insert",
      Ratio(d(a.tree.leaf_splits, b.tree.leaf_splits),
            d(a.tree.inserts, b.tree.inserts)),
      "count");
  put("rtree.condenses_per_delete",
      Ratio(d(a.tree.underflow_condenses, b.tree.underflow_condenses),
            d(a.tree.deletes, b.tree.deletes)),
      "count");
  put("rtree.reinserted_per_delete",
      Ratio(d(a.tree.reinserted_entries, b.tree.reinserted_entries),
            d(a.tree.deletes, b.tree.deletes)),
      "count");

  // buffer (tree pool)
  const BufferStats pa = a.pool.total();
  const BufferStats pb = b.pool.total();
  put("buffer.hit_rate",
      Ratio(d(pa.hits, pb.hits),
            d(pa.hits, pb.hits) + d(pa.misses, pb.misses)),
      "frac");
  put("buffer.evictions_per_op", Ratio(d(pa.evictions, pb.evictions), ops),
      "count");
  put("buffer.flushes_per_op", Ratio(d(pa.flushes, pb.flushes), ops),
      "count");
  double max_shard = 0, sum_shard = 0;
  for (size_t i = 0; i < b.pool.shards.size() && i < a.pool.shards.size();
       ++i) {
    const double acc = d(a.pool.shards[i].hits + a.pool.shards[i].misses,
                         b.pool.shards[i].hits + b.pool.shards[i].misses);
    max_shard = std::max(max_shard, acc);
    sum_shard += acc;
  }
  put("buffer.shard_imbalance",
      Ratio(max_shard * static_cast<double>(b.pool.shards.size()), sum_shard),
      "ratio");

  // storage: tree + hash stores.
  put("storage.reads_per_op",
      Ratio(d(a.io.tree.reads + a.io.hash.reads,
              b.io.tree.reads + b.io.hash.reads),
            ops),
      "count");
  put("storage.writes_per_op",
      Ratio(d(a.io.tree.writes + a.io.hash.writes,
              b.io.tree.writes + b.io.hash.writes),
            ops),
      "count");
  for (int k = 0; k < kNumKinds; ++k) {
    put(std::string("storage.io_per_op.") + kKindNames[k],
        Ratio(static_cast<double>(t.span_io[k]),
              static_cast<double>(t.span_ops[k])),
        "count");
  }

  // wal
  const double records = d(a.wal.records, b.wal.records);
  const double fsyncs = d(a.wal.fsyncs, b.wal.fsyncs);
  put("wal.records_per_write", Ratio(records, writes), "count");
  put("wal.bytes_per_write",
      Ratio(d(a.wal.appended_bytes, b.wal.appended_bytes), writes), "bytes");
  put("wal.records_per_fsync", Ratio(records, fsyncs), "count");
  put("wal.fsyncs_per_s", Ratio(fsyncs, leg.window_s), "1/s");
}

// ---- Output ----

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// One round of an untraced run, in a child process: set-up on the
// round's own dataset, warm-up, the round's window with one client, and
// the output oracle. Writes the RoundResult, both latency histograms and
// the error messages to `fd`.
bool RunRound(const WorkloadSpec& spec, uint64_t round_seed,
              const std::string& dir, double window, int fd) {
  Bench bench(spec, round_seed, dir);
  RoundResult result;
  Histogram write, read;
  std::string errors;
  StatusOr<double> setup = bench.Setup();
  if (!setup.ok()) {
    errors = "setup failed: " + setup.status().ToString() + "\n";
  } else {
    const LegResult leg =
        bench.RunLeg(bench.OneClient(), std::min(2.0, 0.2 * window), window,
                     /*traced=*/false);
    result = Summarize(leg, setup.value(), bench.sys().file().page_size());
    result.peak_rss_mb = PeakRssMb();
    write = leg.total.write;
    read = leg.total.read;
    double validate_s = 0;
    bench.Oracle(&validate_s);
    for (const std::string& e : bench.errors()) errors += e + "\n";
  }
  bench.Teardown();
  const uint64_t len = errors.size();
  return WriteAll(fd, &result, sizeof(result)) && write.WriteTo(fd) &&
         read.WriteTo(fd) && WriteAll(fd, &len, sizeof(len)) &&
         WriteAll(fd, errors.data(), len);
}

// Runs the rounds one after another, each in a forked child, so every
// round starts from a fresh heap.
// Called before this process starts any thread.
Status RunRounds(const WorkloadSpec& spec, uint64_t seed,
                 const std::string& dir, double window,
                 std::vector<RoundResult>* rounds, Histogram* write,
                 Histogram* read, std::vector<std::string>* errors) {
  for (int r = 0; r < spec.rounds; ++r) {
    int fds[2];
    if (pipe(fds) != 0) return Status::IoError("pipe failed");
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      return Status::IoError("fork failed");
    }
    if (pid == 0) {
      close(fds[0]);
      const bool sent =
          RunRound(spec, seed * kMaxRounds + static_cast<uint64_t>(r), dir,
                   window / spec.rounds, fds[1]);
      _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    RoundResult result;
    Histogram w, rd;
    uint64_t len = 0;
    std::string text;
    bool got = ReadAll(fds[0], &result, sizeof(result)) && w.ReadFrom(fds[0]) &&
               rd.ReadFrom(fds[0]) && ReadAll(fds[0], &len, sizeof(len)) &&
               len < (1u << 20);
    if (got) {
      text.resize(len);
      got = ReadAll(fds[0], text.data(), len);
    }
    close(fds[0]);
    int wstatus = 0;
    while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    if (!got || !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      return Status::IoError("round " + std::to_string(r) +
                             " failed in its child process");
    }
    for (size_t b = 0, e; (e = text.find('\n', b)) != std::string::npos;
         b = e + 1) {
      errors->push_back(text.substr(b, e - b));
    }
    rounds->push_back(result);
    write->Merge(w);
    read->Merge(rd);
  }
  return Status::OK();
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 [--dir DIR]\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, dir;
  uint64_t seed = 0, seconds = 0, trace = 2;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--dir") {
      dir = value;
    } else if (flag == "--seed") {
      ok = have_seed = ParseUint64(value, &seed,
                                     UINT64_MAX / 7919 / kMaxRounds - 1);
    } else if (flag == "--seconds") {
      ok = ParseUint64(value, &seconds, 3600) && seconds > 0;
    } else if (flag == "--trace") {
      ok = ParseUint64(value, &trace, 1);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (!ok) return Usage(("bad value for " + flag + ": " + value).c_str());
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (!have_seed || seconds == 0 || trace > 1) {
    return Usage("--seed, --seconds and --trace are required");
  }

  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;
  std::vector<std::string> errors;
  const double window = static_cast<double>(seconds);
  uint64_t attempted = 0, failed = 0;
  // Op counts and abort retries of the measured windows.
  auto count_ops = [&](const uint64_t (&ops)[kNumKinds], uint64_t retries,
                       uint64_t failed_ops) {
    uint64_t completed = 0;
    for (int k = 0; k < kNumKinds; ++k) {
      info[std::string("ops.") + kKindNames[k]] += static_cast<double>(ops[k]);
      completed += ops[k];
    }
    info["ops"] += static_cast<double>(completed);
    info["abort_retries"] += static_cast<double>(retries);
    attempted += completed + failed_ops;
    failed += failed_ops;
  };

  if (trace == 0) {
    std::vector<RoundResult> rounds;
    Histogram write, read;
    const Status st = RunRounds(*spec, seed, dir, window, &rounds, &write,
                                &read, &errors);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench_driver: %s\n", st.ToString().c_str());
      return 1;
    }
    for (size_t r = 0; r < rounds.size(); ++r) {
      count_ops(rounds[r].ops, rounds[r].retries, rounds[r].failed);
      info["window_s"] += rounds[r].window_s;
      info["setup_round_" + std::to_string(r) + "_s"] = rounds[r].setup_s;
    }
    info["write_samples"] = static_cast<double>(write.count());
    info["read_samples"] = static_cast<double>(read.count());
    // p90 is the gated tail: one stalled round moves p99 tenfold, so p99
    // is printed for reference only.
    info["write_p99_us"] = write.PercentileUs(99);
    info["read_p99_us"] = read.PercentileUs(99);
    EndToEnd(rounds, write, read, &metrics);
  } else {
    // The traced run: round 0's dataset, the whole window in one process.
    Bench bench(*spec, seed * kMaxRounds, dir);
    StatusOr<double> setup = bench.Setup();
    if (!setup.ok()) {
      std::fprintf(stderr, "perfbench_driver: setup failed: %s\n",
                   setup.status().ToString().c_str());
      return 1;
    }
    info["setup_round_0_s"] = setup.value();
    const LegResult leg = bench.RunLeg(
        bench.OneClient(), std::min(2.0, 0.2 * window), window,
        /*traced=*/true);
    count_ops(leg.total.ops, leg.total.retries, leg.total.failed);
    info["window_s"] = leg.window_s;
    PerLayer(leg, &metrics);
    metrics["trace.overhead_frac"] = Metric{
        1.0 - Ratio(Median(leg.traced_tps), Median(leg.untraced_tps)),
        "frac"};
    for (OpKind k : {kUpdate, kQuery, kKnn}) {
      info[std::string("span_samples.") + kKindNames[k]] =
          static_cast<double>(leg.total.span[k].count());
    }
    const Clock::time_point c0 = Clock::now();
    const Status ck = bench.sys().Checkpoint();
    metrics["wal.checkpoint_s"] = Metric{Seconds(Clock::now() - c0), "s"};
    if (!ck.ok()) bench.errors().push_back("checkpoint: " + ck.ToString());
    const Status flushed = bench.sys().FlushAll();
    if (!flushed.ok()) {
      bench.errors().push_back("flush: " + flushed.ToString());
    }
    metrics["rtree.height"] =
        Metric{static_cast<double>(bench.sys().tree().height()), "count"};
    metrics["rtree.nodes"] =
        Metric{static_cast<double>(bench.sys().tree().CountNodes()), "count"};
    bench.Probe(&metrics);
    // The contended leg: kClients clients, same instrumentation, same
    // mix, half the window. The contention counters come from it; with
    // one client they are zero by construction.
    const LegResult contended = bench.RunLeg(bench.ContendedClients(), 0.0,
                                             window / 2, /*traced=*/true);
    std::map<std::string, Metric> under_contention;
    PerLayer(contended, &under_contention);
    for (const char* name :
         {"cc.dgl_waits_per_op", "cc.dgl_aborts_per_op",
          "cc.abort_retries_per_op", "cc.descent_restarts_per_op",
          "cc.optimistic_fallback_frac", "cc.latch_try_fail_frac"}) {
      metrics[name] = under_contention[name];
    }
    metrics["cc.scaling_4c_over_1c"] =
        Metric{Ratio(contended.tps(), leg.tps()), "ratio"};
    info["tps_contended"] = contended.tps();
    attempted += contended.completed() + contended.total.failed;
    failed += contended.total.failed;
    double validate_s = 0;
    bench.Oracle(&validate_s);
    metrics["rtree.validate_s"] = Metric{validate_s, "s"};
    errors = bench.errors();
  }
  info["failed_op_frac"] = Ratio(static_cast<double>(failed),
                                 static_cast<double>(attempted));

  const bool correct = errors.empty();
  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.c_str());
  }
  std::string out = "{\"workload\": " + JsonString(spec->name) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"trace\": " + std::to_string(trace) +
                    ", \"correct\": " + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
                    ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
                    ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    out += (i ? ", " : "") + JsonString(errors[i]);
  }
  out += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(metric.value) + ", \"unit\": " +
           JsonString(metric.unit) + "}";
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [name, value] : info) {
    out += (first ? "" : ", ") + JsonString(name) + ": " + JsonNumber(value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace burtree

int main(int argc, char** argv) { return burtree::Main(argc, argv); }
