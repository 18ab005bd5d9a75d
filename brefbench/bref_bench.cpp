// bref_bench — the benchmark driver behind brefbench/run.py.
//
// One process runs one workload (a traffic mix) against the served stack:
// Bundle-skiplist behind ShardedSet (K=4, reclaim on, MaintenanceService
// running), built exactly the way net::Server builds it.
//
// --trace 0 (end-to-end run) repeats `--rounds` rounds of:
//   1. server set-up: Server start + prefill to half occupancy;
//   2. wire, closed loop: one driver thread, 4 connections, a fixed
//      in-flight window each ("peak");
//   3. wire, open loop at the workload's fixed offered rates ("paced"),
//      each request timed from its scheduled send time, with the
//      generator's lateness measured and bounded;
//   4. a whole-keyspace size check over the wire;
//   5. in-process set-up: ShardedSet + MaintenanceService + prefill;
//   6. in-process closed loop through ShardedSet sessions ("embedded");
//   7. size_slow() and check_invariants().
// Every round replays the same operation streams on a freshly built
// stack. Each end-to-end metric is the trimmed mean of its per-round
// values (the median for set-up time); a round's throughput is its
// measured window's count over the window's length. Timing is taken only
// outside the library, around calls into its public functions. Latency
// percentiles come from a log-linear histogram within 1% of the samples.
//
// --trace 1 (traced run) replays the workload's operation stream down a
// ladder of public entry points — raw structure (TypedSession over
// BundleSkipListSet), bref::Set facade, ShardedSet, wire — timing every
// call, and reads the counters the program already exposes (stats(),
// STATS, METRICS). Spans (name, lane, id, parent, start, end) are kept in
// memory and written to --spans-out when the run ends, as a binary file:
//   "BREFSPAN1\n", u32 name count, names as (u32 len, bytes),
//   u64 span count, then per span {u64 start_ns, u64 end_ns, u32 id,
//   u32 parent, u8 name, u8 cls, u8 lane, u8 pad} little-endian.
//
// The last line on stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...},
//    "diag": {...}}
// Exit status is 0 only when every correctness check passed.

#include <malloc.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/ordered_set.h"
#include "api/set.h"
#include "common/random.h"
#include "core/bundle_cleaner.h"
#include "core/entry_pool.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "shard/maintenance.h"
#include "shard/sharded_set.h"

namespace {

using namespace bref;

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_until_ns(uint64_t t) {
  const uint64_t n = now_ns();
  if (t > n) std::this_thread::sleep_for(std::chrono::nanoseconds(t - n));
}

// ---------------------------------------------------------------------------
// Load shape: constants of the benchmark, sized for 4 cores and recorded
// in the output's diag.

constexpr int kConns = 4;              // wire connections, scanner included
constexpr int kWindow = 16;            // closed-loop in-flight window per connection
constexpr int kWorkers = 2;            // server worker loops
constexpr int kAppThreads = 3;         // in-process point threads
constexpr int kPrefillThreads = 4;
constexpr double kLateBoundUs = 10000; // a paced phase is invalid if its lateness p99 > this
constexpr int64_t kRangeKeys = 100;    // RANGE width on point lanes

// ---------------------------------------------------------------------------
// Parameters (run.py passes the workload's constants from spec.json).

struct Spec {
  std::string workload;
  int64_t keys = 65536;         // keyspace [0, keys); prefill keys/2
  double get = 0.9;             // point-lane op mix; updates are
  double update = 0.1;          //   half INSERT, half REMOVE
  double range = 0.0;
  double zipf = 0.0;            // 0 = uniform
  int64_t scan_keys = 0;        // > 0: one lane issues back-to-back
                                //   RANGEs of this width
  double rate = 0;              // paced offered rate, ops/s (point lanes)
  double scan_rate = 0;         // paced offered rate of the scan lane, scans/s
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int rounds = 3;
  int64_t break_size = 0;       // self-test: corrupt the expected size
  std::string spans_out;

  bool has_scanner() const { return scan_keys > 0; }
  int point_conns() const { return kConns - (has_scanner() ? 1 : 0); }
  /// The keys metrics count RANGE items; a workload with no RANGE traffic
  /// at all counts GET hits instead (a metric may not read 0).
  bool keys_are_get_hits() const { return range == 0 && !has_scanner(); }
};

// ---------------------------------------------------------------------------
// Operation streams.

enum Kind : uint8_t { kOpGet, kOpIns, kOpRem, kOpRange };
enum Cls : uint8_t { kClsGet, kClsUpdate, kClsRange, kClasses };
const char* const kClsName[kClasses] = {"get", "update", "range"};

inline Cls cls_of(uint8_t kind) {
  return kind == kOpGet ? kClsGet : kind == kOpRange ? kClsRange : kClsUpdate;
}

struct Op {
  KeyT lo;
  uint32_t width;  // RANGE only: keys [lo, lo + width)
  uint8_t kind;
  KeyT hi() const { return lo + width - 1; }
};

using Streams = std::vector<std::vector<Op>>;  // one per lane

inline ValT val_of(KeyT k) { return k * 3 + 1; }

uint64_t mix_seed(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Per lane, replayed cyclically. Long enough that rq-mixed's lanes make
// about one pass per phase (a short stream would shrink its working set).
constexpr size_t kStreamOps = size_t{1} << 18;

class Workload {
 public:
  explicit Workload(const Spec& s) : s_(s) {
    std::vector<KeyT> all(static_cast<size_t>(s.keys));
    std::iota(all.begin(), all.end(), KeyT{0});
    shuffle(all, mix_seed(s.seed, 1));
    prefill_.assign(all.begin(), all.begin() + s.keys / 2);
    if (s.zipf > 0) {  // hot ranks land on seeded keys, spread over shards
      shuffle(all, mix_seed(s.seed, 2));
      zipf_map_ = std::move(all);
    }
  }

  const std::vector<KeyT>& prefill() const { return prefill_; }

  /// Point-lane stream. `probe_range` adds 1% RANGEs to a workload with
  /// no RANGE at all, so the traced ladder has a range sample everywhere.
  std::vector<Op> point_stream(uint64_t tag, bool probe_range) const {
    double get = s_.get, upd = s_.update, rng = s_.range;
    if (probe_range && rng == 0 && !s_.has_scanner()) {
      rng = 0.01;
      get -= 0.01;
    }
    const double tot = get + upd + rng;
    Xoshiro256 r(mix_seed(s_.seed, tag));
    std::optional<ZipfGenerator> z;
    if (s_.zipf > 0)
      z.emplace(static_cast<uint64_t>(s_.keys), s_.zipf, mix_seed(s_.seed, tag + 7));
    std::vector<Op> ops(kStreamOps);
    for (Op& op : ops) {
      const double u = r.next_double() * tot;
      if (u < rng) {
        op.kind = kOpRange;
        op.lo = static_cast<KeyT>(
            r.next_range(static_cast<uint64_t>(s_.keys - kRangeKeys + 1)));
        op.width = static_cast<uint32_t>(kRangeKeys);
        continue;
      }
      op.kind = u < rng + get ? kOpGet : (r.next_u64() & 1) ? kOpIns : kOpRem;
      op.lo = z ? zipf_map_[std::min<uint64_t>(z->next(), zipf_map_.size() - 1)]
                : static_cast<KeyT>(r.next_range(static_cast<uint64_t>(s_.keys)));
      op.width = 1;
    }
    return ops;
  }

  /// Scanner stream: RANGEs of scan_keys keys whose low bound is never
  /// on a shard boundary, so every scan spans two shards.
  std::vector<Op> scan_stream(uint64_t tag) const {
    Xoshiro256 r(mix_seed(s_.seed, tag));
    const int64_t shard_w = s_.keys / 4;
    std::vector<Op> ops(4096);
    for (Op& op : ops) {
      do {
        op.lo = static_cast<KeyT>(
            r.next_range(static_cast<uint64_t>(s_.keys - s_.scan_keys + 1)));
      } while (shard_w > 0 && op.lo % shard_w == 0);
      op.width = static_cast<uint32_t>(s_.scan_keys);
      op.kind = kOpRange;
    }
    return ops;
  }

  /// One stream per lane: `point_lanes` point streams, then the scanner's
  /// stream when the workload has one.
  Streams lane_streams(uint64_t tag, bool probe_range, int point_lanes) const {
    Streams v;
    for (int i = 0; i < point_lanes; ++i) v.push_back(point_stream(tag + i, probe_range));
    if (s_.has_scanner()) v.push_back(scan_stream(tag + point_lanes));
    return v;
  }

 private:
  static void shuffle(std::vector<KeyT>& v, uint64_t seed) {
    Xoshiro256 r(seed);
    for (size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[r.next_range(i)]);
  }

  Spec s_;
  std::vector<KeyT> prefill_;
  std::vector<KeyT> zipf_map_;
};

// ---------------------------------------------------------------------------
// Correctness tallies and checks.

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ok_ins = 0, ok_rem = 0, updates = 0;
  uint64_t range_replies = 0, range_items = 0;
  uint64_t get_hits = 0;

  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    ok_ins += o.ok_ins;
    ok_rem += o.ok_rem;
    updates += o.updates;
    range_replies += o.range_replies;
    range_items += o.range_items;
    get_hits += o.get_hits;
    return *this;
  }
};

std::mutex g_failures_mu;
std::vector<std::string> g_failures;  // first few failure messages

void note_failure(Tally& t, const std::string& what) {
  ++t.failed;
  std::lock_guard<std::mutex> g(g_failures_mu);
  if (g_failures.size() < 8) g_failures.push_back(what);
}

/// RANGE replies: keys strictly increasing, inside [lo, hi], values as
/// written, and a real timestamp.
bool range_ok(KeyT lo, KeyT hi, const std::vector<std::pair<KeyT, ValT>>& items,
              timestamp_t ts) {
  if (ts == RangeSnapshot::kNoTimestamp || ts == 0) return false;
  KeyT prev = lo;
  bool first = true;
  for (const auto& [k, v] : items) {
    if (k < lo || k > hi || (!first && k <= prev) || v != val_of(k)) return false;
    prev = k;
    first = false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans (traced run only).

enum SpanName : uint8_t {
  kSpanDs, kSpanApi, kSpanShard, kSpanWire, kSpanEncode, kSpanSend, kSpanDecode,
  kSpanNames
};
const char* const kSpanNameStr[kSpanNames] = {
    "ds.op", "api.op", "shard.op", "wire.request",
    "client.encode", "client.send", "client.decode"};

struct Span {
  uint64_t start, end;
  uint32_t id, parent;
  uint8_t name, cls, lane, pad;
};

struct SpanBuf {
  std::vector<Span> v;
  size_t cap = 0;
  size_t seen = 0;
  uint32_t next_id = 1;
  void init(size_t c) {
    cap = c;
    seen = 0;
    v.clear();
    v.reserve(c);
  }
  /// Record a span; `id` 0 takes the next id (a parent reserves its id
  /// up front with next_id++ so children can point at it).
  uint32_t add(uint8_t name, uint8_t cls, uint8_t lane, uint64_t t0, uint64_t t1,
               uint32_t parent = 0, uint32_t id = 0) {
    if (id == 0) id = next_id++;
    const Span sp{t0, t1, id, parent, name, cls, lane, 0};
    if (v.size() < cap) v.push_back(sp);
    else v[seen % cap] = sp;  // keep the latest `cap`: past warm-up
    ++seen;
    return id;
  }
};

std::vector<SpanBuf> g_spans;  // every finished buffer, written at exit

// ---------------------------------------------------------------------------
// Exact statistics.

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Mean of the values left after dropping the lowest and highest quarter
/// (at least one each side from 3 values up). Per-round values are often
/// bimodal (see run_e2e), where a median jumps between the modes and a
/// plain mean follows one outlier.
double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t trim = v.size() < 3 ? 0 : std::max<size_t>(1, v.size() / 4);
  return std::accumulate(v.begin() + static_cast<ptrdiff_t>(trim),
                         v.end() - static_cast<ptrdiff_t>(trim), 0.0) /
         static_cast<double>(v.size() - 2 * trim);
}

/// Log-linear latency histogram: 10 ns units, exact below 1.28 us, then
/// 64 buckets per power of two (each at most 1/64 of its value wide) up to
/// ~85 s. Every percentile is within 1% of the exact sample, far finer
/// than the tightest bound, and the histogram is 14 KB whatever the
/// throughput, so the driver's memory stays out of peak_rss_mb.
class LatHist {
 public:
  LatHist() : b_(kBuckets, 0) {}
  void add(uint64_t ns) {
    const uint64_t v = ns / kUnitNs;
    size_t i = v;
    if (v >= 2 * kSub) {
      const int e = 63 - __builtin_clzll(v) - kSubBits;  // >= 1
      i = 2 * kSub + static_cast<size_t>(e - 1) * kSub + ((v >> e) - kSub);
    }
    ++b_[std::min(i, kBuckets - 1)];
    ++n_;
  }
  void merge(const LatHist& o) {
    for (size_t i = 0; i < b_.size(); ++i) b_[i] += o.b_[i];
    n_ += o.n_;
  }
  uint64_t count() const { return n_; }
  /// q-quantile in microseconds (bucket midpoint); 0 when empty.
  double pct_us(double q) const {
    if (n_ == 0) return 0;
    const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(n_ - 1));
    uint64_t cum = 0;
    for (size_t i = 0; i < b_.size(); ++i) {
      cum += b_[i];
      if (cum > rank) {
        double lo = static_cast<double>(i), width = 1;
        if (i >= 2 * kSub) {
          const size_t e = (i - 2 * kSub) / kSub + 1;
          width = static_cast<double>(uint64_t{1} << e);
          lo = static_cast<double>((i - 2 * kSub) % kSub + kSub) * width;
        }
        return (lo + width / 2) * kUnitNs / 1e3;
      }
    }
    return 0;
  }

 private:
  static constexpr uint64_t kUnitNs = 10;
  static constexpr int kSubBits = 6;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kBuckets = 2 * kSub + 26 * kSub;
  std::vector<uint64_t> b_;
  uint64_t n_ = 0;
};

/// The traced run samples gauges this often during its in-process phase.
constexpr uint64_t kTickNs = 100'000'000;

// ---------------------------------------------------------------------------
// Output.

struct Out {
  std::map<std::string, double> metrics;
  std::map<std::string, double> diag;
  Tally tally;
};

// ---------------------------------------------------------------------------
// Prometheus text (METRICS op / obs::registry().prometheus()) parsing.

std::map<std::string, double> parse_prom(const std::string& text) {
  std::map<std::string, double> out;
  size_t p = 0;
  while (p < text.size()) {
    size_t e = text.find('\n', p);
    if (e == std::string::npos) e = text.size();
    std::string line = text.substr(p, e - p);
    p = e + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t ex = line.find(" # ");  // exemplar suffix
    if (ex != std::string::npos) line.resize(ex);
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

double prom_get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

/// Quantile of a log2 histogram over the samples recorded between scrapes
/// `a` and `b`. `labels` is the series' label set ("stage=\"queue\"" or "").
/// The exposition leaves empty buckets out, so a bucket missing from a
/// scrape holds the cumulative count of the nearest listed bucket below
/// it; the total comes from the _count series.
double prom_hist_quantile(const std::map<std::string, double>& a,
                          const std::map<std::string, double>& b,
                          const std::string& name, const std::string& labels,
                          double q) {
  const std::string pre = name + "_bucket{" + (labels.empty() ? "" : labels + ",") + "le=\"";
  auto buckets = [&](const std::map<std::string, double>& m) {
    std::vector<std::pair<double, double>> v;  // (le, cumulative), ascending le
    for (auto it = m.lower_bound(pre); it != m.end() && it->first.compare(0, pre.size(), pre) == 0; ++it) {
      const std::string le = it->first.substr(pre.size(), it->first.size() - pre.size() - 2);
      if (le != "+Inf") v.emplace_back(std::strtod(le.c_str(), nullptr), it->second);
    }
    std::sort(v.begin(), v.end());
    return v;
  };
  const auto ca = buckets(a), cb = buckets(b);
  const std::string count = name + "_count" + (labels.empty() ? "" : "{" + labels + "}");
  const double total = prom_get(b, count) - prom_get(a, count);
  if (cb.empty() || total <= 0) return 0;
  const double rank = q * total;
  double prev = 0, a_cum = 0;
  size_t j = 0;
  for (const auto& [le, b_cum] : cb) {
    while (j < ca.size() && ca[j].first <= le) a_cum = ca[j++].second;
    const double c = b_cum - a_cum;  // samples <= le recorded between the scrapes
    if (c >= rank && c > prev) {
      const double lo = le / 2;  // log2 bucket [2^(i-1), 2^i - 1]
      return lo + (le - lo) * (rank - prev) / (c - prev);
    }
    prev = c;
  }
  return cb.back().first;
}

/// Sum of every numeric value following "key": in a STATS document.
double stats_sum(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  double s = 0;
  for (size_t p = json.find(pat); p != std::string::npos; p = json.find(pat, p + 1))
    s += std::strtod(json.c_str() + p + pat.size(), nullptr);
  return s;
}

// ---------------------------------------------------------------------------
// Prefill (set-up) and in-process closed loop.

template <typename MakeSession>
void prefill(const std::vector<KeyT>& keys, MakeSession mk, Tally& t) {
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> th;
  const size_t n = static_cast<size_t>(kPrefillThreads);
  for (size_t i = 0; i < n; ++i)
    th.emplace_back([&, i] {
      auto sess = mk();
      const size_t lo = keys.size() * i / n, hi = keys.size() * (i + 1) / n;
      for (size_t j = lo; j < hi; ++j)
        if (!sess.insert(keys[j], val_of(keys[j])))
          bad.fetch_add(1, std::memory_order_relaxed);
    });
  for (auto& x : th) x.join();
  t.attempted += 1;
  if (bad.load() != 0) note_failure(t, "prefill: duplicate insert");
}

struct alignas(64) AppLane {
  std::atomic<uint64_t> done{0};  // point ops (scans on the scanner lane)
  std::atomic<uint64_t> keys{0};  // keys returned (see keys_are_get_hits)
  Tally t;
  SpanBuf spans;
};

struct AppResult {
  double ops_s = 0, keys_s = 0;  // over the measured window
  Tally t;
};

template <bool kTraced, typename Sess>
void app_lane(Sess& s, const std::vector<Op>& ops, bool get_keys, AppLane& L,
              uint8_t lane, uint8_t span_name, const std::atomic<bool>& stop) {
  RangeSnapshot snap;
  size_t i = 0;
  uint64_t done = 0, keys = 0;
  Tally& t = L.t;
  while (!stop.load(std::memory_order_relaxed)) {
    const Op& op = ops[i];
    if (++i == ops.size()) i = 0;
    const uint64_t t0 = kTraced ? now_ns() : 0;
    switch (op.kind) {
      case kOpGet: {
        ValT v{};
        if (s.contains(op.lo, &v)) {
          keys += get_keys ? 1 : 0;
          ++t.get_hits;
          if (v != val_of(op.lo)) note_failure(t, "embedded get: wrong value");
        }
        break;
      }
      case kOpIns:
        ++t.updates;
        t.ok_ins += s.insert(op.lo, val_of(op.lo)) ? 1 : 0;
        break;
      case kOpRem:
        ++t.updates;
        t.ok_rem += s.remove(op.lo) ? 1 : 0;
        break;
      default:
        s.range_query(op.lo, op.hi(), snap);
        ++t.range_replies;
        t.range_items += snap.size();
        keys += get_keys ? 0 : snap.size();
        if (!range_ok(op.lo, op.hi(), snap.items(), snap.timestamp()))
          note_failure(t, "embedded range: bad snapshot");
    }
    if constexpr (kTraced) L.spans.add(span_name, cls_of(op.kind), lane, t0, now_ns());
    ++t.attempted;
    L.done.store(++done, std::memory_order_relaxed);
    L.keys.store(keys, std::memory_order_relaxed);
  }
}

/// Closed loop on the point lanes (+ a scanner lane when the workload has
/// one), lane i replaying streams[i], for `secs`, the first tenth (at most
/// 0.5 s) unmeasured. `on_tick`, if set, runs on the calling thread every
/// kTickNs of the measured window.
template <bool kTraced, typename MakeSession>
AppResult run_app(const Spec& s, const Streams& streams, MakeSession mk, double secs,
                  uint8_t span_name, const std::function<void()>& on_tick = {}) {
  const int n = static_cast<int>(streams.size());
  std::vector<std::unique_ptr<AppLane>> lanes;
  for (int i = 0; i < n; ++i) {
    lanes.push_back(std::make_unique<AppLane>());
    if (kTraced) lanes.back()->spans.init(i < kAppThreads ? 50'000 : 5'000);
  }
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::vector<std::thread> th;
  for (int i = 0; i < n; ++i)
    th.emplace_back([&, i] {
      auto sess = mk();
      ready.fetch_add(1);
      app_lane<kTraced>(sess, streams[static_cast<size_t>(i)], s.keys_are_get_hits(),
                        *lanes[static_cast<size_t>(i)], static_cast<uint8_t>(i), span_name, stop);
    });
  while (ready.load() < n) std::this_thread::yield();
  const double warm = std::min(0.5, secs * 0.1);
  sleep_until_ns(now_ns() + static_cast<uint64_t>(warm * 1e9));
  auto snap = [&](uint64_t* ops, uint64_t* keys) {
    *ops = *keys = 0;
    for (int i = 0; i < n; ++i) {
      if (i < kAppThreads) *ops += lanes[static_cast<size_t>(i)]->done.load();
      *keys += lanes[static_cast<size_t>(i)]->keys.load();
    }
  };
  uint64_t o0, k0, o1, k1;
  const uint64_t t0 = now_ns();
  snap(&o0, &k0);
  const uint64_t end = t0 + static_cast<uint64_t>((secs - warm) * 1e9);
  if (on_tick)
    for (uint64_t ts = t0 + kTickNs; ts <= end; ts += kTickNs) {
      sleep_until_ns(ts);
      on_tick();
    }
  sleep_until_ns(end);
  snap(&o1, &k1);
  const double dt = (now_ns() - t0) / 1e9;
  stop.store(true);
  for (auto& x : th) x.join();
  AppResult r;
  r.ops_s = (o1 - o0) / dt;
  r.keys_s = (k1 - k0) / dt;
  for (auto& l : lanes) {
    r.t += l->t;
    if (kTraced) g_spans.push_back(std::move(l->spans));
  }
  return r;
}

// ---------------------------------------------------------------------------
// Wire driver: one thread, several connections, raw frames.

struct Pending {
  Op op;
  uint64_t sched;       // scheduled send (paced) or actual send (closed)
  uint64_t sent;
  uint64_t first_byte;  // first reply byte seen
  uint32_t span;
};

struct WConn {
  explicit WConn(uint16_t port) : cli(port) { rbuf.resize(size_t{1} << 16); }
  net::Client cli;
  bool scanner = false;
  uint8_t lane = 0;
  const std::vector<Op>* ops = nullptr;
  size_t pos = 0;
  std::deque<Pending> q;
  std::vector<uint8_t> rbuf;
  size_t rlen = 0;
  std::vector<uint8_t> wbuf;
  size_t unflushed = 0;
};

struct WireResult {
  uint64_t ops = 0;       // point replies completed in the measured window
  uint64_t keys = 0;      // keys returned in the window (see keys_are_get_hits)
  double secs = 0;        // the measured window
  LatHist lat[kClasses];  // point lanes, window only
  LatHist late;           // paced: send lateness
  LatHist ttfb;           // RANGE time to first reply byte
  uint64_t sent = 0, shed = 0, ok_replies = 0;
  Tally t;
};

class WireDriver {
 public:
  WireDriver(const Spec& s, uint16_t port) : s_(s) {
    for (int i = 0; i < kConns; ++i) {
      conns_.push_back(std::make_unique<WConn>(port));
      conns_.back()->lane = static_cast<uint8_t>(i);
      conns_.back()->scanner = s.has_scanner() && i == kConns - 1;
    }
  }

  /// Connection i replays streams[i] (from Workload::lane_streams with
  /// point_conns() point lanes); `streams` must outlive the phases.
  void load_streams(const Streams& streams) {
    for (auto& c : conns_) {
      c->ops = &streams[c->lane];
      c->pos = 0;
    }
  }

  /// Closed loop: `window` requests in flight per point connection, 1 on
  /// the scanner. With `traced`, spans go to `spans` (capped).
  WireResult closed(int window, double secs, bool traced, SpanBuf* spans) {
    WireResult r;
    traced_ = traced;
    spans_ = spans;
    const uint64_t t0 = now_ns();
    const double warm = std::min(0.5, secs * 0.1);
    m0_ = t0 + static_cast<uint64_t>(warm * 1e9);
    end_ = t0 + static_cast<uint64_t>(secs * 1e9);
    r.secs = (end_ - m0_) / 1e9;
    paced_ = false;
    for (auto& c : conns_) {
      const int w = c->scanner ? 1 : window;
      for (int i = 0; i < w; ++i) issue(*c, 0, r);
      flush(*c, r);
    }
    while (now_ns() < end_) {
      wait_readable(end_, r);
      for (auto& c : conns_) flush(*c, r);
    }
    drain(r);
    return r;
  }

  /// Open loop at `rate` ops/s over the point connections (round-robin)
  /// and `scan_rate` scans/s on the scanner (if any), each request timed
  /// from its scheduled send.
  WireResult paced(double rate, double scan_rate, double secs) {
    WireResult r;
    traced_ = false;
    spans_ = nullptr;
    paced_ = true;
    const uint64_t t0 = now_ns();
    const double warm = std::min(0.5, secs * 0.1);
    m0_ = t0 + static_cast<uint64_t>(warm * 1e9);
    end_ = t0 + static_cast<uint64_t>(secs * 1e9);
    r.secs = (end_ - m0_) / 1e9;
    const double interval = 1e9 / rate;
    const double scan_interval = scan_rate > 0 ? 1e9 / scan_rate : 0;
    const double stop = static_cast<double>(end_);
    double next = static_cast<double>(t0);
    double next_scan = scan_interval > 0 ? next : stop;
    size_t rr = 0;
    const size_t np = static_cast<size_t>(s_.point_conns());
    for (;;) {
      // Everything due is sent now, one write per connection; a generator
      // that fell behind catches up instead of paying a write per request.
      const uint64_t now = now_ns();
      for (; next <= static_cast<double>(now) && next < stop; next += interval) {
        issue(*conns_[rr], static_cast<uint64_t>(next), r);
        rr = (rr + 1) % np;
      }
      for (; next_scan <= static_cast<double>(now) && next_scan < stop; next_scan += scan_interval)
        issue(*conns_.back(), static_cast<uint64_t>(next_scan), r);
      for (auto& c : conns_) flush(*c, r);
      if (next >= stop && now >= end_) break;
      wait_readable(static_cast<uint64_t>(std::min({next, next_scan, stop})), r);
    }
    drain(r);
    return r;
  }

  /// Quiescent whole-keyspace read in RANGE pieces (each wider than the
  /// server's scan chunk, so the guard's chunked path serves them).
  uint64_t count_keys(Tally& t) {
    uint64_t n = 0;
    RangeSnapshot snap;
    const int64_t piece = 65536;
    for (int64_t lo = 0; lo < s_.keys; lo += piece) {
      const int64_t hi = std::min(s_.keys, lo + piece) - 1;
      conns_[0]->cli.range(lo, hi, snap);
      ++t.attempted;
      if (!range_ok(lo, hi, snap.items(), snap.timestamp()))
        note_failure(t, "size-check range: bad snapshot");
      n += snap.size();
    }
    return n;
  }

  net::Client& client() { return conns_[0]->cli; }

 private:
  void issue(WConn& c, uint64_t sched, WireResult& r) {
    const Op& op = (*c.ops)[c.pos];
    if (++c.pos == c.ops->size()) c.pos = 0;
    const uint64_t e0 = traced_ ? now_ns() : 0;
    switch (op.kind) {
      case kOpGet: net::encode_get(c.wbuf, op.lo); break;
      case kOpIns: net::encode_insert(c.wbuf, op.lo, val_of(op.lo)); break;
      case kOpRem: net::encode_remove(c.wbuf, op.lo); break;
      default: net::encode_range(c.wbuf, op.lo, op.hi());
    }
    uint32_t id = 0;
    if (traced_) {
      const uint64_t e1 = now_ns();
      id = spans_->next_id++;
      spans_->add(kSpanEncode, cls_of(op.kind), c.lane, e0, e1, id);
    }
    c.q.push_back({op, sched, 0, 0, id});
    ++c.unflushed;
    ++r.sent;
    ++r.t.attempted;
  }

  void flush(WConn& c, WireResult& r) {
    if (c.unflushed == 0) return;
    const uint64_t t0 = now_ns();
    c.cli.write_all(c.wbuf.data(), c.wbuf.size());
    const uint64_t t1 = traced_ ? now_ns() : 0;
    for (auto it = c.q.end() - static_cast<ptrdiff_t>(c.unflushed); it != c.q.end(); ++it) {
      it->sent = t0;
      if (!paced_) it->sched = t0;
      else if (it->sched >= m0_) r.late.add(t0 - it->sched);
    }
    if (traced_) {
      // One send span per write, parented on the write's last request;
      // `cls` carries the number of frames in the write (capped at 255).
      spans_->add(kSpanSend, static_cast<uint8_t>(std::min<size_t>(c.unflushed, 255)),
                  c.lane, t0, t1, c.q.back().span);
      send_per_frame_.push_back((t1 - t0) / static_cast<double>(c.unflushed));
    }
    c.unflushed = 0;
    c.wbuf.clear();
  }

  /// Poll until a connection is readable or `until` (ns) passes, then
  /// consume everything readable. The generator spins on its own core
  /// instead of sleeping: a sleeping virtual CPU can take milliseconds to
  /// be woken, which shows up as generator lateness and as latency.
  void wait_readable(uint64_t until, WireResult& r) {
    pf_.clear();
    for (auto& c : conns_) pf_.push_back({c->cli.fd(), POLLIN, 0});
    const timespec zero{0, 0};
    for (;;) {
      const int n = ::ppoll(pf_.data(), pf_.size(), &zero, nullptr);
      if (n < 0 && errno != EINTR) throw net::NetError(net::NetErrorKind::kIo, "ppoll");
      if (n > 0) break;
      if (now_ns() >= until) return;
    }
    for (size_t i = 0; i < pf_.size(); ++i)
      if (pf_[i].revents != 0) read_conn(*conns_[i], r);
  }

  void read_conn(WConn& c, WireResult& r) {
    for (;;) {
      if (c.rlen == c.rbuf.size()) c.rbuf.resize(c.rbuf.size() * 2);
      const ssize_t n = ::recv(c.cli.fd(), c.rbuf.data() + c.rlen,
                               c.rbuf.size() - c.rlen, MSG_DONTWAIT);
      if (n == 0) throw net::NetError(net::NetErrorKind::kEof, "server closed");
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        throw net::NetError(net::NetErrorKind::kIo, std::strerror(errno));
      }
      const uint64_t t = now_ns();
      c.rlen += static_cast<size_t>(n);
      size_t off = 0;
      for (;;) {
        net::FrameView f;
        size_t adv = 0;
        const uint64_t d0 = traced_ ? now_ns() : 0;
        if (net::split_frame(c.rbuf.data(), c.rlen, off, net::kLenMask, &f, &adv) !=
            net::SplitResult::kFrame)
          break;
        if (c.q.empty()) throw net::NetError(net::NetErrorKind::kProtocol, "unsolicited reply");
        Pending p = c.q.front();
        c.q.pop_front();
        if (p.first_byte == 0) p.first_byte = t;
        const bool decoded = net::decode_reply(static_cast<net::Op>(wire_op(p.op.kind)), f, &reply_);
        if (traced_) spans_->add(kSpanDecode, cls_of(p.op.kind), c.lane, d0, now_ns(), p.span);
        off += adv;
        complete(c, p, decoded, t, r);
      }
      if (off > 0) {
        std::memmove(c.rbuf.data(), c.rbuf.data() + off, c.rlen - off);
        c.rlen -= off;
      }
      if (c.rlen > 0 && !c.q.empty() && c.q.front().first_byte == 0)
        c.q.front().first_byte = t;
    }
  }

  static uint8_t wire_op(uint8_t kind) {
    switch (kind) {
      case kOpGet: return static_cast<uint8_t>(net::Op::kGet);
      case kOpIns: return static_cast<uint8_t>(net::Op::kInsert);
      case kOpRem: return static_cast<uint8_t>(net::Op::kRemove);
      default: return static_cast<uint8_t>(net::Op::kRange);
    }
  }

  void complete(WConn& c, const Pending& p, bool decoded, uint64_t t, WireResult& r) {
    const net::Reply& rep = reply_;
    const Cls cls = cls_of(p.op.kind);
    bool ok = decoded;
    uint64_t keys = 0;
    if (!decoded) {
      note_failure(r.t, "reply does not decode for its op class");
    } else if (rep.overloaded()) {
      ++r.shed;
      ok = false;
      note_failure(r.t, "shed reply");
    } else if (rep.status != net::Status::kOk && rep.status != net::Status::kNo) {
      ok = false;
      note_failure(r.t, std::string("error reply: ") + net::to_string(rep.status));
    } else {
      switch (p.op.kind) {
        case kOpGet:
          if (rep.ok()) {
            keys = s_.keys_are_get_hits() ? 1 : 0;
            ++r.t.get_hits;
            if (rep.val != val_of(p.op.lo)) note_failure(r.t, "get: wrong value");
          }
          break;
        case kOpIns:
          ++r.t.updates;
          r.t.ok_ins += rep.ok() ? 1 : 0;
          break;
        case kOpRem:
          ++r.t.updates;
          r.t.ok_rem += rep.ok() ? 1 : 0;
          break;
        default:
          ++r.t.range_replies;
          r.t.range_items += rep.items.size();
          keys = s_.keys_are_get_hits() ? 0 : rep.items.size();
          if (!rep.ok() || !range_ok(p.op.lo, p.op.hi(), rep.items, rep.ts))
            note_failure(r.t, "range: bad snapshot");
      }
    }
    if (ok) ++r.ok_replies;
    if (traced_) spans_->add(kSpanWire, cls, c.lane, p.sent, t, 0, p.span);
    if (t >= m0_ && t <= end_) {
      if (!c.scanner) ++r.ops;
      r.keys += keys;
    }
    if (p.sched >= m0_ && p.sched <= end_) {
      if (!c.scanner) r.lat[cls].add(t - p.sched);
      if (cls == kClsRange) r.ttfb.add(p.first_byte - p.sent);
    }
    // Closed loop: replace the request.
    if (!paced_ && t < end_) issue(c, 0, r);
  }

  /// Stop issuing, collect every outstanding reply (2 s budget); anything
  /// still missing is a straggler and counts as failed.
  void drain(WireResult& r) {
    const uint64_t deadline = now_ns() + 2'000'000'000ull;
    auto pending = [&] {
      size_t n = 0;
      for (auto& c : conns_) n += c->q.size();
      return n;
    };
    while (pending() > 0 && now_ns() < deadline) wait_readable(deadline, r);
    for (auto& c : conns_) {
      for (size_t i = 0; i < c->q.size(); ++i) note_failure(r.t, "straggler");
      c->q.clear();
      c->rlen = 0;
      c->unflushed = 0;
      c->wbuf.clear();
    }
  }

 public:
  std::vector<double> send_per_frame_;

 private:
  const Spec& s_;
  std::vector<std::unique_ptr<WConn>> conns_;
  net::Reply reply_;
  std::vector<pollfd> pf_;
  bool traced_ = false, paced_ = false;
  SpanBuf* spans_ = nullptr;
  uint64_t m0_ = 0, end_ = 0;
};

// ---------------------------------------------------------------------------
// CPU placement for the wire phases: the load generator (the calling
// thread) gets a core of its own, as on a separate client machine, so its
// send schedule does not queue behind the server's threads. The server's
// workers, acceptor and maintenance threads, and the prefill threads,
// inherit the other cores from the thread that creates them. In-process
// phases run unpinned. With fewer than 3 cores nothing is pinned.

class CpuPlan {
 public:
  CpuPlan() {
    CPU_ZERO(&all_);
    CPU_ZERO(&rest_);
    CPU_ZERO(&gen_);
    if (::sched_getaffinity(0, sizeof all_, &all_) != 0 || CPU_COUNT(&all_) < 3) return;
    int first = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) {
        if (first < 0) first = c, CPU_SET(c, &gen_);
        else CPU_SET(c, &rest_);
      }
    usable_ = true;
  }
  void server_side() { pin(rest_); }
  void generator() { pin(gen_); }
  void unpinned() { pin(all_); }

 private:
  void pin(const cpu_set_t& set) {
    if (usable_) ::sched_setaffinity(0, sizeof set, &set);
  }
  cpu_set_t all_, rest_, gen_;
  bool usable_ = false;
};

/// Hand freed memory back to the OS, so an RSS reading counts memory still
/// held, not free memory malloc cached, and a destroyed stack's memory is
/// not still resident when the next one is built.
void release_memory() { ::malloc_trim(0); }

/// Resident set size now, in MB (the unit of ru_maxrss / 1024).
double rss_mb() {
  long size = 0, resident = 0;
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f != nullptr) {
    if (std::fscanf(f, "%ld %ld", &size, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Stack construction, mirroring net::Server.

net::ServerOptions server_options(const Spec& s) {
  net::ServerOptions o;
  o.workers = kWorkers;
  o.key_lo = 0;
  o.key_hi = s.keys;
  return o;
}

std::unique_ptr<ShardedSet> make_sharded(const Spec& s) {
  const net::ServerOptions so = server_options(s);
  ImplDescriptor desc;
  if (!ImplRegistry::instance().find(so.impl, &desc))
    throw std::runtime_error("unknown implementation " + so.impl);
  ShardOptions o;
  o.shards = so.shards;
  o.key_lo = so.key_lo;
  o.key_hi = so.key_hi;
  o.inner = SetOptions{.reclaim = desc.caps.reclamation};
  return std::make_unique<ShardedSet>(so.impl, o);
}

void check_size(const char* where, uint64_t got, int64_t expected, Tally& t) {
  ++t.attempted;
  if (static_cast<int64_t>(got) != expected)
    note_failure(t, std::string(where) + ": size " + std::to_string(got) +
                        " != expected " + std::to_string(expected));
}

int64_t live_after(int64_t before, const Tally& t) {
  return before + static_cast<int64_t>(t.ok_ins) - static_cast<int64_t>(t.ok_rem);
}

double secs_since(uint64_t t0) { return (now_ns() - t0) / 1e9; }

void merge_lat(LatHist& dst, const WireResult& r) {
  for (const LatHist& h : r.lat) dst.merge(h);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end rounds.

void run_e2e(const Spec& s, const Workload& w, Out& out) {
  const int R = std::max(1, s.rounds);
  const double per = s.seconds / R;
  // The paced phase feeds diagnostics and the lateness check only, so the
  // peak phase, the least steady metric source, gets the larger share.
  const double t_peak = per * 0.5, t_paced = per * 0.2, t_emb = per * 0.3;
  const int64_t prefilled = static_cast<int64_t>(w.prefill().size());
  std::vector<double> setup;
  // Every round replays the same operation streams on a freshly built and
  // prefilled stack, and each metric is the trimmed mean of its per-round
  // values: the server's threads land on cores differently in each
  // instance (two workers sharing one core roughly halves wire
  // throughput), so per-round values scatter between modes.
  const Streams closed_st = w.lane_streams(1000, false, s.point_conns());
  const Streams paced_st = w.lane_streams(1100, false, s.point_conns());
  const Streams app_st = w.lane_streams(1200, false, kAppThreads);
  // peak_rss_mb: the highest RSS sampled at the end of each phase of the
  // first stack (round 0's server), above the RSS just before it is built,
  // when the driver already holds its inputs. Later stacks are left out:
  // memory a destroyed stack leaves behind (pooled entries, allocator
  // caches) builds up over the rounds by amounts that vary from run to
  // run, which a server running one stack does not see.
  release_memory();
  const double rss_base = rss_mb();
  double rss_peak = 0;
  LatHist peak_lat, paced_lat, late_all;  // pooled, for the tail diagnostics
  std::vector<double> peak_ops, peak_keys, peak_p50, peak_p90, paced_p50, emb_ops, emb_keys;
  Tally& T = out.tally;
  CpuPlan cpu;
  for (int round = 0; round < R; ++round) {
    double setup_round = 0;
    auto rss_sample = [&] {
      if (round == 0) rss_peak = std::max(rss_peak, rss_mb() - rss_base);
    };
    {
      cpu.server_side();
      const uint64_t s0 = now_ns();
      net::Server srv(server_options(s));
      srv.start();
      prefill(w.prefill(), [&] { return ThreadSession(srv.set()); }, T);
      setup_round += secs_since(s0);
      rss_sample();
      cpu.generator();
      WireDriver d(s, srv.port());
      d.load_streams(closed_st);
      WireResult pk = d.closed(kWindow, t_peak, false, nullptr);
      rss_sample();
      T += pk.t;
      peak_ops.push_back(pk.ops / pk.secs);
      peak_keys.push_back(pk.keys / pk.secs);
      out.diag["peak_ops_s.round" + std::to_string(round)] = peak_ops.back();
      {
        LatHist round_lat;
        merge_lat(round_lat, pk);
        peak_p50.push_back(round_lat.pct_us(0.5));
        peak_p90.push_back(round_lat.pct_us(0.9));
        peak_lat.merge(round_lat);
      }
      d.load_streams(paced_st);
      WireResult pc = d.paced(s.rate, s.scan_rate, t_paced);
      rss_sample();
      T += pc.t;
      late_all.merge(pc.late);
      // A paced phase is valid only if the generator kept its schedule; an
      // invalid one reports no latency (a host stall of tens of ms on the
      // generator's core invalidates a phase now and then).
      const double late_p99 = pc.late.pct_us(0.99);
      if (late_p99 <= kLateBoundUs) {
        LatHist round_lat;
        merge_lat(round_lat, pc);
        paced_p50.push_back(round_lat.pct_us(0.5));
        paced_lat.merge(round_lat);
        out.diag["paced_p50_us.round" + std::to_string(round)] = paced_p50.back();
      } else {
        out.diag["paced_invalid_late_p99_us.round" + std::to_string(round)] = late_p99;
      }
      const int64_t expect = live_after(live_after(prefilled, pk.t), pc.t) + s.break_size;
      check_size("wire size check", d.count_keys(T), expect, T);
      rss_sample();
      srv.stop();
    }
    cpu.unpinned();
    release_memory();
    {
      const uint64_t s0 = now_ns();
      auto set = make_sharded(s);
      MaintenanceService maint(*set, server_options(s).maint);
      maint.start();
      prefill(w.prefill(), [&] { return ThreadSession(*set); }, T);
      setup_round += secs_since(s0);
      AppResult a = run_app<false>(s, app_st, [&] { return ThreadSession(*set); }, t_emb, 0);
      T += a.t;
      emb_ops.push_back(a.ops_s);
      emb_keys.push_back(a.keys_s);
      out.diag["embedded_ops_s.round" + std::to_string(round)] = emb_ops.back();
      maint.stop();
      check_size("embedded size check", set->size_slow(), live_after(prefilled, a.t) + s.break_size, T);
      ++T.attempted;
      if (!set->check_invariants()) note_failure(T, "embedded check_invariants");
    }
    release_memory();
    setup.push_back(setup_round);
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto& m = out.metrics;
  m["setup_s"] = median(setup);
  m["peak_ops_s"] = trimmed_mean(peak_ops);
  m["peak_p50_us"] = trimmed_mean(peak_p50);
  m["scan_keys_s"] = trimmed_mean(peak_keys);
  m["embedded_ops_s"] = trimmed_mean(emb_ops);
  m["embedded_keys_s"] = trimmed_mean(emb_keys);
  m["peak_rss_mb"] = rss_peak;
  auto& dg = out.diag;
  // p90 and the paced median are diagnostics: on a shared 4-vCPU VM they
  // did not repeat within the widest bound a metric may have (spec.json).
  dg["peak_p90_us"] = trimmed_mean(peak_p90);
  dg["peak_samples"] = static_cast<double>(peak_lat.count());
  dg["peak_p99_us"] = peak_lat.pct_us(0.99);
  dg["peak_p999_us"] = peak_lat.pct_us(0.999);
  dg["paced_rate_ops_s"] = s.rate;
  dg["paced_samples"] = static_cast<double>(paced_lat.count());
  dg["paced_p99_us"] = paced_lat.pct_us(0.99);
  dg["gen_late_p50_us"] = late_all.pct_us(0.5);
  dg["gen_late_p99_us"] = late_all.pct_us(0.99);
  dg["gen_late_samples"] = static_cast<double>(late_all.count());
  // Only valid paced phases count; with none (a saturated generator falls
  // behind in every round) there is no paced latency at all, and the run fails.
  dg["paced_valid_rounds"] = static_cast<double>(paced_p50.size());
  if (!paced_p50.empty())
    dg["paced_p50_us"] = trimmed_mean(paced_p50);
  else
    note_failure(T, "paced run invalid: generator lateness p99 over the bound in every round");
  for (size_t i = 0; i < setup.size(); ++i)
    dg["setup_s.round" + std::to_string(i)] = setup[i];
  dg["process_peak_rss_mb"] = ru.ru_maxrss / 1024.0;
  dg["driver_base_rss_mb"] = rss_base;
}

// ---------------------------------------------------------------------------
// --trace 1: traced run (ladder + counters).

struct ClassMedians {
  double v[kClasses] = {};
  uint64_t n[kClasses] = {};
};

/// Per-class median duration (ns) of spans named `name` recorded since
/// buffer index `from` of g_spans.
ClassMedians span_medians(size_t from, uint8_t name) {
  std::vector<double> d[kClasses];
  for (size_t b = from; b < g_spans.size(); ++b)
    for (const Span& sp : g_spans[b].v)
      if (sp.name == name && sp.cls < kClasses)
        d[sp.cls].push_back(static_cast<double>(sp.end - sp.start));
  ClassMedians m;
  for (int c = 0; c < kClasses; ++c) {
    m.n[c] = d[c].size();
    m.v[c] = median(std::move(d[c]));
  }
  return m;
}

double span_median_named(size_t from, uint8_t name) {
  std::vector<double> d;
  for (size_t b = from; b < g_spans.size(); ++b)
    for (const Span& sp : g_spans[b].v)
      if (sp.name == name) d.push_back(static_cast<double>(sp.end - sp.start));
  return median(std::move(d));
}

void put_rung(Out& out, const std::string& layer, const ClassMedians& m) {
  for (int c = 0; c < kClasses; ++c) {
    out.metrics[layer + "." + kClsName[c] + "_ns"] = m.v[c];
    out.diag[layer + "." + kClsName[c] + "_samples"] = static_cast<double>(m.n[c]);
  }
}

void run_traced(const Spec& s, const Workload& w, Out& out) {
  const double T = s.seconds / 8.0;  // 7 ladder/overhead phases + paced
  const int64_t prefilled = static_cast<int64_t>(w.prefill().size());
  Tally& TT = out.tally;
  auto& m = out.metrics;
  auto& dg = out.diag;
  // Every ladder rung replays the stream `tag` from a freshly prefilled
  // state, or from prefill plus churn drawn from other streams of the same
  // mix (never a replay of ops the structure already applied).
  const uint64_t tag = 50'000;

  // -- wire: untraced vs traced peak, paced lateness, window-1 wire rung.
  double peak_untraced = 0, peak_traced = 0;
  ClassMedians wire_rung;
  CpuPlan cpu;
  {
    cpu.server_side();
    net::Server srv(server_options(s));
    srv.start();
    prefill(w.prefill(), [&] { return ThreadSession(srv.set()); }, TT);
    cpu.generator();
    WireDriver d(s, srv.port());
    int64_t live = prefilled;
    const Streams u_st = w.lane_streams(tag + 300, true, s.point_conns());
    d.load_streams(u_st);
    WireResult u = d.closed(kWindow, T, false, nullptr);
    TT += u.t;
    live = live_after(live, u.t);
    peak_untraced = u.ops / u.secs;

    const std::string st0 = d.client().stats();
    const auto pm0 = parse_prom(d.client().metrics());
    g_spans.emplace_back();
    g_spans.back().init(150'000);
    const size_t traced_buf = g_spans.size() - 1;
    const Streams tr_st = w.lane_streams(tag + 400, true, s.point_conns());
    d.load_streams(tr_st);
    WireResult tr = d.closed(kWindow, T, true, &g_spans.back());
    const std::string st1 = d.client().stats();
    const auto pm1 = parse_prom(d.client().metrics());
    TT += tr.t;
    live = live_after(live, tr.t);
    peak_traced = tr.ops / tr.secs;
    const double frames = stats_sum(st1, "frames") - stats_sum(st0, "frames");
    const double batches = stats_sum(st1, "batches") - stats_sum(st0, "batches");
    m["net.frames_per_batch"] = batches > 0 ? frames / batches : 0;
    m["net.bytes_out_per_op"] =
        frames > 0 ? (stats_sum(st1, "bytes_out") - stats_sum(st0, "bytes_out")) / frames : 0;
    m["net.chunked_rqs"] = stats_sum(st1, "chunked_rqs") - stats_sum(st0, "chunked_rqs");
    m["net.scan_slices"] = stats_sum(st1, "scan_slices") - stats_sum(st0, "scan_slices");
    dg["wire.coordinated_rqs"] = stats_sum(st1, "coordinated_rqs") - stats_sum(st0, "coordinated_rqs");
    dg["wire.single_shard_rqs"] = stats_sum(st1, "single_shard_rqs") - stats_sum(st0, "single_shard_rqs");
    const char* stages[3] = {"queue", "execute", "flush"};
    for (const char* st : stages)
      m[std::string("net.") + st + "_p50_us"] =
          1e6 * prom_hist_quantile(pm0, pm1, "bref_net_stage_seconds",
                                   std::string("stage=\"") + st + "\"", 0.5);
    m["net.shed_frac"] = tr.sent > 0 ? static_cast<double>(tr.shed) / tr.sent : 0;
    m["net.ok_frac"] = tr.sent > 0 ? static_cast<double>(tr.ok_replies) / tr.sent : 0;
    m["client.encode_ns"] = span_median_named(traced_buf, kSpanEncode);
    m["client.decode_ns"] = span_median_named(traced_buf, kSpanDecode);
    m["client.send_ns"] = median(d.send_per_frame_);
    m["ds.keys_per_rq"] = tr.t.range_replies > 0
                              ? static_cast<double>(tr.t.range_items) / tr.t.range_replies : 0;
    m["ds.update_effective_frac"] =
        tr.t.updates > 0 ? static_cast<double>(tr.t.ok_ins + tr.t.ok_rem) / tr.t.updates : 0;

    const Streams pc_st = w.lane_streams(tag + 100, true, s.point_conns());
    d.load_streams(pc_st);
    WireResult pc = d.paced(s.rate, s.scan_rate, T);
    TT += pc.t;
    live = live_after(live, pc.t);
    m["gen.late_p50_us"] = pc.late.pct_us(0.5);
    m["gen.late_p99_us"] = pc.late.pct_us(0.99);
    dg["gen.late_samples"] = static_cast<double>(pc.late.count());

    g_spans.emplace_back();
    g_spans.back().init(150'000);
    const size_t rung_buf = g_spans.size() - 1;
    const Streams wr_st = w.lane_streams(tag, true, s.point_conns());
    d.load_streams(wr_st);
    WireResult wr = d.closed(1, T, true, &g_spans.back());
    TT += wr.t;
    live = live_after(live, wr.t);
    wire_rung = span_medians(rung_buf, kSpanWire);
    m["net.range_ttfb_us"] = wr.ttfb.pct_us(0.5);
    dg["net.range_ttfb_samples"] = static_cast<double>(wr.ttfb.count());
    check_size("wire size check", d.count_keys(TT), live + s.break_size, TT);
    srv.stop();
  }
  cpu.unpinned();
  release_memory();

  // -- in-process ShardedSet: untraced embedded, then the traced shard rung
  //    with every counter delta taken around it.
  double emb_untraced = 0, emb_traced = 0;
  ClassMedians shard_rung;
  {
    auto set = make_sharded(s);
    MaintenanceService maint(*set, server_options(s).maint);
    maint.start();
    prefill(w.prefill(), [&] { return ThreadSession(*set); }, TT);
    auto mk = [&] { return ThreadSession(*set); };
    int64_t live = prefilled;
    AppResult u = run_app<false>(s, w.lane_streams(tag + 300, true, kAppThreads), mk, T, kSpanShard);
    TT += u.t;
    live = live_after(live, u.t);
    emb_untraced = u.ops_s;

    auto maint_sum = [&] {
      ShardMaintenanceStats a;
      for (size_t i = 0; i < maint.workers(); ++i) {
        const ShardMaintenanceStats x = maint.stats(i);
        a.passes += x.passes;
        a.bundle_entries_pruned += x.bundle_entries_pruned;
        a.backlog += x.backlog;
      }
      return a;
    };
    const ShardedSetStats ss0 = set->stats();
    const ShardMaintenanceStats ms0 = maint_sum();
    const EntryPoolStats ps0 = EntryPoolRegistry::instance().totals();
    const auto pm0 = parse_prom(obs::registry().prometheus());
    std::vector<double> limbo, lag, backlog;
    const size_t from = g_spans.size();
    AppResult tr = run_app<true>(s, w.lane_streams(tag, true, kAppThreads), mk, T, kSpanShard, [&] {
      const auto pm = parse_prom(obs::registry().prometheus());
      limbo.push_back(prom_get(pm, "bref_epoch_limbo_objects"));
      lag.push_back(prom_get(pm, "bref_epoch_lag"));
      backlog.push_back(static_cast<double>(maint_sum().backlog));
    });
    const auto pm1 = parse_prom(obs::registry().prometheus());
    EntryPoolStats ps = EntryPoolRegistry::instance().totals();
    ps -= ps0;
    const ShardMaintenanceStats ms1 = maint_sum();
    const ShardedSetStats ss1 = set->stats();
    TT += tr.t;
    live = live_after(live, tr.t);
    emb_traced = tr.ops_s;
    shard_rung = span_medians(from, kSpanShard);
    const double coord = static_cast<double>(ss1.coordinated_rqs - ss0.coordinated_rqs);
    m["shard.coordinated_rqs"] = coord;
    m["shard.single_shard_rqs"] = static_cast<double>(ss1.single_shard_rqs - ss0.single_shard_rqs);
    m["shard.timestamps_acquired"] =
        static_cast<double>(ss1.timestamps_acquired - ss0.timestamps_acquired);
    m["shard.pins_per_coord_rq"] =
        coord > 0 ? (ss1.coordinated_shards_pinned - ss0.coordinated_shards_pinned) / coord : 0;
    m["shard.maint_passes"] = static_cast<double>(ms1.passes - ms0.passes);
    m["shard.maint_pruned"] =
        static_cast<double>(ms1.bundle_entries_pruned - ms0.bundle_entries_pruned);
    m["shard.maint_backlog"] = backlog.empty() ? 0 : std::accumulate(backlog.begin(), backlog.end(), 0.0) / backlog.size();
    const double ops_all = static_cast<double>(tr.t.attempted);
    m["core.pool_hits"] = static_cast<double>(ps.hits);
    m["core.pool_misses"] = static_cast<double>(ps.misses);
    m["core.allocs_per_op"] = ops_all > 0 ? ps.allocs() / ops_all : 0;
    m["core.chain_depth_p99"] = prom_hist_quantile(pm0, pm1, "bref_bundle_chain_depth", "", 0.99);
    m["epoch.limbo_objects"] = limbo.empty() ? 0 : std::accumulate(limbo.begin(), limbo.end(), 0.0) / limbo.size();
    m["epoch.lag"] = lag.empty() ? 0 : std::accumulate(lag.begin(), lag.end(), 0.0) / lag.size();
    maint.stop();
    check_size("embedded size check", set->size_slow(), live + s.break_size, TT);
    ++TT.attempted;
    if (!set->check_invariants()) note_failure(TT, "sharded check_invariants");
  }
  release_memory();

  // -- bref::Set facade rung.
  ClassMedians api_rung;
  {
    Set set = Set::create("Bundle-skiplist", {.reclaim = true});
    MaintenanceService maint(set.impl(), server_options(s).maint);
    maint.start();
    prefill(w.prefill(), [&] { return set.session(); }, TT);
    const size_t from = g_spans.size();
    AppResult a = run_app<true>(s, w.lane_streams(tag, true, kAppThreads),
                                [&] { return set.session(); }, T, kSpanApi);
    TT += a.t;
    api_rung = span_medians(from, kSpanApi);
    maint.stop();
    check_size("api size check", set.size_slow(), live_after(prefilled, a.t) + s.break_size, TT);
    ++TT.attempted;
    if (!set.check_invariants()) note_failure(TT, "api check_invariants");
  }
  release_memory();

  // -- raw structure rung (reclaim on, pruned by a BundleCleaner).
  ClassMedians ds_rung;
  {
    auto ds = std::make_unique<BundleSkipListSet>(1, true);
    std::optional<BundleCleaner<BundleSkipListSet>> cleaner;
    cleaner.emplace(*ds, server_options(s).maint.interval);
    prefill(w.prefill(), [&] { return TypedSession<BundleSkipListSet>(*ds); }, TT);
    const size_t from = g_spans.size();
    AppResult a = run_app<true>(s, w.lane_streams(tag, true, kAppThreads),
                                [&] { return TypedSession<BundleSkipListSet>(*ds); }, T, kSpanDs);
    TT += a.t;
    ds_rung = span_medians(from, kSpanDs);
    cleaner.reset();
    check_size("ds size check", ds->size_slow(), live_after(prefilled, a.t) + s.break_size, TT);
    ++TT.attempted;
    if (!ds->check_invariants()) note_failure(TT, "ds check_invariants");
  }

  put_rung(out, "ds", ds_rung);
  put_rung(out, "api", api_rung);
  put_rung(out, "shard", shard_rung);
  double net_self = 0, nsum = 0;
  for (int c = 0; c < kClasses; ++c) {
    const std::string cn = kClsName[c];
    m["api." + cn + "_self_ns"] = api_rung.v[c] - ds_rung.v[c];
    m["shard." + cn + "_self_ns"] = shard_rung.v[c] - api_rung.v[c];
    m["net." + cn + "_us"] = wire_rung.v[c] / 1e3;
    dg["net." + cn + "_samples"] = static_cast<double>(wire_rung.n[c]);
    net_self += wire_rung.n[c] * (wire_rung.v[c] - shard_rung.v[c]);
    nsum += wire_rung.n[c];
  }
  m["net.self_us"] = nsum > 0 ? net_self / nsum / 1e3 : 0;
  const double o_peak = peak_untraced > 0 ? 1 - peak_traced / peak_untraced : 0;
  const double o_emb = emb_untraced > 0 ? 1 - emb_traced / emb_untraced : 0;
  m["trace.overhead_frac"] = (o_peak + o_emb) / 2;
  dg["trace.overhead_frac.peak"] = o_peak;
  dg["trace.overhead_frac.embedded"] = o_emb;
  dg["peak_ops_s.untraced"] = peak_untraced;
  dg["embedded_ops_s.untraced"] = emb_untraced;
}

void write_spans(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fputs("BREFSPAN1\n", f);
  const uint32_t nn = kSpanNames;
  std::fwrite(&nn, 4, 1, f);
  for (const char* n : kSpanNameStr) {
    const uint32_t len = static_cast<uint32_t>(std::strlen(n));
    std::fwrite(&len, 4, 1, f);
    std::fwrite(n, 1, len, f);
  }
  uint64_t total = 0;
  for (const auto& b : g_spans) total += b.v.size();
  std::fwrite(&total, 8, 1, f);
  for (const auto& b : g_spans) std::fwrite(b.v.data(), sizeof(Span), b.v.size(), f);
  std::fclose(f);
}

// ---------------------------------------------------------------------------

void json_num(std::string& o, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  o += buf;
}

std::string to_json(const Out& out, const Spec& s, bool correct) {
  std::string o = "{\"correct\": ";
  o += correct ? "true" : "false";
  o += ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, out.tally.attempted));
  o += ", \"failed\": " + std::to_string(out.tally.failed);
  auto obj = [&](const char* key, const std::map<std::string, double>& m) {
    o += std::string(", \"") + key + "\": {";
    bool first = true;
    for (const auto& [k, v] : m) {
      o += first ? "\"" : ", \"";
      o += k + "\": ";
      json_num(o, v);
      first = false;
    }
    o += "}";
  };
  obj("metrics", out.metrics);
  std::map<std::string, double> dg = out.diag;
  dg["nproc"] = std::thread::hardware_concurrency();
  dg["wire_conns"] = kConns;
  dg["wire_window"] = kWindow;
  dg["server_workers"] = kWorkers;
  dg["app_threads"] = kAppThreads + (s.has_scanner() ? 1 : 0);
  dg["prefill_threads"] = kPrefillThreads;
  dg["gen_late_bound_us"] = kLateBoundUs;
  dg["range_keys"] = static_cast<double>(kRangeKeys);
  dg["error_frac"] = out.tally.attempted ? static_cast<double>(out.tally.failed) / out.tally.attempted : 0;
  obj("diag", dg);
  o += ", \"failures\": [";
  for (size_t i = 0; i < g_failures.size(); ++i) {
    std::string f = g_failures[i];
    std::replace(f.begin(), f.end(), '"', '\'');
    o += (i ? ", \"" : "\"") + f + "\"";
  }
  o += "]}";
  return o;
}

Spec parse_args(int argc, char** argv) {
  Spec s;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") s.workload = v;
    else if (k == "--keys") s.keys = std::stoll(v);
    else if (k == "--get") s.get = std::stod(v);
    else if (k == "--update") s.update = std::stod(v);
    else if (k == "--range") s.range = std::stod(v);
    else if (k == "--zipf") s.zipf = std::stod(v);
    else if (k == "--scan-keys") s.scan_keys = std::stoll(v);
    else if (k == "--rate") s.rate = std::stod(v);
    else if (k == "--scan-rate") s.scan_rate = std::stod(v);
    else if (k == "--seed") s.seed = std::stoull(v);
    else if (k == "--seconds") s.seconds = std::stod(v);
    else if (k == "--trace") s.trace = std::stoi(v);
    else if (k == "--rounds") s.rounds = std::stoi(v);
    else if (k == "--break-size") s.break_size = std::stoll(v);
    else if (k == "--spans-out") s.spans_out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (s.keys < 2 * kRangeKeys || s.rate <= 0 || s.seconds <= 0 || s.scan_keys > s.keys ||
      (s.has_scanner() && s.scan_rate <= 0))
    throw std::invalid_argument("bad workload parameters");
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  Spec s;
  try {
    s = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bref_bench: %s\n", e.what());
    return 2;
  }
  Out out;
  bool crashed = false;
  try {
    Workload w(s);
    if (s.trace) run_traced(s, w, out);
    else run_e2e(s, w, out);
  } catch (const std::exception& e) {
    crashed = true;
    note_failure(out.tally, std::string("exception: ") + e.what());
  }
  if (s.trace && !s.spans_out.empty()) write_spans(s.spans_out);
  const bool correct = !crashed && out.tally.failed == 0;
  std::printf("%s\n", to_json(out, s, correct).c_str());
  return correct ? 0 : 1;
}
