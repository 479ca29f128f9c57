// perfbench_cell: one (workload, scheme) cell of the repository benchmark.
//
// Each cell runs in a process of its own (run.py spawns one per scheme)
// because PoolAllocator and ThreadRegistry are process-wide singletons: a
// cell run after another in the same process would inherit its warmed or
// fragmented pool. The cell drives only the library's public surfaces —
// ds::make_kv -> IKV, net::NetServer + net::NetClient, IKV::smr_stats(),
// PoolAllocator::stats() and getrusage — with its own closed-loop load
// generator, so refactors of src/workload cannot move its numbers.
//
//   perfbench_cell --workload W --scheme S --seed N --window-ms T
//                  --trace 0|1 [--spans PATH]
//
// Prints one JSON object on stdout. With --trace 1 the window alternates
// untraced and traced slices (the difference is the tracing overhead),
// the obs latency channel is on in traced slices only, the probes run
// after the window, and the spans recorded by this file go to PATH as
// Chrome trace-event JSON.
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ds/iset.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/obs.hpp"
#include "runtime/pool_alloc.hpp"
#include "runtime/rng.hpp"
#include "service/sharded_map.hpp"
#include "smr/all.hpp"

namespace {

using pop::obs::HistoSnapshot;
using pop::obs::now_ns;

// One op in kSampleEvery is timed (end-to-end latency in untraced time,
// ds spans in traced time); one timed op in kSpanEvery is also kept as a
// span, at most kSpanCap per thread, so the span file stays small while
// the histograms see every timed op.
constexpr uint32_t kSampleEvery = 64;
constexpr uint32_t kSpanEvery = 64;
constexpr size_t kSpanCap = 4096;
constexpr uint32_t kBatchSpanEvery = 16;  // net-kv: one exec_batch in 16
constexpr int kTraceSlices = 8;           // alternate untraced / traced
constexpr uint64_t kSampleNs = 2'000'000; // unreclaimed sampling cadence
// A window whose measured length strays further than this from the
// configured one fails the cell: the numbers would be per wrong time.
constexpr double kWindowTolerance = 0.05;

// Thread and connection counts are fixed here, never derived from the
// machine, so that two machines run the same load.
struct InProcSpec {
  const char* name;
  const char* ds;
  uint64_t range;  // keys are 1..range, half of them prefilled
  int threads;
  uint32_t get_pct;
  uint32_t insert_pct;  // remove is the rest
  bool park_worker0;    // worker 0 parks inside an op for the whole window
};

constexpr InProcSpec kInProc[] = {
    {"list-read", "HML", 2048, 4, 90, 5, false},
    {"hash-update", "HMHT", 16384, 4, 0, 50, false},
    {"stalled-reader", "HMHT", 16384, 4, 0, 50, true},
};
constexpr int kInProcSetupReps = 5;

struct NetSpec {
  uint64_t range = 16384;
  int conns = 2;
  int depth = 8;
  int shards = 2;
  int workers = 2;
  uint32_t get_pct = 80;
  uint32_t put_pct = 10;  // DEL is the rest
  int prefill_batch = 64;
};
constexpr NetSpec kNet{};
constexpr int kNetSetupReps = 2;
constexpr uint64_t kNetProbeWindowNs = 500'000'000;

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

void pin_self(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

inline void compiler_sink(const void* p) { asm volatile("" : : "r"(p) : "memory"); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double histo_mean_ns(const HistoSnapshot& h) {
  if (h.total == 0) return 0;
  double sum = 0;
  for (uint32_t i = 0; i < pop::obs::kHistoBuckets; ++i) {
    if (h.counts[i]) {
      sum += static_cast<double>(h.counts[i]) *
             static_cast<double>(pop::obs::histo_bucket_value(i));
    }
  }
  return sum / static_cast<double>(h.total);
}

double pct_ns(const HistoSnapshot& h, double p) {
  return static_cast<double>(h.percentile(p));
}

uint64_t mix_seed(uint64_t seed, uint64_t stream) {
  uint64_t s = seed ^ (0x9E3779B97F4A7C15ull * (stream + 1));
  return pop::runtime::splitmix64(s);
}

// The prefilled half of [1, range], in a seeded random insertion order.
std::vector<uint64_t> prefill_keys(uint64_t range, uint64_t seed) {
  std::vector<uint64_t> keys(range);
  for (uint64_t i = 0; i < range; ++i) keys[i] = i + 1;
  pop::runtime::Xoshiro256 rng(mix_seed(seed, 1000));
  for (uint64_t i = range - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.next_below(i + 1)]);
  }
  keys.resize(range / 2);
  return keys;
}

struct Span {
  const char* name;
  uint64_t t0_ns;
  uint64_t dur_ns;
  uint64_t id;
};

// Per-thread span buffer: filled without locks, read after join.
struct SpanLog {
  int tid = 0;
  uint64_t next = 0;
  uint64_t dropped = 0;
  std::vector<Span> spans;

  void add(const char* name, uint64_t t0, uint64_t dur) {
    if (spans.size() >= kSpanCap) {
      ++dropped;
      return;
    }
    if (spans.empty()) spans.reserve(kSpanCap);
    spans.push_back({name, t0, dur, (static_cast<uint64_t>(tid + 1) << 32) | ++next});
  }
};

// Ordered JSON object writer for the cell's one output line.
class JsonOut {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    if (!std::isfinite(v)) v = 0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    add(k, buf);
  }
  void str(const std::string& k, const std::string& v) {
    add(k, "\"" + escape(v) + "\"");
  }
  void str_list(const std::string& k, const std::vector<std::string>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i) s += ",";
      s += "\"" + escape(v[i]) + "\"";
    }
    add(k, s + "]");
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  static std::string escape(const std::string& s) {
    std::string o;
    for (char c : s) {
      if (c == '"' || c == '\\') o += '\\';
      o += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return o;
  }
  void add(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + escape(k) + "\":" + v;
  }
  std::string body_;
};

// Process-wide counters around a window.
struct Counters {
  pop::smr::StatsSnapshot smr;
  pop::runtime::PoolAllocator::Stats pool{};
  rusage ru{};
};

Counters take_counters(const pop::ds::IKV& kv) {
  Counters c;
  c.smr = kv.smr_stats();
  c.pool = pop::runtime::PoolAllocator::instance().stats();
  getrusage(RUSAGE_SELF, &c.ru);
  return c;
}

double tv_s(const timeval& t) {
  return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
}

// ---------------------------------------------------------------------------
// The timed window, driven from the main thread
// ---------------------------------------------------------------------------

struct Flags {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<bool> traced{false};
  std::atomic<bool> release{false};  // parked worker
};

struct WindowStats {
  uint64_t t_go = 0;
  uint64_t t_stop = 0;
  double mode_s[2] = {0, 0};  // [untraced, traced] seconds
  double unreclaimed_sum = 0;
  uint64_t unreclaimed_peak = 0;
  uint64_t samples = 0;
};

// Opens the window, flips the traced flag across kTraceSlices slices when
// tracing, samples the unreclaimed count every kSampleNs, calls
// tick(traced) after each sample, and raises stop at the deadline. The
// caller joins its workers afterwards.
template <class Tick>
WindowStats drive_window(const pop::ds::IKV& kv, uint64_t window_ns, bool trace,
                         Flags& f, Tick&& tick) {
  WindowStats w;
  const uint64_t slice_ns = window_ns / kTraceSlices;
  bool traced = false;
  w.t_go = now_ns();
  f.go.store(true, std::memory_order_release);
  const uint64_t t_end = w.t_go + window_ns;
  uint64_t mode_start = w.t_go;
  uint64_t next_sample = w.t_go;
  for (;;) {
    uint64_t now = now_ns();
    if (now >= t_end) break;
    const bool want = trace && (((now - w.t_go) / slice_ns) & 1);
    if (want != traced) {
      w.mode_s[traced] += 1e-9 * static_cast<double>(now - mode_start);
      mode_start = now;
      traced = want;
      pop::obs::set_latency(traced);
      f.traced.store(traced, std::memory_order_relaxed);
    }
    if (now >= next_sample) {
      const uint64_t u = kv.smr_stats().unreclaimed();
      w.unreclaimed_sum += static_cast<double>(u);
      w.unreclaimed_peak = std::max(w.unreclaimed_peak, u);
      ++w.samples;
      next_sample += kSampleNs;
      tick(traced);
      now = now_ns();
    }
    uint64_t wake = std::min(next_sample, t_end);
    if (trace) wake = std::min(wake, w.t_go + ((now - w.t_go) / slice_ns + 1) * slice_ns);
    if (wake > now) std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
  }
  f.stop.store(true, std::memory_order_relaxed);
  w.t_stop = now_ns();
  w.mode_s[traced] += 1e-9 * static_cast<double>(w.t_stop - mode_start);
  pop::obs::set_latency(false);
  f.traced.store(false, std::memory_order_relaxed);
  return w;
}

// The net and service layers' numbers from a net-kv window.
struct NetLayer {
  double rtt_us_mean = 0;           // pipelined batch: send to last reply
  double server_batch_us_mean = 0;  // obs net_batch
  double ops_per_server_batch = 0;
  double vcsw_per_batch = 0;
  double shard_skew = 0;  // max / mean routed ops per shard
};

// Everything a cell reports; run.py names the metrics.
struct CellResult {
  std::vector<std::string> errors;
  std::string cpu_map;
  std::vector<double> setup_s;
  double window_cfg_s = 0, window_s = 0;
  uint64_t attempted = 0, failed = 0;
  uint64_t ops = 0;
  uint64_t ops_mode[2] = {0, 0};
  WindowStats win;
  Counters c0, c1;
  HistoSnapshot lat;  // end-to-end request latency, untraced time
  HistoSnapshot get_ns, upd_ns;  // ds spans, traced time
  std::vector<SpanLog> logs;
  // net-kv only (EpochPOP's in-process traced cells run a net probe).
  std::optional<NetLayer> net;
  // probes
  double protect_ns = 0, bracket_ns = 0;
  HistoSnapshot sweep, ping_wave;
};

void check_window(CellResult& r) {
  if (std::fabs(r.window_s - r.window_cfg_s) > kWindowTolerance * r.window_cfg_s) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "window: measured %.4f s against configured %.4f s", r.window_s,
                  r.window_cfg_s);
    r.errors.push_back(buf);
  }
}

// ---------------------------------------------------------------------------
// In-process workloads
// ---------------------------------------------------------------------------

struct alignas(64) WorkerOut {
  uint64_t ops[2] = {0, 0};
  uint64_t bad_gets = 0;
  uint64_t inserts_ok = 0;
  uint64_t removes_ok = 0;
  uint64_t t_end = 0;
  HistoSnapshot lat, get_ns, upd_ns;
  SpanLog log;
};

void run_worker(pop::ds::IKV& kv, const InProcSpec& w, int idx, uint64_t seed,
                int cpu, Flags& f, WorkerOut& out) {
  pin_self({cpu});
  pop::runtime::Xoshiro256 rng(mix_seed(seed, static_cast<uint64_t>(idx)));
  while (!f.go.load(std::memory_order_acquire)) std::this_thread::yield();
  if (w.park_worker0 && idx == 0) {
    kv.park_in_operation(f.release);
    kv.detach_thread();
    return;
  }
  uint32_t n = 0;
  while (!f.stop.load(std::memory_order_relaxed)) {
    const bool traced = f.traced.load(std::memory_order_relaxed);
    const uint64_t key = 1 + rng.next_below(w.range);
    const uint64_t dice = rng.next_below(100);
    const bool timed = ++n % kSampleEvery == 0;
    const uint64_t t0 = timed ? now_ns() : 0;
    const char* what;
    if (dice < w.get_pct) {
      what = "ds.get";
      uint64_t v = 0;
      if (kv.get(key, &v) && v != key) ++out.bad_gets;
    } else if (dice < w.get_pct + w.insert_pct) {
      what = "ds.insert";
      if (kv.insert(key)) ++out.inserts_ok;
    } else {
      what = "ds.remove";
      if (kv.remove(key)) ++out.removes_ok;
    }
    if (timed) {
      const uint64_t dt = now_ns() - t0;
      if (!traced) {
        out.lat.add(dt);
      } else {
        (dice < w.get_pct ? out.get_ns : out.upd_ns).add(dt);
        if (n / kSampleEvery % kSpanEvery == 0) out.log.add(what, t0, dt);
      }
    }
    ++out.ops[traced];
  }
  out.t_end = now_ns();
  kv.detach_thread();
}

// Times one get per sample tick from the main thread: the get latency of
// workloads whose own mix has no gets.
struct TickProbe {
  pop::ds::IKV* kv = nullptr;
  uint64_t range = 0;
  bool updates = false;  // net-kv: also a put + remove of a key above range
  pop::runtime::Xoshiro256 rng{1};
  HistoSnapshot* get_ns = nullptr;
  HistoSnapshot* upd_ns = nullptr;
  SpanLog* log = nullptr;
  uint64_t n = 0;

  void operator()(bool traced) {
    if (!traced) return;
    const uint64_t key = 1 + rng.next_below(range);
    uint64_t t0 = now_ns();
    kv->get(key, nullptr);
    uint64_t dt = now_ns() - t0;
    get_ns->add(dt);
    if (++n % kSpanEvery == 0) log->add("ds.get", t0, dt);
    if (!updates) return;
    const uint64_t probe_key = range + 1 + n % 64;
    t0 = now_ns();
    kv->put(probe_key, probe_key);
    dt = now_ns() - t0;
    upd_ns->add(dt);
    t0 = now_ns();
    kv->remove(probe_key);
    upd_ns->add(now_ns() - t0);
  }
};

template <class F>
void with_domain(const std::string& scheme, F&& f) {
  namespace s = pop::smr;
  namespace c = pop::core;
  if (scheme == "HP") f.template operator()<s::HpDomain>();
  else if (scheme == "HE") f.template operator()<s::HeDomain>();
  else if (scheme == "EBR") f.template operator()<s::EbrDomain>();
  else if (scheme == "HazardPtrPOP") f.template operator()<c::HazardPtrPopDomain>();
  else if (scheme == "HazardEraPOP") f.template operator()<c::HazardEraPopDomain>();
  else if (scheme == "EpochPOP") f.template operator()<c::EpochPopDomain>();
}

struct ProbeNode : pop::smr::Reclaimable {
  explicit ProbeNode(uint64_t k) : key(k) {}
  uint64_t key;
};

// Single-thread probes of the scheme's read path on a private domain:
// ns per protect() down a 64-node chain, and ns per Guard (begin_op +
// end_op). Median over rounds.
template <class D>
void run_probes(CellResult& r, SpanLog& log) {
  constexpr int kChain = 64, kRounds = 11, kProtectIters = 2048,
                kBracketIters = 65536;
  D d;
  ProbeNode* nodes[kChain];
  std::atomic<ProbeNode*> edges[kChain];
  for (int i = 0; i < kChain; ++i) {
    nodes[i] = d.template create<ProbeNode>(static_cast<uint64_t>(i));
    edges[i].store(nodes[i], std::memory_order_relaxed);
  }
  std::vector<double> per;
  uint64_t t_probe = now_ns();
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t t0 = now_ns();
    for (int it = 0; it < kProtectIters; ++it) {
      typename D::Guard g(d);
      for (int i = 0; i < kChain; ++i) compiler_sink(d.protect(i & 3, edges[i]));
    }
    per.push_back(static_cast<double>(now_ns() - t0) / (kProtectIters * kChain));
  }
  r.protect_ns = median(per);
  log.add("probe.protect", t_probe, now_ns() - t_probe);
  per.clear();
  t_probe = now_ns();
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t t0 = now_ns();
    for (int it = 0; it < kBracketIters; ++it) {
      typename D::Guard g(d);
      compiler_sink(&g);
    }
    per.push_back(static_cast<double>(now_ns() - t0) / kBracketIters);
  }
  r.bracket_ns = median(per);
  log.add("probe.bracket", t_probe, now_ns() - t_probe);
  for (int i = 0; i < kChain; ++i) pop::smr::destroy_unpublished(nodes[i]);
}

void run_inproc(CellResult& r, const InProcSpec& w, const std::string& scheme,
                uint64_t seed, uint64_t window_ns, bool trace) {
  const std::vector<int> cpus = allowed_cpus();
  pop::ds::SetConfig cfg;
  cfg.capacity = w.range;
  const std::vector<uint64_t> keys = prefill_keys(w.range, seed);

  // Set-up: build + prefill, several times; the last structure is kept.
  pin_self({cpus[0]});
  std::unique_ptr<pop::ds::IKV> kv;
  for (int rep = 0; rep < kInProcSetupReps; ++rep) {
    kv.reset();
    const uint64_t t0 = now_ns();
    kv = pop::ds::make_kv(w.ds, scheme, cfg);
    if (!kv) {
      r.errors.push_back("make_kv failed for " + scheme);
      return;
    }
    uint64_t refused = 0;
    for (uint64_t k : keys) refused += !kv->insert(k);
    if (refused) r.errors.push_back("prefill: " + std::to_string(refused) + " inserts refused");
    r.setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
    kv->detach_thread();
  }
  pin_self(cpus);
  pop::obs::set_latency(false);
  pop::obs::latency_reset();

  Flags f;
  std::vector<std::unique_ptr<WorkerOut>> outs;
  std::vector<std::thread> threads;
  for (int i = 0; i < w.threads; ++i) {
    const int cpu = cpus[static_cast<size_t>(i) % cpus.size()];
    r.cpu_map += (i ? " w" : "w") + std::to_string(i) + "=" + std::to_string(cpu);
    outs.push_back(std::make_unique<WorkerOut>());
    outs.back()->log.tid = i;
    threads.emplace_back(run_worker, std::ref(*kv), std::cref(w), i, seed, cpu,
                         std::ref(f), std::ref(*outs.back()));
  }

  SpanLog main_log;
  main_log.tid = 100;
  TickProbe tick;
  tick.kv = kv.get();
  tick.range = w.range;
  tick.rng = pop::runtime::Xoshiro256(mix_seed(seed, 999));
  tick.get_ns = &r.get_ns;
  tick.upd_ns = &r.upd_ns;
  tick.log = &main_log;
  const bool probe_gets = w.get_pct == 0;

  r.c0 = take_counters(*kv);
  r.win = drive_window(*kv, window_ns, trace, f, [&](bool traced) {
    if (probe_gets) tick(traced);
  });
  f.release.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  r.c1 = take_counters(*kv);
  if (probe_gets && trace) kv->detach_thread();
  if (trace) {
    r.sweep = pop::obs::latency_snapshot(pop::obs::LatOp::kSweep);
    r.ping_wave = pop::obs::latency_snapshot(pop::obs::LatOp::kPingWave);
  }

  uint64_t t_end = r.win.t_stop, inserts = 0, removes = 0, bad_gets = 0;
  for (auto& o : outs) {
    if (o->t_end) t_end = std::max(t_end, o->t_end);
    r.ops_mode[0] += o->ops[0];
    r.ops_mode[1] += o->ops[1];
    inserts += o->inserts_ok;
    removes += o->removes_ok;
    bad_gets += o->bad_gets;
    r.lat.merge(o->lat);
    if (!probe_gets) r.get_ns.merge(o->get_ns);
    r.upd_ns.merge(o->upd_ns);
    r.logs.push_back(std::move(o->log));
  }
  r.logs.push_back(std::move(main_log));
  r.ops = r.ops_mode[0] + r.ops_mode[1];
  r.window_cfg_s = 1e-9 * static_cast<double>(window_ns);
  r.window_s = 1e-9 * static_cast<double>(t_end - r.win.t_go);
  check_window(r);

  // Correctness: every get hit returned the value insert stored (its key),
  // and the final membership equals prefill + inserts - removes.
  r.attempted = r.ops;
  r.failed = bad_gets;
  if (bad_gets) r.errors.push_back(std::to_string(bad_gets) + " gets returned a wrong value");
  const uint64_t expect = keys.size() + inserts - removes;
  const uint64_t size = kv->size_slow();
  if (size != expect) {
    r.failed += size > expect ? size - expect : expect - size;
    r.errors.push_back("membership recount " + std::to_string(size) +
                       " != expected " + std::to_string(expect));
  }
}

// ---------------------------------------------------------------------------
// net-kv: in-process NetServer, pipelined NetClient connections
// ---------------------------------------------------------------------------

struct alignas(64) ClientOut {
  uint64_t ops[2] = {0, 0};
  uint64_t attempted = 0, failed = 0, batches = 0;
  uint64_t t_end = 0;
  double rtt_ns_sum = 0;
  uint64_t rtt_n = 0;
  bool broken = false;
  HistoSnapshot lat;
  SpanLog log;
};

// Each connection owns the keys k with (k - 1) % conns == c, so its ledger
// of expected values is exact: a pipeline executes in order on one server
// worker, and no other connection touches those keys. 0 = absent.
uint64_t owned_key(uint64_t idx, int c) {
  return idx * static_cast<uint64_t>(kNet.conns) + static_cast<uint64_t>(c) + 1;
}

bool check_response(const pop::net::Request& q, const pop::net::Response& p,
                    std::vector<uint64_t>& ledger) {
  using pop::net::Op;
  using pop::net::Status;
  uint64_t& exp = ledger[q.key];
  bool ok = true;
  switch (q.op) {
    case Op::kGet:
      ok = exp ? (p.status == Status::kHit && p.val == exp) : p.status == Status::kMiss;
      break;
    case Op::kPut:
      ok = p.status == (exp ? Status::kReplaced : Status::kInserted);
      exp = q.val;
      break;
    case Op::kDel:
      ok = p.status == (exp ? Status::kHit : Status::kMiss);
      exp = 0;
      break;
    default:
      ok = false;
  }
  return ok;
}

void run_client(pop::net::NetClient& cl, std::vector<uint64_t>& ledger, int c,
                uint64_t seed, int cpu, Flags& f, ClientOut& out) {
  using pop::net::Op;
  pin_self({cpu});
  pop::runtime::Xoshiro256 rng(mix_seed(seed, 100 + static_cast<uint64_t>(c)));
  std::vector<pop::net::Request> reqs(static_cast<size_t>(kNet.depth));
  std::vector<pop::net::Response> resps;
  std::vector<uint64_t> lat;
  const uint64_t owned = kNet.range / static_cast<uint64_t>(kNet.conns);
  while (!f.go.load(std::memory_order_acquire)) std::this_thread::yield();
  while (!f.stop.load(std::memory_order_relaxed)) {
    const bool traced = f.traced.load(std::memory_order_relaxed);
    for (auto& q : reqs) {
      q.key = owned_key(rng.next_below(owned), c);
      const uint64_t dice = rng.next_below(100);
      q.op = dice < kNet.get_pct ? Op::kGet
             : dice < kNet.get_pct + kNet.put_pct ? Op::kPut
                                                  : Op::kDel;
      q.val = q.op == Op::kPut ? (rng.next() | 1) : 0;
    }
    const uint64_t t0 = now_ns();
    const bool ok = cl.exec_batch(reqs, &resps, &lat);
    const uint64_t t1 = now_ns();
    out.attempted += reqs.size();
    if (!ok || resps.size() != reqs.size()) {
      out.failed += reqs.size();
      out.broken = true;
      break;
    }
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (!check_response(reqs[i], resps[i], ledger)) ++out.failed;
    }
    ++out.batches;
    out.ops[traced] += reqs.size();
    if (!traced) {
      for (uint64_t l : lat) out.lat.add(l);
    } else {
      out.rtt_ns_sum += static_cast<double>(lat.back());
      ++out.rtt_n;
      if (out.batches % kBatchSpanEvery == 0) out.log.add("net.exec_batch", t0, t1 - t0);
    }
  }
  out.t_end = now_ns();
}

struct NetRig {
  std::unique_ptr<pop::net::NetServer> server;
  std::vector<std::unique_ptr<pop::net::NetClient>> clients;
  std::vector<std::vector<uint64_t>> ledgers;
};

// Server start + connect + wire prefill. Server workers inherit the main
// thread's affinity at start(), so the main thread holds server_cpus then.
bool net_setup(NetRig& rig, const std::string& scheme,
               const std::vector<uint64_t>& keys, const std::vector<int>& server_cpus,
               const std::vector<int>& client_cpus, std::vector<std::string>& errors) {
  using pop::net::Op;
  pop::net::NetServerConfig cfg;
  cfg.ds = "HMHT";
  cfg.smr = scheme;
  cfg.shards = kNet.shards;
  cfg.workers = kNet.workers;
  cfg.set.capacity = kNet.range;
  pin_self(server_cpus);
  rig.server = pop::net::NetServer::create(cfg);
  if (!rig.server) {
    errors.push_back("NetServer::create failed for " + scheme);
    return false;
  }
  rig.server->start();
  pin_self(client_cpus);
  rig.clients.clear();
  rig.ledgers.assign(static_cast<size_t>(kNet.conns),
                     std::vector<uint64_t>(kNet.range + 2, 0));
  std::vector<std::vector<pop::net::Request>> todo(static_cast<size_t>(kNet.conns));
  for (uint64_t k : keys) {
    todo[(k - 1) % static_cast<uint64_t>(kNet.conns)].push_back({Op::kPut, k, k});
  }
  std::vector<pop::net::Response> resps;
  for (int c = 0; c < kNet.conns; ++c) {
    rig.clients.push_back(std::make_unique<pop::net::NetClient>());
    if (!rig.clients.back()->connect_tcp("127.0.0.1", rig.server->port())) {
      errors.push_back("connect failed");
      return false;
    }
    auto& reqs = todo[static_cast<size_t>(c)];
    auto& ledger = rig.ledgers[static_cast<size_t>(c)];
    for (size_t i = 0; i < reqs.size(); i += static_cast<size_t>(kNet.prefill_batch)) {
      const size_t end = std::min(reqs.size(), i + static_cast<size_t>(kNet.prefill_batch));
      const std::vector<pop::net::Request> batch(reqs.begin() + static_cast<long>(i),
                                                 reqs.begin() + static_cast<long>(end));
      if (!rig.clients.back()->exec_batch(batch, &resps) || resps.size() != batch.size()) {
        errors.push_back("wire prefill batch failed");
        return false;
      }
      for (size_t j = 0; j < batch.size(); ++j) {
        if (!check_response(batch[j], resps[j], ledger)) {
          errors.push_back("wire prefill: unexpected PUT status");
        }
      }
    }
  }
  return true;
}

struct NetSnap {
  pop::service::ConnectionStats conns;
  std::vector<uint64_t> shard_ops;
};

NetSnap take_net(pop::net::NetServer& s) {
  NetSnap n;
  n.conns = s.total_stats();
  if (auto* sm = dynamic_cast<pop::service::ShardedMap*>(&s.map())) {
    for (const auto& sh : sm->service_stats().shards) n.shard_ops.push_back(sh.ops);
  }
  return n;
}

void run_net(CellResult& r, const std::string& scheme, uint64_t seed,
             uint64_t window_ns, bool trace, int setup_reps) {
  const std::vector<int> cpus = allowed_cpus();
  auto cpu_at = [&](size_t i) { return cpus[i % cpus.size()]; };
  const std::vector<int> server_cpus = {cpu_at(0), cpu_at(1)};
  const std::vector<int> client_cpu = {cpu_at(2), cpu_at(3)};
  const std::vector<uint64_t> keys = prefill_keys(kNet.range, seed);
  r.cpu_map = "server=" + std::to_string(server_cpus[0]) + "," +
              std::to_string(server_cpus[1]) + " c0=" + std::to_string(client_cpu[0]) +
              " c1=" + std::to_string(client_cpu[1]);

  NetRig rig;
  for (int rep = 0; rep < setup_reps; ++rep) {
    rig = NetRig{};  // stops the previous rep's server, closes its clients
    const uint64_t t0 = now_ns();
    if (!net_setup(rig, scheme, keys, server_cpus, client_cpu, r.errors)) return;
    r.setup_s.push_back(1e-9 * static_cast<double>(now_ns() - t0));
  }
  pop::obs::set_latency(false);
  pop::obs::latency_reset();
  pop::ds::IKV& map = rig.server->map();

  Flags f;
  std::vector<std::unique_ptr<ClientOut>> outs;
  std::vector<std::thread> threads;
  for (int c = 0; c < kNet.conns; ++c) {
    const auto i = static_cast<size_t>(c);
    outs.push_back(std::make_unique<ClientOut>());
    outs.back()->log.tid = c;
    threads.emplace_back(run_client, std::ref(*rig.clients[i]), std::ref(rig.ledgers[i]),
                         c, seed, client_cpu[i % client_cpu.size()], std::ref(f),
                         std::ref(*outs.back()));
  }

  SpanLog main_log;
  main_log.tid = 100;
  TickProbe tick;
  tick.kv = &map;
  tick.range = kNet.range;
  tick.updates = true;
  tick.rng = pop::runtime::Xoshiro256(mix_seed(seed, 999));
  tick.get_ns = &r.get_ns;
  tick.upd_ns = &r.upd_ns;
  tick.log = &main_log;

  const NetSnap n0 = take_net(*rig.server);
  r.c0 = take_counters(map);
  r.win = drive_window(map, window_ns, trace, f, tick);
  for (auto& t : threads) t.join();
  map.detach_thread();
  r.c1 = take_counters(map);
  const NetSnap n1 = take_net(*rig.server);
  const HistoSnapshot server_batch = pop::obs::latency_snapshot(pop::obs::LatOp::kNetBatch);
  if (trace) {
    r.sweep = pop::obs::latency_snapshot(pop::obs::LatOp::kSweep);
    r.ping_wave = pop::obs::latency_snapshot(pop::obs::LatOp::kPingWave);
  }

  uint64_t t_end = r.win.t_stop, batches = 0, rtt_n = 0;
  double rtt_sum = 0;
  for (auto& o : outs) {
    t_end = std::max(t_end, o->t_end);
    r.ops_mode[0] += o->ops[0];
    r.ops_mode[1] += o->ops[1];
    r.attempted += o->attempted;
    r.failed += o->failed;
    batches += o->batches;
    rtt_sum += o->rtt_ns_sum;
    rtt_n += o->rtt_n;
    if (o->broken) r.errors.push_back("a pipelined batch failed or came back short");
    r.lat.merge(o->lat);
    r.logs.push_back(std::move(o->log));
  }
  r.logs.push_back(std::move(main_log));
  r.ops = r.ops_mode[0] + r.ops_mode[1];
  r.window_cfg_s = 1e-9 * static_cast<double>(window_ns);
  r.window_s = 1e-9 * static_cast<double>(t_end - r.win.t_go);
  check_window(r);
  if (r.failed) r.errors.push_back(std::to_string(r.failed) + " wire ops failed their check");

  uint64_t expect = 0;
  for (const auto& l : rig.ledgers) {
    for (uint64_t v : l) expect += v != 0;
  }
  const uint64_t size = map.size_slow();
  if (size != expect) {
    r.failed += size > expect ? size - expect : expect - size;
    r.errors.push_back("membership recount " + std::to_string(size) +
                       " != expected " + std::to_string(expect));
  }

  NetLayer net;
  net.rtt_us_mean = 1e-3 * ratio(rtt_sum, static_cast<double>(rtt_n));
  net.server_batch_us_mean = 1e-3 * histo_mean_ns(server_batch);
  net.ops_per_server_batch = ratio(static_cast<double>(n1.conns.ops - n0.conns.ops),
                                   static_cast<double>(n1.conns.batches - n0.conns.batches));
  net.vcsw_per_batch = ratio(static_cast<double>(r.c1.ru.ru_nvcsw - r.c0.ru.ru_nvcsw),
                             static_cast<double>(batches));
  if (!n1.shard_ops.empty() && n1.shard_ops.size() == n0.shard_ops.size()) {
    double mx = 0, sum = 0;
    for (size_t i = 0; i < n1.shard_ops.size(); ++i) {
      const double d = static_cast<double>(n1.shard_ops[i] - n0.shard_ops[i]);
      mx = std::max(mx, d);
      sum += d;
    }
    net.shard_skew = ratio(mx, sum / static_cast<double>(n1.shard_ops.size()));
  }
  r.net = net;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

void write_spans(const std::string& path, const CellResult& r, uint64_t t_cell0,
                 uint64_t t_cell1) {
  FILE* fp = std::fopen(path.c_str(), "w");
  if (!fp) return;
  uint64_t dropped = 0;
  std::fprintf(fp, "{\"traceEvents\":[\n");
  std::fprintf(fp,
               "{\"name\":\"cell\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":0,"
               "\"tid\":100,\"args\":{\"id\":1,\"parent\":0}}",
               1e-3 * static_cast<double>(t_cell0),
               1e-3 * static_cast<double>(t_cell1 - t_cell0));
  for (const SpanLog& log : r.logs) {
    dropped += log.dropped;
    for (const Span& s : log.spans) {
      std::fprintf(fp,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":0,\"tid\":%d,\"args\":{\"id\":%" PRIu64
                   ",\"parent\":1}}",
                   s.name, 1e-3 * static_cast<double>(s.t0_ns),
                   1e-3 * static_cast<double>(s.dur_ns), log.tid, s.id);
    }
  }
  std::fprintf(fp, "\n],\"otherData\":{\"dropped_spans\":%" PRIu64 "}}\n", dropped);
  std::fclose(fp);
}

void emit(const std::string& workload, const std::string& scheme, bool trace,
          const CellResult& r) {
  JsonOut j;
  const auto& s0 = r.c0.smr;
  const auto& s1 = r.c1.smr;
  const double kops = 1e-3 * static_cast<double>(r.ops);
  const double scans = static_cast<double>(s1.scans - s0.scans);
  const double utime = tv_s(r.c1.ru.ru_utime) - tv_s(r.c0.ru.ru_utime);
  const double stime = tv_s(r.c1.ru.ru_stime) - tv_s(r.c0.ru.ru_stime);
  const double ebr_frees = static_cast<double>(s1.ebr_frees - s0.ebr_frees);
  const double pop_frees = static_cast<double>(s1.pop_frees - s0.pop_frees);

  j.str("workload", workload);
  j.str("scheme", scheme);
  j.num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  j.str("cpu_map", r.cpu_map);
  j.str_list("errors", r.errors);
  j.num("setup_s", median(r.setup_s));
  j.num("window_s", r.window_s);
  j.num("attempted", static_cast<double>(r.attempted));
  j.num("failed", static_cast<double>(r.failed));
  j.num("mops", ratio(1e-6 * static_cast<double>(r.ops), r.window_s));
  j.num("unreclaimed_mean", ratio(r.win.unreclaimed_sum, static_cast<double>(r.win.samples)));
  j.num("unreclaimed_peak", static_cast<double>(r.win.unreclaimed_peak));
  j.num("lat_samples", static_cast<double>(r.lat.total));
  j.num("lat_p50_us", 1e-3 * pct_ns(r.lat, 50));
  j.num("lat_p99_us", 1e-3 * pct_ns(r.lat, 99));
  j.num("scans_per_kop", ratio(scans, kops));
  j.num("freed_per_scan", ratio(static_cast<double>(s1.freed - s0.freed), scans));
  j.num("signals_per_scan", ratio(static_cast<double>(s1.signals_sent - s0.signals_sent), scans));
  j.num("pop_free_share", ratio(pop_frees, ebr_frees + pop_frees));
  j.num("pool_blocks_per_splice",
        ratio(static_cast<double>(r.c1.pool.remote_frees - r.c0.pool.remote_frees),
              static_cast<double>(r.c1.pool.remote_splices - r.c0.pool.remote_splices)));
  j.num("pool_remote_free_share",
        ratio(static_cast<double>(r.c1.pool.remote_frees - r.c0.pool.remote_frees),
              static_cast<double>(r.c1.pool.freed_blocks - r.c0.pool.freed_blocks)));
  j.num("sys_share", ratio(stime, utime + stime));
  j.num("ctx_switches_per_kop",
        ratio(static_cast<double>((r.c1.ru.ru_nvcsw - r.c0.ru.ru_nvcsw) +
                                  (r.c1.ru.ru_nivcsw - r.c0.ru.ru_nivcsw)),
              kops));
  if (trace) {
    j.num("mops_untraced", ratio(1e-6 * static_cast<double>(r.ops_mode[0]), r.win.mode_s[0]));
    j.num("mops_traced", ratio(1e-6 * static_cast<double>(r.ops_mode[1]), r.win.mode_s[1]));
    j.num("get_ns_p50", pct_ns(r.get_ns, 50));
    j.num("get_ns_p99", pct_ns(r.get_ns, 99));
    j.num("update_ns_p50", pct_ns(r.upd_ns, 50));
    j.num("sweep_us_p50", 1e-3 * pct_ns(r.sweep, 50));
    j.num("ping_wave_us_p50", 1e-3 * pct_ns(r.ping_wave, 50));
    j.num("protect_ns", r.protect_ns);
    j.num("bracket_ns", r.bracket_ns);
  }
  if (r.net) {
    j.num("net_rtt_us_mean", r.net->rtt_us_mean);
    j.num("net_server_batch_us_mean", r.net->server_batch_us_mean);
    j.num("net_ops_per_server_batch", r.net->ops_per_server_batch);
    j.num("net_vcsw_per_batch", r.net->vcsw_per_batch);
    j.num("net_shard_skew", r.net->shard_skew);
  }
  std::printf("%s\n", j.text().c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_cell: %s\nusage: perfbench_cell --workload W --scheme S "
               "--seed N --window-ms T --trace 0|1 [--spans PATH]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, scheme, spans;
  uint64_t seed = 0, window_ms = 0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--scheme") scheme = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--window-ms") window_ms = std::strtoull(v, nullptr, 10);
    else if (a == "--trace") trace = std::atoi(v);
    else if (a == "--spans") spans = v;
    else usage(("unknown flag " + a).c_str());
  }
  static const char* const kSchemes[] = {"HP", "HazardPtrPOP", "HE",
                                         "HazardEraPOP", "EBR", "EpochPOP"};
  if (std::find_if(std::begin(kSchemes), std::end(kSchemes),
                   [&](const char* s) { return scheme == s; }) == std::end(kSchemes)) {
    usage("unknown scheme");
  }
  if (window_ms == 0 || (trace != 0 && trace != 1)) usage("bad --window-ms or --trace");
  signal(SIGPIPE, SIG_IGN);

  CellResult r;
  const uint64_t window_ns = window_ms * 1'000'000;
  const uint64_t t_cell0 = now_ns();
  const InProcSpec* spec = nullptr;
  for (const auto& w : kInProc) {
    if (workload == w.name) spec = &w;
  }
  if (spec) {
    run_inproc(r, *spec, scheme, seed, window_ns, trace == 1);
  } else if (workload == "net-kv") {
    run_net(r, scheme, seed, window_ns, trace == 1, kNetSetupReps);
  } else {
    usage("unknown workload");
  }
  if (trace == 1 && r.errors.empty()) {
    // The net.* per-layer metrics come from net-kv; on an in-process
    // workload the EpochPOP cell runs a short net-kv probe so that every
    // traced run reports the full per-layer set.
    if (spec && scheme == "EpochPOP") {
      CellResult net;
      run_net(net, scheme, seed, kNetProbeWindowNs, true, 1);
      for (auto& e : net.errors) r.errors.push_back("net probe: " + e);
      for (auto& l : net.logs) {
        l.tid += 200;  // keep the probe's threads apart from the workers
        r.logs.push_back(std::move(l));
      }
      r.net = net.net;
    }
    pin_self({allowed_cpus()[0]});
    SpanLog probe_log;
    probe_log.tid = 101;
    with_domain(scheme, [&]<class D>() { run_probes<D>(r, probe_log); });
    r.logs.push_back(std::move(probe_log));
  }
  if (trace == 1 && !spans.empty()) write_spans(spans, r, t_cell0, now_ns());
  emit(workload, scheme, trace == 1, r);
  return 0;
}
