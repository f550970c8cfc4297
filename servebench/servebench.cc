// servebench — the served-path benchmark.
//
// Drives guests through the public host::Supervisor API in closed loops
// (each caller waits for its guest's report before submitting the next
// one), checks every guest's output against an oracle run, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) as
// the last stdout line, one JSON object. Every timer sits around a public
// call the benchmark makes; every count is one the program already returns
// (RunReport, Supervisor::io_stats, InstancePool/ModuleCache stats,
// IoUringBackend::stats, Module::jit). See NOTES.md for the workloads, the
// layer map and what is out of scope.
//
//   servebench --workload serve_short|app_long|park_pipe|park_evict
//              --seed N --seconds S --trace 0|1
//              [--quick] [--trace-dir DIR] [--source ID]
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "servebench/guests.h"
#include "servebench/spans.h"
#include "src/common/time_util.h"
#include "src/host/host.h"
#include "src/host/io_uring_backend.h"
#include "src/host/telemetry.h"
#include "src/wali/wali.h"
#include "src/wasm/wasm.h"
#include "src/workloads/workloads.h"

namespace servebench {
namespace {

using common::MonotonicNanos;

// ------------------------------------------------------------ arguments ---

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool quick = false;
  std::string trace_dir = ".";
  std::string source = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      a->quick = true;
    } else if (arg == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      a->trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--trace-dir" && has_value) {
      a->trace_dir = argv[++i];
    } else if (arg == "--source" && has_value) {
      a->source = argv[++i];
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// ------------------------------------------------------------ workloads ---

// The Fig. 7 analogs app_long interleaves (sqlite3 is left out: its fsync
// would measure the shared disk, not the served path).
constexpr const char* kApps[] = {"lua", "bash", "paho-bench", "memcached"};
constexpr size_t kNumApps = 4;

// One module a workload serves, and what every run of it must produce.
struct Served {
  std::string name;
  std::string tenant;
  std::string bytes;  // binary .wasm, what ModuleCache::Load hashes
  std::vector<std::string> argv;
  // Blocking syscalls per run; each one parks when async offload is on.
  uint64_t blocking_calls = 0;
  // lua and bash: main()'s result as computed by the native C++ function.
  bool has_native = false;
  int32_t native = 0;
  int app = -1;  // index into kApps (app_long only)
  // Oracle reference: switch interpreter, JIT off, blocking syscalls.
  int32_t exit_code = 0;
  uint64_t instrs = 0;
};

// The guests one caller submits together and then waits for.
struct Unit {
  uint32_t module[2] = {0, 0};
  uint32_t count = 1;
  uint32_t payload = 0;  // park_pipe: the 9-digit payload seed
};

struct Workload {
  std::string name;
  std::vector<Served> modules;
  std::vector<Unit> sequence;  // cyclic request sequence from the seed
  size_t callers = 1;          // the closed loop's window
  size_t warmup_units = 0;
  bool async_io = false;
  bool evict_sweeper = false;
  int pipe_messages = 0;
};

constexpr size_t kSequenceLength = 4096;

bool BuildWorkload(const Args& a, size_t workers, Workload* w, std::string* err) {
  Rng rng(a.seed * 0x100000001B3ULL + 17);
  w->name = a.workload;
  auto add = [&](Served s, const std::string& wat) {
    auto bytes = EncodeWat(wat);
    if (!bytes.ok()) {
      *err = s.name + ": " + bytes.status().ToString();
      return false;
    }
    s.bytes = std::move(*bytes);
    if (s.argv.empty()) s.argv = {s.name};
    w->modules.push_back(std::move(s));
    return true;
  };

  if (a.workload == "serve_short") {
    for (int v = 0; v < 8; ++v) {
      Served s;
      s.name = "short.v" + std::to_string(v);
      s.tenant = "t" + std::to_string(v);
      if (!add(s, ShortGuestWat(rng.Next(), 1000, 190))) return false;
    }
    for (size_t i = 0; i < kSequenceLength; ++i) {
      Unit u;
      u.module[0] = rng.Below(8);
      w->sequence.push_back(u);
    }
    w->callers = 2 * workers;
    w->warmup_units = a.quick ? 300 : 3000;
  } else if (a.workload == "app_long") {
    // Scales put each run at tens of ms on the default tier.
    const int scales[kNumApps] = {24, 400, 3000, 1500};
    for (size_t k = 0; k < kNumApps; ++k) {
      const workloads::Workload* app = workloads::FindWorkload(kApps[k]);
      if (app == nullptr) {
        *err = std::string("no workload ") + kApps[k];
        return false;
      }
      const int scale = a.quick ? std::max(1, scales[k] / 10) : scales[k];
      Served s;
      s.name = std::string("app.") + kApps[k];
      s.tenant = kApps[k];
      s.app = static_cast<int>(k);
      s.argv = {app->name, std::to_string(scale)};
      if (app->native) {
        int64_t native = app->native(scale);
        // The native bash analog also folds getpid() into its checksum once
        // per iteration; the guest drops it.
        if (app->name == "bash") native -= static_cast<int64_t>(scale) * getpid();
        s.has_native = app->name == "lua" || app->name == "bash";
        s.native = static_cast<int32_t>(static_cast<uint32_t>(native));
      }
      if (!add(s, workloads::InstantiateWat(*app, scale))) return false;
    }
    for (size_t i = 0; i < kSequenceLength; ++i) {
      Unit u;
      u.module[0] = rng.Below(kNumApps);
      w->sequence.push_back(u);
    }
    w->callers = workers;
    w->warmup_units = a.quick ? 4 : 8;
  } else if (a.workload == "park_pipe") {
    w->pipe_messages = a.quick ? 8 : 32;
    const char* roles[2] = {"pipe.ping", "pipe.echo"};
    for (int r = 0; r < 2; ++r) {
      Served s;
      s.name = roles[r];
      s.tenant = roles[r];
      s.blocking_calls = 2 * static_cast<uint64_t>(w->pipe_messages);
      if (!add(s, PipeGuestWat(r == 0, w->pipe_messages))) return false;
    }
    for (size_t i = 0; i < kSequenceLength; ++i) {
      Unit u;
      u.count = 2;
      const bool ping_first = rng.Below(2) == 0;  // the pair's submit order
      u.module[0] = ping_first ? 0 : 1;
      u.module[1] = ping_first ? 1 : 0;
      u.payload = rng.Below(1000000000);
      w->sequence.push_back(u);
    }
    w->callers = a.quick ? 4 : 16;
    w->warmup_units = 2 * w->callers;
    w->async_io = true;
  } else if (a.workload == "park_evict") {
    // Sleep counts are fixed so every seed asks for the same parked time;
    // the seed picks the compute constants and the request order.
    const int sleeps[4] = {2, 3, 3, 4};
    for (int v = 0; v < 4; ++v) {
      Served s;
      s.name = "sleep.v" + std::to_string(v);
      s.tenant = "s" + std::to_string(v);
      s.blocking_calls = static_cast<uint64_t>(sleeps[v]);
      if (!add(s, SleepGuestWat(rng.Next(), static_cast<int>(s.blocking_calls), 2000))) {
        return false;
      }
    }
    for (size_t i = 0; i < kSequenceLength; ++i) {
      Unit u;
      u.module[0] = rng.Below(4);
      w->sequence.push_back(u);
    }
    w->callers = a.quick ? 16 : 64;
    w->warmup_units = w->callers;
    w->async_io = true;
    w->evict_sweeper = true;
  } else {
    *err = "unknown workload " + a.workload;
    return false;
  }
  return true;
}

// Benchmark-owned pipes for one park_pipe caller: ping -> echo on `a`,
// echo -> ping on `b`. Blocking fds, so every read and write offloads.
struct PipeLane {
  int a[2] = {-1, -1};
  int b[2] = {-1, -1};
  bool dead = false;

  PipeLane() = default;
  ~PipeLane() {
    for (int fd : {a[0], a[1], b[0], b[1]}) {
      if (fd >= 0) close(fd);
    }
  }
  PipeLane(const PipeLane&) = delete;
  PipeLane& operator=(const PipeLane&) = delete;

  // The guests parse each fd as 4 digits.
  bool Open() {
    return pipe2(a, O_CLOEXEC) == 0 && pipe2(b, O_CLOEXEC) == 0 &&
           std::max({a[0], a[1], b[0], b[1]}) <= 9999;
  }
  // Wakes both guests of a broken pair: their reads see end-of-file.
  void Kill() {
    dead = true;
    for (int* fd : {&a[1], &b[1]}) {
      if (*fd >= 0) close(*fd);
      *fd = -1;
    }
  }
  std::vector<std::string> Argv(const Served& s, bool ping, uint32_t payload) const {
    const int r = ping ? b[0] : a[0];
    const int w = ping ? a[1] : b[1];
    return {s.name, Digits(static_cast<uint64_t>(r), 4), Digits(static_cast<uint64_t>(w), 4),
            Digits(payload, 9)};
  }
};

// --------------------------------------------------------------- checks ---

// Empty when the report matches the oracle, else what differs.
std::string CheckReport(const Served& m, const host::RunReport& r, bool async_io) {
  char buf[256];
  if (!r.completed()) {
    std::snprintf(buf, sizeof(buf), "%s: outcome %s trap %s %s", m.name.c_str(),
                  host::OutcomeName(r.outcome), wasm::TrapKindName(r.trap),
                  r.trap_message.c_str());
    return buf;
  }
  const uint64_t parks = async_io ? m.blocking_calls : 0;
  if (r.exit_code != m.exit_code || r.executed_instrs != m.instrs || r.parks != parks ||
      (m.has_native && r.exit_code != m.native)) {
    std::snprintf(buf, sizeof(buf),
                  "%s: exit %d (oracle %d, native %d) instrs %llu (oracle %llu) "
                  "parks %llu (want %llu)",
                  m.name.c_str(), r.exit_code, m.exit_code, m.has_native ? m.native : 0,
                  static_cast<unsigned long long>(r.executed_instrs),
                  static_cast<unsigned long long>(m.instrs),
                  static_cast<unsigned long long>(r.parks),
                  static_cast<unsigned long long>(parks));
    return buf;
  }
  return "";
}

// Runs every module once under the semantic oracle (switch interpreter, JIT
// off, no async offload) and records its exit code and instruction count.
// lua and bash must also match their native results here.
bool TakeReferences(Workload* w, std::vector<PipeLane>& lanes, std::string* err) {
  wasm::Linker linker;
  wali::WaliRuntime::Options ro;
  ro.dispatch = wasm::DispatchMode::kSwitch;
  ro.jit = wasm::JitTier::kOff;
  wali::WaliRuntime runtime(&linker, ro);
  host::Supervisor::Options so;
  so.workers = 2;  // a pipe pair blocks one worker per side
  so.dispatch = wasm::DispatchMode::kSwitch;
  so.jit = wasm::JitTier::kOff;
  host::Supervisor sup(&runtime, so);
  host::ModuleCache cache;

  std::vector<std::future<host::RunReport>> futures;
  for (Served& m : w->modules) {
    auto mod = cache.Load(m.bytes);
    if (!mod.ok()) {
      *err = m.name + ": " + mod.status().ToString();
      return false;
    }
    host::GuestJob job;
    job.module = *mod;
    job.tenant = m.tenant;
    job.argv = w->pipe_messages > 0 ? lanes[0].Argv(m, m.name == "pipe.ping", 123456789)
                                    : m.argv;
    futures.push_back(sup.Submit(std::move(job)));
  }
  for (size_t i = 0; i < w->modules.size(); ++i) {
    host::RunReport r = futures[i].get();
    Served& m = w->modules[i];
    if (!r.completed()) {
      *err = "oracle run of " + m.name + " failed: " + host::OutcomeName(r.outcome) + " " +
             r.trap_message;
      return false;
    }
    m.exit_code = r.exit_code;
    m.instrs = r.executed_instrs;
    if (m.has_native && m.exit_code != m.native) {
      *err = m.name + ": oracle result " + std::to_string(m.exit_code) +
             " != native " + std::to_string(m.native);
      return false;
    }
  }
  return true;
}

// ----------------------------------------------------------- statistics ---

// Linear interpolation between closest ranks; p in [0, 1].
double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Fixed-size uniform sample of a stream (Vitter's algorithm R), so the
// benchmark's memory does not grow with the program's throughput.
class Reservoir {
 public:
  explicit Reservoir(size_t capacity = 8192) : capacity_(capacity), rng_(capacity) {}
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    ++seen_;
    if (kept_.size() < capacity_) {
      kept_.push_back(v);
    } else {
      uint64_t j = rng_.Next() % seen_;
      if (j < capacity_) kept_[j] = v;
    }
  }
  uint64_t seen() const { return seen_; }
  double Quantile(double p) const { return servebench::Quantile(kept_, p); }

 private:
  size_t capacity_;
  Rng rng_;
  std::mutex mu_;
  std::vector<double> kept_;
  uint64_t seen_ = 0;
};

double ProcessCpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double RssMb() {
  long pages = 0, resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
  std::fclose(f);
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

struct JitCounters {
  uint64_t compiles = 0, tierups = 0, osr_exits = 0, compile_nanos = 0;
};

JitCounters ReadJit(const std::vector<std::shared_ptr<const wasm::Module>>& modules) {
  JitCounters c;
  for (const auto& m : modules) {
    if (m == nullptr || m->jit == nullptr) continue;
    c.compiles += m->jit->compiles.load();
    c.tierups += m->jit->tierups.load();
    c.osr_exits += m->jit->osr_exits.load();
    c.compile_nanos += m->jit->compile_nanos_sum.load();
  }
  return c;
}

// ------------------------------------------------------------ the host ---

// Everything one measured pass serves through, built from scratch so the
// JIT's heat and deopt state on the cached modules starts cold every time.
// Members are destroyed in reverse: the Supervisor shuts down before the
// backend it borrows.
struct Host {
  host::ModuleCache cache;
  std::unique_ptr<host::IoBackend> backend;
  host::IoUringBackend* uring = nullptr;
  std::unique_ptr<host::Supervisor> sup;
  std::vector<std::shared_ptr<const wasm::Module>> loaded;
  double miss_ms = 0;  // mean ModuleCache::Load on a miss
};

const char* ResolvedBackend() { return host::IoUringAvailable() ? "io_uring" : "poll"; }

// Loads every module (cache misses), starts the backend and Supervisor.
bool StartHost(wali::WaliRuntime* runtime, const Workload& w, size_t workers,
               host::Telemetry* tel, Host* h, std::string* err) {
  if (tel != nullptr) h->cache.SetTelemetry(tel);
  int64_t miss_ns = 0;
  for (const Served& m : w.modules) {
    int64_t t0 = MonotonicNanos();
    auto mod = h->cache.Load(m.bytes);
    miss_ns += MonotonicNanos() - t0;
    if (!mod.ok()) {
      *err = m.name + ": " + mod.status().ToString();
      return false;
    }
    h->loaded.push_back(*mod);
  }
  h->miss_ms = miss_ns / 1e6 / static_cast<double>(w.modules.size());
  host::Supervisor::Options so;  // defaults: JIT kAuto, dispatch auto
  so.workers = workers;
  if (w.async_io) {
    // walirun's `--io-backend auto` resolution.
    if (host::IoUringAvailable()) {
      auto u = std::make_unique<host::IoUringBackend>();
      if (tel != nullptr) u->SetTelemetry(tel);
      h->uring = u.get();
      h->backend = std::move(u);
    } else {
      auto r = std::make_unique<host::IoReactor>();
      if (tel != nullptr) r->SetTelemetry(tel);
      h->backend = std::move(r);
    }
    so.io_backend = h->backend.get();
  }
  so.telemetry = tel;
  h->sup = std::make_unique<host::Supervisor>(runtime, so);
  return true;
}

// ------------------------------------------------------- the closed loop ---

// Per-caller results, merged after the callers are joined.
struct LaneStats {
  LayerTimes layers;  // guests that finished inside the timed window
  uint64_t instrs = 0, syscalls = 0, parks = 0, cpu_ns = 0;
  uint64_t attempted = 0, failed = 0;  // every guest the loop submitted
  std::string first_failure;
};

// In-window samples, pooled over a pass's windows.
struct Samples {
  Reservoir latency{32768};
  Reservoir app_latency[kNumApps];
  // Traced pass: the first guests' spans, kept for the span file.
  std::vector<GuestSpan> spans;
  std::atomic<size_t> spans_used{0};
};

struct LoopShared {
  const Workload* w = nullptr;
  Host* h = nullptr;
  std::vector<PipeLane>* lanes = nullptr;
  std::atomic<uint64_t> next{0};
  // Warm-up: units left to start. Timed: run until `deadline`, and count a
  // guest into the window when its report arrived by then.
  std::atomic<int64_t> units_left{0};
  bool timed = false;
  int64_t window_start = 0;
  int64_t deadline = 0;
  Samples* samples = nullptr;  // timed windows only
};

bool TakeUnit(LoopShared& s) {
  if (s.timed) return MonotonicNanos() < s.deadline;
  return s.units_left.fetch_sub(1) > 0;
}

void CallerLoop(LoopShared& s, uint32_t lane, LaneStats* out) {
  const Workload& w = *s.w;
  Host& h = *s.h;
  PipeLane* pipe = s.lanes != nullptr ? &(*s.lanes)[lane] : nullptr;
  while (TakeUnit(s)) {
    if (pipe != nullptr && pipe->dead) return;
    const Unit& u = w.sequence[s.next.fetch_add(1) % w.sequence.size()];
    GuestSpan span[2];
    std::future<host::RunReport> fut[2];
    bool unit_ok = true;
    for (uint32_t g = 0; g < u.count; ++g) {
      const Served& m = w.modules[u.module[g]];
      span[g].lane = lane * 2 + g;
      span[g].module = u.module[g];
      span[g].load_start = MonotonicNanos();
      auto mod = h.cache.Load(m.bytes);
      span[g].submit_start = MonotonicNanos();
      host::GuestJob job;
      if (mod.ok()) job.module = *mod;
      job.tenant = m.tenant;
      job.argv = pipe != nullptr ? pipe->Argv(m, m.name == "pipe.ping", u.payload) : m.argv;
      fut[g] = h.sup->Submit(std::move(job));
      span[g].submit_end = MonotonicNanos();
    }
    for (uint32_t g = 0; g < u.count; ++g) {
      const Served& m = w.modules[u.module[g]];
      host::RunReport r;
      // A pair whose partner broke never finishes; give up on it rather
      // than hang, and wake it by closing the lane.
      if (fut[g].wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
        if (pipe != nullptr) pipe->Kill();
        r = fut[g].get();
        r.outcome = host::Outcome::kTrapped;
        r.trap_message = "no report within 30 s";
      } else {
        r = fut[g].get();
      }
      span[g].done = MonotonicNanos();
      ++out->attempted;
      std::string bad = CheckReport(m, r, w.async_io);
      if (!bad.empty()) {
        ++out->failed;
        unit_ok = false;
        if (out->first_failure.empty()) out->first_failure = bad;
        continue;
      }
      if (!s.timed || span[g].done > s.deadline) continue;
      GuestSpan& sp = span[g];
      sp.queue = r.queue_nanos;
      sp.wall = r.wall_nanos;
      sp.wali = r.wali_nanos;
      sp.kernel = r.kernel_nanos;
      sp.blocked = r.blocked_nanos;
      sp.resume_queue = r.resume_queue_nanos;
      out->layers.Add(sp);
      out->instrs += r.executed_instrs;
      out->syscalls += r.total_syscalls;
      out->parks += r.parks;
      out->cpu_ns += static_cast<uint64_t>(r.cpu_nanos);
      const double ms = (sp.done - sp.submit_start) / 1e6;
      Samples& smp = *s.samples;
      smp.latency.Add(ms);
      if (m.app >= 0) smp.app_latency[m.app].Add(ms);
      if (smp.spans_used.load(std::memory_order_relaxed) < smp.spans.size()) {
        size_t i = smp.spans_used.fetch_add(1);
        if (i < smp.spans.size()) smp.spans[i] = sp;
      }
    }
    if (!unit_ok && pipe != nullptr) pipe->Kill();
  }
}

// Runs `callers` closed-loop callers until the limit set in `s` is reached.
void RunCallers(LoopShared& s, std::vector<LaneStats>* stats) {
  stats->assign(s.w->callers, LaneStats());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < s.w->callers; ++i) {
    threads.emplace_back(CallerLoop, std::ref(s), static_cast<uint32_t>(i), &(*stats)[i]);
  }
  for (std::thread& t : threads) t.join();
}

// Calls EvictAllParked every millisecond, like walirun --evict-parked, and
// times each sweep from outside.
class Sweeper {
 public:
  explicit Sweeper(host::Supervisor* sup) : sup_(sup) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~Sweeper() { Stop(); }
  Sweeper(const Sweeper&) = delete;
  Sweeper& operator=(const Sweeper&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // Sweeps that started inside [from, to).
  void Window(int64_t from, int64_t to, int64_t* ns, uint64_t* evicted) const {
    std::lock_guard<std::mutex> lock(mu_);
    *ns = 0;
    *evicted = 0;
    for (const EvictSpan& e : sweeps_) {
      if (e.start < from || e.start >= to) continue;
      *ns += e.end - e.start;
      *evicted += e.evicted;
    }
  }
  std::vector<EvictSpan> Spans(size_t max) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<EvictSpan> out;
    for (const EvictSpan& e : sweeps_) {
      if (out.size() >= max) break;
      if (e.evicted > 0) out.push_back(e);
    }
    return out;
  }

 private:
  void Loop() {
    while (!stop_.load()) {
      EvictSpan e;
      e.start = MonotonicNanos();
      e.evicted = sup_->EvictAllParked();
      e.end = MonotonicNanos();
      {
        // A sweep is 24 bytes; a 60 s run at 1 kHz keeps under 2 MiB.
        std::lock_guard<std::mutex> lock(mu_);
        sweeps_.push_back(e);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  host::Supervisor* sup_;
  mutable std::mutex mu_;
  std::vector<EvictSpan> sweeps_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------- passes ---

// What a pass measured, summed (or, where noted, combined otherwise) over
// its windows. Counter fields are window deltas of the program's own stats.
struct PassResult {
  double setup_s = 0;  // median over the pass's set-ups
  double window_s = 0;
  uint64_t completed = 0;  // guests whose report arrived inside a window
  double cpu_s = 0;
  // 95th percentile of the resident set sampled every 10 ms in the
  // windows: the peak without one-sample spikes.
  double peak_rss_mb = 0;
  double rss_min_mb = 0, rss_max_mb = 0;
  LaneStats total;
  double latency_p50_ms = 0, latency_p99_ms = 0;
  uint64_t latency_samples = 0;
  double app_p50_ms[kNumApps] = {};
  uint64_t hosts = 0;
  double miss_ms = 0;  // mean over hosts
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t pool_hits = 0, pool_misses = 0, pool_drops = 0;
  uint64_t pool_high_water = 0, peak_in_flight = 0;  // max over hosts
  uint64_t parks = 0, orphans = 0, evicts = 0, restores = 0;
  uint64_t sqes = 0, enters = 0;
  uint64_t jit_tierups = 0, jit_osr_exits = 0;
  uint64_t jit_compiles = 0, jit_compile_ns = 0;  // since load, summed over hosts
  int64_t evict_ns = 0;  // timed EvictAllParked sweeps inside the windows
  uint64_t evicted = 0;
  std::string failure;
};

struct PassConfig {
  size_t windows = 1;  // each on its own freshly set-up host
  double seconds = 1;  // split evenly over the windows
  host::Telemetry* telemetry = nullptr;
  size_t keep_spans = 0;  // guests whose spans the pass keeps for the span file
  bool app_probe = false;
};

void NoteFailure(PassResult* r, const std::string& what) {
  if (r->failure.empty()) r->failure = what;
}

void MergeLanes(const std::vector<LaneStats>& lanes, LaneStats* total, PassResult* r) {
  for (const LaneStats& l : lanes) {
    total->layers.Merge(l.layers);
    total->instrs += l.instrs;
    total->syscalls += l.syscalls;
    total->parks += l.parks;
    total->cpu_ns += l.cpu_ns;
    total->attempted += l.attempted;
    total->failed += l.failed;
    if (!l.first_failure.empty()) NoteFailure(r, l.first_failure);
  }
}

// app_p50_ms.* on the workloads that do not serve the apps: after each
// window, every app runs a few times, alone, on a fresh default supervisor
// without async offload (the memcached analog's server thread traps when its
// syscalls offload). Spreading the runs over the pass keeps one burst of
// load from elsewhere on the machine from moving the median.
class AppProbe {
 public:
  bool Init(const Args& a, size_t workers, std::string* err) {
    Args probe_args = a;
    probe_args.workload = "app_long";
    std::vector<PipeLane> no_lanes;
    return BuildWorkload(probe_args, workers, &apps_, err) &&
           TakeReferences(&apps_, no_lanes, err);
  }

  void Run(wali::WaliRuntime* runtime, size_t workers, PassResult* r) {
    Host h;
    std::string err;
    if (!StartHost(runtime, apps_, workers, nullptr, &h, &err)) {
      NoteFailure(r, "app probe: " + err);
      return;
    }
    for (size_t k = 0; k < kNumApps; ++k) {
      const Served& m = apps_.modules[k];
      for (int rep = 0; rep < 7; ++rep) {
        host::GuestJob job;
        job.module = h.loaded[k];
        job.tenant = m.tenant;
        job.argv = m.argv;
        int64_t t0 = MonotonicNanos();
        host::RunReport report = h.sup->Submit(std::move(job)).get();
        ms_[k].push_back((MonotonicNanos() - t0) / 1e6);
        std::string bad = CheckReport(m, report, false);
        if (!bad.empty()) NoteFailure(r, "app probe: " + bad);
      }
    }
  }

  double MedianMs(size_t app) const { return Median(ms_[app]); }

 private:
  Workload apps_;
  std::vector<double> ms_[kNumApps];
};

// One timed window on a set-up host, its counters added into `r`.
void RunWindow(const Workload& w, Host& h, Sweeper* sweeper, std::vector<PipeLane>* lanes,
               double seconds, Samples* samples, PassResult* r, std::vector<double>* rss) {
  LoopShared s;
  s.w = &w;
  s.h = &h;
  s.lanes = lanes;
  s.timed = true;
  s.samples = samples;
  const host::ModuleCache::Stats cache0 = h.cache.stats();
  const host::InstancePool::Stats pool0 = h.sup->pool().stats();
  const host::Supervisor::IoStats io0 = h.sup->io_stats();
  const host::IoUringBackend::Stats uring0 =
      h.uring != nullptr ? h.uring->stats() : host::IoUringBackend::Stats();
  const JitCounters jit0 = ReadJit(h.loaded);
  const double cpu0 = ProcessCpuSeconds();
  std::vector<LaneStats> lane_stats;
  s.window_start = MonotonicNanos();
  s.deadline = s.window_start + static_cast<int64_t>(seconds * 1e9);
  std::thread callers(RunCallers, std::ref(s), &lane_stats);
  // The main thread samples resident memory until the window closes.
  for (int64_t now = MonotonicNanos(); now < s.deadline; now = MonotonicNanos()) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(std::min<int64_t>(10000000, s.deadline - now)));
    rss->push_back(RssMb());
  }
  r->cpu_s += ProcessCpuSeconds() - cpu0;
  r->window_s += (MonotonicNanos() - s.window_start) / 1e9;
  const host::ModuleCache::Stats cache1 = h.cache.stats();
  const host::InstancePool::Stats pool1 = h.sup->pool().stats();
  const host::Supervisor::IoStats io1 = h.sup->io_stats();
  const host::IoUringBackend::Stats uring1 =
      h.uring != nullptr ? h.uring->stats() : host::IoUringBackend::Stats();
  const JitCounters jit1 = ReadJit(h.loaded);
  callers.join();
  r->cache_hits += cache1.hits - cache0.hits;
  r->cache_misses += cache1.misses - cache0.misses;
  r->pool_hits += pool1.hits - pool0.hits;
  r->pool_misses += pool1.misses - pool0.misses;
  r->pool_drops += pool1.drops - pool0.drops;
  r->pool_high_water = std::max(r->pool_high_water, pool1.high_water);
  r->peak_in_flight = std::max(r->peak_in_flight, io1.peak_in_flight);
  r->parks += io1.parks_total - io0.parks_total;
  r->orphans += io1.orphan_completions - io0.orphan_completions;
  r->evicts += io1.evicts_total - io0.evicts_total;
  r->restores += io1.restores_total - io0.restores_total;
  r->sqes += uring1.sqes - uring0.sqes;
  r->enters += uring1.enters - uring0.enters;
  r->jit_tierups += jit1.tierups - jit0.tierups;
  r->jit_osr_exits += jit1.osr_exits - jit0.osr_exits;
  r->jit_compiles += jit1.compiles;
  r->jit_compile_ns += jit1.compile_nanos;
  if (sweeper != nullptr) {
    int64_t ns = 0;
    uint64_t evicted = 0;
    sweeper->Window(s.window_start, s.deadline, &ns, &evicted);
    r->evict_ns += ns;
    r->evicted += evicted;
  }
  MergeLanes(lane_stats, &r->total, r);
}

// One measured pass: `windows` times, set up a host from scratch (timed,
// including warm-up), then run a timed closed-loop window on it. Pooling
// windows over independent set-ups averages out how each set-up's JIT state
// happened to settle.
bool RunPass(const Args& a, wali::WaliRuntime* runtime, const Workload& w, size_t workers,
             std::vector<PipeLane>* lanes, const PassConfig& cfg, PassResult* r,
             std::vector<GuestSpan>* spans, std::vector<EvictSpan>* evicts) {
  Samples samples;
  samples.spans.resize(cfg.keep_spans);
  AppProbe probe;
  if (cfg.app_probe) {
    std::string err;
    if (!probe.Init(a, workers, &err)) {
      NoteFailure(r, "app probe: " + err);
      return false;
    }
  }
  std::vector<double> setup_s, rss;
  for (size_t k = 0; k < cfg.windows; ++k) {
    std::string err;
    int64_t t0 = MonotonicNanos();
    Host h;
    if (!StartHost(runtime, w, workers, cfg.telemetry, &h, &err)) {
      NoteFailure(r, err);
      return false;
    }
    std::unique_ptr<Sweeper> sweeper;
    if (w.evict_sweeper) sweeper = std::make_unique<Sweeper>(h.sup.get());
    LoopShared warm;
    warm.w = &w;
    warm.h = &h;
    warm.lanes = lanes;
    warm.units_left.store(static_cast<int64_t>(w.warmup_units));
    std::vector<LaneStats> warm_lanes;
    RunCallers(warm, &warm_lanes);
    setup_s.push_back((MonotonicNanos() - t0) / 1e9);
    LaneStats warm_total;
    MergeLanes(warm_lanes, &warm_total, r);
    r->total.attempted += warm_total.attempted;
    r->total.failed += warm_total.failed;

    RunWindow(w, h, sweeper.get(), lanes, cfg.seconds / static_cast<double>(cfg.windows),
              &samples, r, &rss);
    if (sweeper != nullptr) {
      sweeper->Stop();
      if (evicts != nullptr && evicts->empty()) *evicts = sweeper->Spans(2000);
    }
    r->miss_ms += h.miss_ms / static_cast<double>(cfg.windows);
    ++r->hosts;
    if (cfg.app_probe) {
      sweeper.reset();
      h.sup->Shutdown();
      probe.Run(runtime, workers, r);
    }
  }
  r->setup_s = Median(setup_s);
  r->peak_rss_mb = Quantile(rss, 0.95);
  r->rss_min_mb = Quantile(rss, 0);
  r->rss_max_mb = Quantile(rss, 1);
  r->completed = r->total.layers.guests;
  r->latency_samples = samples.latency.seen();
  r->latency_p50_ms = samples.latency.Quantile(0.5);
  r->latency_p99_ms = samples.latency.Quantile(0.99);
  for (size_t k = 0; k < kNumApps; ++k) {
    r->app_p50_ms[k] =
        cfg.app_probe ? probe.MedianMs(k) : samples.app_latency[k].Quantile(0.5);
  }
  if (spans != nullptr) {
    spans->assign(samples.spans.begin(),
                  samples.spans.begin() +
                      std::min(samples.spans_used.load(), samples.spans.size()));
  }
  return true;
}

// ---------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::vector<Metric> EndToEnd(const PassResult& r) {
  const double n = static_cast<double>(r.completed);
  std::vector<Metric> m = {
      {"setup_s", r.setup_s, "s"},
      {"guests_per_s", Ratio(n, r.window_s), "1/s"},
      {"latency_p50_ms", r.latency_p50_ms, "ms"},
      {"latency_p99_ms", r.latency_p99_ms, "ms"},
      {"cpu_us_per_guest", Ratio(r.cpu_s * 1e6, n), "us"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
  for (size_t k = 0; k < kNumApps; ++k) {
    m.push_back({std::string("app_p50_ms.") + kApps[k], r.app_p50_ms[k], "ms"});
  }
  return m;
}

std::vector<Metric> PerLayer(const PassResult& r, double overhead_ratio) {
  const LaneStats& t = r.total;
  const LayerTimes& L = t.layers;
  const double n = static_cast<double>(std::max<uint64_t>(L.guests, 1));
  const double hosts = static_cast<double>(std::max<uint64_t>(r.hosts, 1));
  const double wall_ns = static_cast<double>(L.ns[kExec] + L.ns[kWali] + L.ns[kKernel]);
  const double blocked_ns = static_cast<double>(L.ns[kIoWait] + L.ns[kResumeQueue]);
  auto d = [](uint64_t v) { return static_cast<double>(v); };
  return {
      {"module_cache.miss_ms", r.miss_ms, "ms"},
      {"module_cache.hit_us", L.PerGuestUs(kCacheLoad), "us"},
      {"module_cache.hit_ratio", Ratio(d(r.cache_hits), d(r.cache_hits + r.cache_misses)),
       "ratio"},
      {"pool.hit_ratio", Ratio(d(r.pool_hits), d(r.pool_hits + r.pool_misses)), "ratio"},
      {"pool.drops", d(r.pool_drops), "count"},
      {"pool.high_water", d(r.pool_high_water), "count"},
      {"supervisor.submit_us", L.PerGuestUs(kSubmit), "us"},
      {"supervisor.queue_us", L.PerGuestUs(kQueue), "us"},
      {"supervisor.resume_queue_us", Ratio(L.ns[kResumeQueue] / 1e3, d(t.parks)), "us"},
      {"supervisor.peak_in_flight", d(r.peak_in_flight), "count"},
      {"supervisor.residual_us", L.PerGuestUs(kResidual), "us"},
      {"supervisor.residual_negative", d(L.negative_residuals), "count"},
      {"exec.wall_us", wall_ns / 1e3 / n, "us"},
      {"exec.app_us", L.PerGuestUs(kExec), "us"},
      {"exec.ns_per_instr", Ratio(d(static_cast<uint64_t>(L.ns[kExec])), d(t.instrs)), "ns"},
      {"exec.instrs_per_guest", d(t.instrs) / n, "count"},
      {"jit.compiles", d(r.jit_compiles) / hosts, "count"},
      {"jit.tierups", d(r.jit_tierups) / n, "count"},
      {"jit.osr_exits_per_guest", d(r.jit_osr_exits) / n, "count"},
      {"jit.compile_ms", d(r.jit_compile_ns) / 1e6 / hosts, "ms"},
      {"wali.handler_us", L.PerGuestUs(kWali), "us"},
      {"wali.kernel_us", L.PerGuestUs(kKernel), "us"},
      {"wali.syscalls_per_guest", d(t.syscalls) / n, "count"},
      {"io.parks_per_guest", d(t.parks) / n, "count"},
      {"io.blocked_ms", blocked_ns / 1e6 / n, "ms"},
      {"io.sqes_per_enter", Ratio(d(r.sqes), d(r.enters)), "ratio"},
      {"io.orphan_completions", d(r.orphans), "count"},
      {"snapshot.evict_us", Ratio(r.evict_ns / 1e3, d(r.evicted)), "us"},
      {"snapshot.evict_ratio", Ratio(d(r.evicts), d(r.parks)), "ratio"},
      {"snapshot.restores", d(r.restores) / n, "count"},
      {"ledger.cpu_us_per_guest", d(t.cpu_ns) / 1e3 / n, "us"},
      {"latency.samples", d(r.latency_samples), "count"},
      {"telemetry.overhead_ratio", overhead_ratio, "ratio"},
  };
}

void PrintPass(const char* label, const PassResult& r) {
  std::printf("%s: %llu guests in %.3f s window (%.1f guests/s), setup %.4f s, "
              "latency p50 %.4f ms p99 %.4f ms over %llu samples, failed %llu of %llu\n",
              label, static_cast<unsigned long long>(r.completed), r.window_s,
              Ratio(static_cast<double>(r.completed), r.window_s), r.setup_s,
              r.latency_p50_ms, r.latency_p99_ms,
              static_cast<unsigned long long>(r.latency_samples),
              static_cast<unsigned long long>(r.total.failed),
              static_cast<unsigned long long>(r.total.attempted));
  std::printf("%s: resident set %.2f MB min, %.2f MB p95, %.2f MB max\n", label, r.rss_min_mb,
              r.peak_rss_mb, r.rss_max_mb);
  if (!r.failure.empty()) std::printf("%s: first failure: %s\n", label, r.failure.c_str());
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: servebench --workload serve_short|app_long|park_pipe|park_evict "
                 "--seed N --seconds S --trace 0|1 [--quick] "
                 "[--trace-dir DIR] [--source ID]\n");
    return 2;
  }
  // A pipe guest writing to a lane closed under it must see EPIPE, not die.
  signal(SIGPIPE, SIG_IGN);
  const size_t nproc = Nproc();
  const size_t workers = std::max<size_t>(1, nproc - 1);

  Workload w;
  std::string err;
  if (!BuildWorkload(a, workers, &w, &err)) {
    std::fprintf(stderr, "servebench: %s\n", err.c_str());
    return 1;
  }
  std::printf("servebench: workload=%s seed=%llu nproc=%zu workers=%zu callers=%zu "
              "build=%s source=%s jit_available=%d io_backend_auto=%s%s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), nproc, workers,
              w.callers, SERVEBENCH_BUILD_TYPE, a.source.c_str(), wasm::JitAvailable() ? 1 : 0,
              ResolvedBackend(), w.async_io ? "" : " (unused: no async offload)");

  std::vector<PipeLane> lanes(w.pipe_messages > 0 ? w.callers : 0);
  for (PipeLane& l : lanes) {
    if (!l.Open()) {
      std::fprintf(stderr, "servebench: cannot open lane pipes: %s\n", std::strerror(errno));
      return 1;
    }
  }
  std::vector<PipeLane>* lanes_ptr = lanes.empty() ? nullptr : &lanes;
  if (!TakeReferences(&w, lanes, &err)) {
    std::fprintf(stderr, "servebench: %s\n", err.c_str());
    return 1;
  }

  wasm::Linker linker;
  wali::WaliRuntime runtime(&linker);  // defaults: what `walirun --serve` runs
  const size_t windows = a.quick ? 1 : 3;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
  if (!a.trace) {
    PassConfig cfg;
    cfg.windows = windows;
    cfg.seconds = a.seconds;
    cfg.app_probe = w.name != "app_long";
    PassResult r;
    if (!RunPass(a, &runtime, w, workers, lanes_ptr, cfg, &r, nullptr, nullptr)) {
      std::fprintf(stderr, "servebench: %s\n", r.failure.c_str());
      return 1;
    }
    PrintPass("untraced", r);
    correct = r.failure.empty();
    attempted = r.total.attempted;
    failed = r.total.failed;
    metrics = EndToEnd(r);
  } else {
    // Half the time untraced (the per-layer counters come from here), half
    // with a Telemetry sink attached (the span file and self-time table).
    PassConfig cfg;
    cfg.seconds = a.seconds / 2;
    PassResult plain;
    if (!RunPass(a, &runtime, w, workers, lanes_ptr, cfg, &plain, nullptr, nullptr)) {
      std::fprintf(stderr, "servebench: %s\n", plain.failure.c_str());
      return 1;
    }
    PrintPass("untraced", plain);
    host::Telemetry tel;
    cfg.telemetry = &tel;
    cfg.keep_spans = 2000;
    PassResult traced;
    std::vector<GuestSpan> spans;
    std::vector<EvictSpan> evicts;
    if (!RunPass(a, &runtime, w, workers, lanes_ptr, cfg, &traced, &spans, &evicts)) {
      std::fprintf(stderr, "servebench: %s\n", traced.failure.c_str());
      return 1;
    }
    PrintPass("traced", traced);
    PrintLayerTable(stdout, traced.total.layers, traced.evict_ns);
    std::vector<std::string> names;
    for (const Served& m : w.modules) names.push_back(m.name);
    const std::string path = a.trace_dir + "/servebench-" + w.name + ".trace.json";
    if (!host::Telemetry::WriteFile(path, ChromeTraceJson(w.name, spans, evicts, names))) {
      std::fprintf(stderr, "servebench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("span file: %s (%zu guests, %zu evict sweeps)\n", path.c_str(), spans.size(),
                evicts.size());
    const double plain_rate = Ratio(static_cast<double>(plain.completed), plain.window_s);
    const double traced_rate = Ratio(static_cast<double>(traced.completed), traced.window_s);
    correct = plain.failure.empty() && traced.failure.empty();
    attempted = plain.total.attempted + traced.total.attempted;
    failed = plain.total.failed + traced.total.failed;
    metrics = PerLayer(plain, Ratio(traced_rate, plain_rate));
  }
  std::printf("failed_ratio: %llu / %llu\n", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("%s\n", Json(correct && failed == 0, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
