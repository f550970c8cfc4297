// Concurrent multi-tenant supervisor runs: N guests in parallel with
// distinct argv/env must produce isolated exit codes, see no cross-guest
// memory, honor per-tenant syscall policies, and respect per-job fuel
// limits (paper §5's virtualization layering, host-side).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/host/host.h"
#include "tests/wali_test_util.h"

namespace {

std::string WrapModule(const std::string& body) {
  return std::string("(module ") + wali_test::kPrelude + body + ")";
}

struct SupWorld {
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<host::ModuleCache> cache;
  std::unique_ptr<host::Supervisor> sup;
};

SupWorld MakeWorld(size_t workers) {
  SupWorld w;
  w.linker = std::make_unique<wasm::Linker>();
  w.runtime = std::make_unique<wali::WaliRuntime>(w.linker.get());
  w.cache = std::make_unique<host::ModuleCache>();
  host::Supervisor::Options opts;
  opts.workers = workers;
  opts.pool.max_idle_per_module = workers;
  w.sup = std::make_unique<host::Supervisor>(w.runtime.get(), opts);
  return w;
}

// Guest that derives its exit code from argv[1]: copies the string into
// memory, reads the first byte, exits with (byte - '0'). Also writes its
// tenant byte into a scratch word and verifies it is still intact after a
// spin loop — under a recycled or (incorrectly) shared memory another
// concurrent tenant's write would break either the pre-check (must read 0)
// or the post-check (must read back its own byte).
const char* kTenantGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $c i32)
    (local $i i32)
    (drop (call $copy_argv (i64.const 512) (i64.const 1)))
    (local.set $c (i32.load8_u (i32.const 512)))
    ;; scratch word at 8192 must start zeroed (fresh or properly reset slot)
    (if (i32.ne (i32.load (i32.const 8192)) (i32.const 0))
      (then (return (i32.const 99))))
    (i32.store (i32.const 8192) (local.get $c))
    ;; spin long enough for neighbouring tenants to overlap in time
    (local.set $i (i32.const 0))
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 20000)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (if (i32.ne (i32.load (i32.const 8192)) (local.get $c))
      (then (return (i32.const 98))))
    (drop (call $exit (i64.sub (i64.extend_i32_u (local.get $c)) (i64.const 48))))
    (i32.const 0))
)";

TEST(Supervisor, ConcurrentGuestsIsolatedExitCodes) {
  SupWorld w = MakeWorld(/*workers=*/8);
  auto module = w.cache->Load(WrapModule(kTenantGuest));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  const int kJobs = 64;
  std::vector<host::GuestJob> jobs(kJobs);
  for (int k = 0; k < kJobs; ++k) {
    jobs[k].module = *module;
    jobs[k].argv = {"tenant", std::to_string(k % 10)};
    jobs[k].env = {"TENANT_ID=" + std::to_string(k)};
  }
  std::vector<host::RunReport> reports = w.sup->RunAll(std::move(jobs));
  ASSERT_EQ(reports.size(), static_cast<size_t>(kJobs));
  for (int k = 0; k < kJobs; ++k) {
    EXPECT_TRUE(reports[k].completed())
        << "job " << k << ": " << wasm::TrapKindName(reports[k].trap) << " "
        << reports[k].trap_message;
    EXPECT_EQ(reports[k].exit_code, k % 10)
        << "job " << k << " saw another tenant's state";
  }
  // With 8 workers over 64 jobs the pool must have recycled slots.
  host::InstancePool::Stats ps = w.sup->pool().stats();
  EXPECT_GT(ps.hits, 0u);
  EXPECT_LE(ps.high_water, 8u);
  EXPECT_GE(ps.resets, ps.hits);
}

TEST(Supervisor, PerTenantPolicyIsolation) {
  SupWorld w = MakeWorld(/*workers=*/4);
  // Guest exits 42 when getpid is denied (negative return), 7 when allowed.
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (func (export "main") (result i32)
      (if (i64.lt_s (call $getpid) (i64.const 0))
        (then (drop (call $exit (i64.const 42)))))
      (drop (call $exit (i64.const 7)))
      (i32.const 0))
  )"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  auto denied = std::make_shared<wali::SyscallPolicy>();
  denied->Deny("getpid", /*err=*/1);

  std::vector<host::GuestJob> jobs(8);
  for (size_t k = 0; k < jobs.size(); ++k) {
    jobs[k].module = *module;
    jobs[k].argv = {"tenant"};
    if (k % 2 == 0) {
      jobs[k].policy = denied;
    }
  }
  std::vector<host::RunReport> reports = w.sup->RunAll(std::move(jobs));
  for (size_t k = 0; k < reports.size(); ++k) {
    ASSERT_TRUE(reports[k].completed());
    EXPECT_EQ(reports[k].exit_code, k % 2 == 0 ? 42 : 7)
        << "policy leaked between tenants at job " << k;
  }
  EXPECT_GE(denied->denials("getpid"), 4u);
}

TEST(Supervisor, PerJobFuelLimit) {
  SupWorld w = MakeWorld(/*workers=*/2);
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (func (export "main") (result i32)
      (local $i i32)
      (block $done
        (loop $spin
          (br_if $done (i32.ge_u (local.get $i) (i32.const 1000000)))
          (local.set $i (i32.add (local.get $i) (i32.const 1)))
          (br $spin)))
      (i32.const 5))
  )"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  host::GuestJob starved;
  starved.module = *module;
  starved.argv = {"starved"};
  starved.fuel = 1000;  // far below the loop's instruction count
  host::GuestJob fed;
  fed.module = *module;
  fed.argv = {"fed"};

  std::vector<host::RunReport> reports =
      w.sup->RunAll({std::move(starved), std::move(fed)});
  EXPECT_EQ(reports[0].trap, wasm::TrapKind::kFuelExhausted);
  EXPECT_FALSE(reports[0].completed());
  EXPECT_TRUE(reports[1].completed());
  EXPECT_EQ(reports[1].exit_code, 5);
}

TEST(Supervisor, StartFunctionGovernedByJobLimits) {
  // A tenant's (start) function runs under the same fuel budget and policy
  // as the entry point — it must not be able to hang a worker by spinning
  // at instantiation time.
  SupWorld w = MakeWorld(/*workers=*/2);
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (func $boot
      (local $i i32)
      (block $done
        (loop $spin
          (br_if $done (i32.ge_u (local.get $i) (i32.const 10000000)))
          (local.set $i (i32.add (local.get $i) (i32.const 1)))
          (br $spin))))
    (start $boot)
    (func (export "main") (result i32) (i32.const 3))
  )"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  host::GuestJob starved;
  starved.module = *module;
  starved.argv = {"starved"};
  starved.fuel = 1000;
  host::GuestJob fed;
  fed.module = *module;
  fed.argv = {"fed"};

  std::vector<host::RunReport> reports =
      w.sup->RunAll({std::move(starved), std::move(fed)});
  EXPECT_EQ(reports[0].trap, wasm::TrapKind::kFuelExhausted)
      << "(start) escaped the tenant fuel budget";
  EXPECT_TRUE(reports[1].completed());
  EXPECT_EQ(reports[1].exit_code, 3);
}

TEST(Supervisor, ReportsCarrySyscallProfile) {
  SupWorld w = MakeWorld(/*workers=*/2);
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (func (export "main") (result i32)
      (drop (call $getpid))
      (drop (call $getpid))
      (drop (call $gettid))
      (i32.const 0))
  )"));
  ASSERT_TRUE(module.ok());
  host::GuestJob job;
  job.module = *module;
  job.argv = {"prof"};
  std::vector<host::RunReport> reports = w.sup->RunAll({std::move(job)});
  ASSERT_EQ(reports.size(), 1u);
  const host::RunReport& r = reports[0];
  ASSERT_TRUE(r.completed());
  EXPECT_EQ(r.total_syscalls, 3u);
  uint64_t getpid_count = 0;
  for (const auto& [name, count] : r.syscall_counts) {
    if (name == "getpid") getpid_count = count;
  }
  EXPECT_EQ(getpid_count, 2u);
  EXPECT_GE(r.wall_nanos, 0);
}

TEST(Supervisor, ReportsCarryResourceConsumption) {
  // Regression for the accounting plumbing: fuel_consumed and
  // mem_high_water_pages must be nonzero and must grow monotonically with
  // the work a guest actually does (more spin -> more fuel, more
  // memory.grow -> higher high-water). Before the ledger existed these
  // fields were never asserted on anywhere.
  SupWorld w = MakeWorld(/*workers=*/1);
  // argv[1] digit d: grows d pages and spins d*10000 iterations.
  auto module = w.cache->Load(WrapModule(R"(
    (memory 2)
    (func (export "main") (result i32)
      (local $d i32)
      (local $i i32)
      (drop (call $copy_argv (i64.const 512) (i64.const 1)))
      (local.set $d (i32.sub (i32.load8_u (i32.const 512)) (i32.const 48)))
      (drop (memory.grow (local.get $d)))
      (block $done
        (loop $spin
          (br_if $done (i32.ge_u (local.get $i)
                                 (i32.mul (local.get $d) (i32.const 10000))))
          (local.set $i (i32.add (local.get $i) (i32.const 1)))
          (br $spin)))
      (i32.const 0))
  )"));
  ASSERT_TRUE(module.ok()) << module.status().ToString();

  uint64_t prev_fuel = 0, prev_mem = 0;
  for (int d = 1; d <= 3; ++d) {
    host::GuestJob job;
    job.module = *module;
    job.argv = {"grower", std::to_string(d)};
    host::RunReport r = w.sup->RunAll({std::move(job)})[0];
    ASSERT_TRUE(r.completed()) << r.trap_message;
    EXPECT_GT(r.fuel_consumed, 0u);
    EXPECT_EQ(r.fuel_consumed, r.executed_instrs);
    // 2 declared pages + d grown; pooled slot resets must not leak the
    // previous run's larger high-water into this report.
    EXPECT_EQ(r.mem_high_water_pages, 2u + static_cast<uint64_t>(d));
    EXPECT_GT(r.fuel_consumed, prev_fuel);
    EXPECT_GT(r.mem_high_water_pages, prev_mem);
    prev_fuel = r.fuel_consumed;
    prev_mem = r.mem_high_water_pages;
  }
}

TEST(Supervisor, RunAllReturnsReportsInSubmissionOrder) {
  // RunAll's contract: reports[i] always belongs to jobs[i], even when the
  // scheduler dispatches in a different order. Two tenants submitted as
  // all-of-A-then-all-of-B get round-robin interleaved by the fair queue
  // (observable via dispatch_seq), but the reports still come back in
  // submission order.
  SupWorld w = MakeWorld(/*workers=*/2);
  auto module = w.cache->Load(WrapModule(kTenantGuest));
  ASSERT_TRUE(module.ok());

  const int kPerTenant = 6;
  std::vector<host::GuestJob> jobs;
  for (int k = 0; k < 2 * kPerTenant; ++k) {
    host::GuestJob job;
    job.module = *module;
    job.argv = {"tenant", std::to_string(k % 10)};
    job.tenant = k < kPerTenant ? "a" : "b";
    jobs.push_back(std::move(job));
  }
  std::vector<host::RunReport> reports = w.sup->RunAll(std::move(jobs));
  ASSERT_EQ(reports.size(), static_cast<size_t>(2 * kPerTenant));
  for (int k = 0; k < 2 * kPerTenant; ++k) {
    ASSERT_TRUE(reports[k].completed()) << reports[k].trap_message;
    EXPECT_EQ(reports[k].exit_code, k % 10)
        << "report " << k << " does not belong to job " << k;
    EXPECT_EQ(reports[k].tenant, k < kPerTenant ? "a" : "b");
    EXPECT_GE(reports[k].dispatch_seq, 1u);
  }
}

TEST(Supervisor, SubmitAfterShutdownFails) {
  SupWorld w = MakeWorld(/*workers=*/2);
  auto module = w.cache->Load(WrapModule(
      "(memory 2) (func (export \"main\") (result i32) (i32.const 0))"));
  ASSERT_TRUE(module.ok());
  w.sup->Shutdown();
  host::GuestJob job;
  job.module = *module;
  job.argv = {"late"};
  host::RunReport r = w.sup->Submit(std::move(job)).get();
  EXPECT_EQ(r.trap, wasm::TrapKind::kHostError);
  EXPECT_EQ(r.outcome, host::Outcome::kRejected);
}

TEST(Supervisor, ManyRoundsReuseBoundedSlots) {
  SupWorld w = MakeWorld(/*workers=*/4);
  auto module = w.cache->Load(WrapModule(kTenantGuest));
  ASSERT_TRUE(module.ok());
  for (int round = 0; round < 5; ++round) {
    std::vector<host::GuestJob> jobs(16);
    for (size_t k = 0; k < jobs.size(); ++k) {
      jobs[k].module = *module;
      jobs[k].argv = {"tenant", std::to_string(k % 10)};
    }
    std::vector<host::RunReport> reports = w.sup->RunAll(std::move(jobs));
    for (size_t k = 0; k < reports.size(); ++k) {
      ASSERT_TRUE(reports[k].completed());
      ASSERT_EQ(reports[k].exit_code, static_cast<int>(k % 10));
    }
  }
  host::InstancePool::Stats ps = w.sup->pool().stats();
  // 80 runs total; at most workers+idle slots ever built cold.
  EXPECT_LE(ps.misses, 8u);
  EXPECT_GT(ps.hits, 60u);
}

// ---------------------------------------------------------------------------
// Run lifecycle: every way a submitted job can leave the supervisor, pinned
// end to end. Each path must resolve its future exactly once with the right
// outcome and trap, bill the tenant the right tallies, close its span, and
// leave no run counted in flight or evicted.

constexpr int64_t kMs = 1000000;

const char* kExitSevenGuest = "(memory 2) (func (export \"main\") (result i32) (i32.const 7))";
const char* kUnreachableGuest = "(memory 2) (func (export \"main\") (result i32) (unreachable))";

// 20000 loop iterations: far past the 1000-fuel budget the mid-run budget
// case grants.
const char* kSpinGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (local $i i32)
    (block $done
      (loop $spin
        (br_if $done (i32.ge_u (local.get $i) (i32.const 20000)))
        (local.set $i (i32.add (local.get $i) (i32.const 1)))
        (br $spin)))
    (i32.const 0))
)";

// Sleeps 50ms (parks under async offload), then exits 42.
const char* kNapGuest = R"(
  (memory 2)
  (func (export "main") (result i32)
    (i64.store (i32.const 512) (i64.const 0))
    (i64.store (i32.const 520) (i64.const 50000000))
    (drop (call $nanosleep (i64.const 512) (i64.const 0)))
    (i32.const 42))
)";

// Instantiation fails at the pool: the import resolves nowhere.
const char* kUnlinkableGuest = R"(
  (import "nowhere" "nothing" (func $nothing))
  (memory 2)
  (func (export "main") (result i32) (call $nothing) (i32.const 0))
)";

struct LifeSetup {
  size_t queue_depth = 0;
  bool start_paused = false;
  bool evict_to_disk = false;
};

struct LifeWorld {
  std::unique_ptr<wasm::Linker> linker;
  std::unique_ptr<wali::WaliRuntime> runtime;
  std::unique_ptr<host::ModuleCache> cache;
  std::unique_ptr<host::Telemetry> tel;
  std::unique_ptr<host::FakeIoBackend> fake;
  std::shared_ptr<std::atomic<int64_t>> now;
  std::string evict_dir;
  std::unique_ptr<host::Supervisor> sup;

  std::shared_ptr<const wasm::Module> Load(const char* body) {
    auto m = cache->Load(WrapModule(body));
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? *m : nullptr;
  }
  std::future<host::RunReport> Submit(const char* body, int64_t deadline = 0) {
    host::GuestJob job;
    job.module = Load(body);
    job.argv = {"life"};
    job.tenant = "t";
    job.deadline_nanos = deadline;
    return sup->Submit(std::move(job));
  }
  // Advances the supervisor clock and the fake backend's clock together.
  void Advance(int64_t nanos) {
    now->fetch_add(nanos, std::memory_order_acq_rel);
    fake->AdvanceBy(nanos);
  }
  // Waits (bounded) until `n` runs are parked in the backend.
  bool WaitParked(size_t n) {
    for (int i = 0; i < 10000 && fake->pending() != n; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return fake->pending() == n && sup->parked() == n;
  }
  void SetFuelBudget(uint64_t max_fuel) {
    host::TenantBudget b;
    b.max_fuel = max_fuel;
    sup->ledger().SetBudget("t", b);
  }
  std::string EvictOnlyParked() {
    std::vector<uint64_t> cookies = sup->parked_cookies();
    EXPECT_EQ(cookies.size(), 1u);
    if (cookies.empty()) return "";
    common::Status s = sup->EvictParked(cookies[0]);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return evict_dir + "/evict-" + std::to_string(cookies[0]) + ".snap";
  }
};

// Workers=1, manual clock, fake backend, telemetry wired (one LifeWorld per
// case, so every tally starts from zero).
std::unique_ptr<LifeWorld> MakeLifeWorld(const LifeSetup& setup) {
  auto w = std::make_unique<LifeWorld>();
  w->linker = std::make_unique<wasm::Linker>();
  w->runtime = std::make_unique<wali::WaliRuntime>(w->linker.get());
  w->cache = std::make_unique<host::ModuleCache>();
  w->tel = std::make_unique<host::Telemetry>();
  w->fake = std::make_unique<host::FakeIoBackend>();
  w->now = std::make_shared<std::atomic<int64_t>>(0);
  if (setup.evict_to_disk) {
    w->evict_dir = testing::TempDir() + "wali_lifecycle_evict";
    ::mkdir(w->evict_dir.c_str(), 0700);
  }
  host::Supervisor::Options opts;
  opts.workers = 1;
  opts.queue_depth = setup.queue_depth;
  opts.start_paused = setup.start_paused;
  auto now = w->now;
  opts.clock = [now] { return now->load(std::memory_order_acquire); };
  opts.io_backend = w->fake.get();
  opts.telemetry = w->tel.get();
  opts.evict_dir = w->evict_dir;
  opts.pool.max_idle_per_module = 1;
  w->sup = std::make_unique<host::Supervisor>(w->runtime.get(), opts);
  return w;
}

host::TenantUsage Tally(uint64_t runs, uint64_t shed, uint64_t rejected,
                        uint64_t budget_stops, uint64_t host_errors) {
  host::TenantUsage u;
  u.runs = runs;
  u.shed = shed;
  u.rejected = rejected;
  u.budget_stops = budget_stops;
  u.host_errors = host_errors;
  return u;
}

struct LifecycleCase {
  const char* name;
  LifeSetup setup;
  // Drives the path and returns the report of the run under test.
  std::function<host::RunReport(LifeWorld&)> drive;
  host::Outcome outcome;
  wasm::TrapKind trap;
  host::TenantUsage tally;  // final usage of tenant "t" (counts only)
  // Runs that ended holding a live pool slot: exactly those observe the
  // run-wall histogram.
  uint64_t live_ends;
};

TEST(Supervisor, EveryTerminalPathResolvesOnceAndBillsExactly) {
  using host::Outcome;
  using wasm::TrapKind;
  const std::vector<LifecycleCase> cases = {
      {"queue_full_reject", {/*queue_depth=*/1, /*start_paused=*/true},
       [](LifeWorld& w) {
         auto first = w.Submit(kExitSevenGuest);
         host::RunReport r = w.Submit(kExitSevenGuest).get();
         w.sup->Resume();
         EXPECT_TRUE(first.get().completed());
         return r;
       },
       Outcome::kRejected, TrapKind::kHostError, Tally(1, 0, 1, 0, 0), 1},
      {"shutdown_reject", {},
       [](LifeWorld& w) {
         w.sup->Shutdown();
         return w.Submit(kExitSevenGuest).get();
       },
       Outcome::kRejected, TrapKind::kHostError, Tally(0, 0, 1, 0, 0), 0},
      {"forget_tenant_reject", {0, /*start_paused=*/true},
       [](LifeWorld& w) {
         auto f = w.Submit(kExitSevenGuest);
         w.sup->ForgetTenant("t");
         return f.get();
       },
       Outcome::kRejected, TrapKind::kHostError, Tally(0, 0, 0, 0, 0), 0},
      {"shed_in_queue", {0, /*start_paused=*/true},
       [](LifeWorld& w) {
         auto f = w.Submit(kExitSevenGuest, /*deadline=*/10 * kMs);
         w.Advance(20 * kMs);
         w.sup->Resume();
         host::RunReport r = f.get();
         EXPECT_EQ(r.queue_nanos, 20 * kMs);
         EXPECT_EQ(r.dispatch_seq, 0u);
         return r;
       },
       Outcome::kShed, TrapKind::kHostError, Tally(0, 1, 0, 0, 0), 0},
      {"budget_refused_at_dispatch", {},
       [](LifeWorld& w) {
         w.SetFuelBudget(1);
         host::TenantUsage spent;
         spent.fuel = 1;
         w.sup->ledger().Charge("t", spent);
         host::RunReport r = w.Submit(kExitSevenGuest).get();
         EXPECT_EQ(r.dispatch_seq, 1u);
         EXPECT_EQ(r.executed_instrs, 0u);
         return r;
       },
       Outcome::kBudget, TrapKind::kHostError, Tally(0, 0, 0, 1, 0), 0},
      {"pool_acquire_failure", {},
       [](LifeWorld& w) { return w.Submit(kUnlinkableGuest).get(); },
       Outcome::kTrapped, TrapKind::kHostError, Tally(0, 0, 0, 0, 1), 0},
      {"completed", {},
       [](LifeWorld& w) {
         host::RunReport r = w.Submit(kExitSevenGuest).get();
         EXPECT_EQ(r.exit_code, 7);
         return r;
       },
       Outcome::kCompleted, TrapKind::kNone, Tally(1, 0, 0, 0, 0), 1},
      {"guest_trap", {},
       [](LifeWorld& w) { return w.Submit(kUnreachableGuest).get(); },
       Outcome::kTrapped, TrapKind::kUnreachable, Tally(1, 0, 0, 0, 0), 1},
      {"budget_stop_mid_run", {},
       [](LifeWorld& w) {
         w.SetFuelBudget(1000);
         return w.Submit(kSpinGuest).get();
       },
       Outcome::kBudget, TrapKind::kFuelExhausted, Tally(1, 0, 0, 1, 0), 1},
      {"shed_while_parked", {},
       [](LifeWorld& w) {
         auto f = w.Submit(kNapGuest, /*deadline=*/10 * kMs);
         EXPECT_TRUE(w.WaitParked(1));
         w.Advance(10 * kMs);
         return f.get();
       },
       Outcome::kShed, TrapKind::kHostError, Tally(1, 1, 0, 0, 0), 1},
      {"budget_stop_while_parked", {},
       [](LifeWorld& w) {
         auto f = w.Submit(kNapGuest);
         EXPECT_TRUE(w.WaitParked(1));
         // The park already settled more than one instruction of fuel.
         w.SetFuelBudget(1);
         w.Advance(50 * kMs);
         return f.get();
       },
       Outcome::kBudget, TrapKind::kHostError, Tally(1, 0, 0, 1, 0), 1},
      {"shutdown_while_parked", {},
       [](LifeWorld& w) {
         auto f = w.Submit(kNapGuest);
         EXPECT_TRUE(w.WaitParked(1));
         w.sup->Shutdown();
         return f.get();
       },
       Outcome::kShed, TrapKind::kHostError, Tally(1, 1, 0, 0, 0), 1},
      {"evicted_then_restored", {},
       [](LifeWorld& w) {
         auto f = w.Submit(kNapGuest);
         EXPECT_TRUE(w.WaitParked(1));
         w.EvictOnlyParked();
         w.Advance(50 * kMs);
         host::RunReport r = f.get();
         EXPECT_EQ(r.exit_code, 42);
         return r;
       },
       Outcome::kCompleted, TrapKind::kNone, Tally(1, 0, 0, 0, 0), 1},
      {"evicted_then_shed", {},
       [](LifeWorld& w) {
         auto f = w.Submit(kNapGuest);
         EXPECT_TRUE(w.WaitParked(1));
         w.EvictOnlyParked();
         w.sup->Shutdown();
         return f.get();
       },
       Outcome::kShed, TrapKind::kHostError, Tally(1, 1, 0, 0, 0), 0},
      {"evicted_then_unrestorable", {0, false, /*evict_to_disk=*/true},
       [](LifeWorld& w) {
         auto f = w.Submit(kNapGuest);
         EXPECT_TRUE(w.WaitParked(1));
         std::string blob = w.EvictOnlyParked();
         EXPECT_EQ(std::remove(blob.c_str()), 0) << blob;
         w.Advance(50 * kMs);
         return f.get();
       },
       Outcome::kTrapped, TrapKind::kHostError, Tally(1, 0, 0, 0, 1), 0},
  };

  for (const LifecycleCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::unique_ptr<LifeWorld> w = MakeLifeWorld(c.setup);
    host::RunReport r = c.drive(*w);
    EXPECT_EQ(r.outcome, c.outcome) << host::OutcomeName(r.outcome);
    EXPECT_EQ(r.trap, c.trap) << r.trap_message;
    EXPECT_EQ(r.tenant, "t");

    host::TenantUsage u = w->sup->ledger().usage("t");
    EXPECT_EQ(u.runs, c.tally.runs);
    EXPECT_EQ(u.shed, c.tally.shed);
    EXPECT_EQ(u.rejected, c.tally.rejected);
    EXPECT_EQ(u.budget_stops, c.tally.budget_stops);
    EXPECT_EQ(u.host_errors, c.tally.host_errors);

    host::Supervisor::IoStats io = w->sup->io_stats();
    EXPECT_EQ(io.in_flight_now, 0u);
    EXPECT_EQ(io.evicted_now, 0u);

    // Every submit closed exactly one span, and the evicted gauge is back
    // at zero.
    host::Telemetry::Snapshot snap = w->tel->TakeSnapshot();
    uint64_t submitted = 0, ended = 0;
    for (const auto& [name, value] : snap.registry.counters) {
      if (name == "supervisor_jobs_submitted_total") submitted = value;
      if (name.rfind("supervisor_jobs_total{", 0) == 0) ended += value;
    }
    EXPECT_GT(submitted, 0u);
    EXPECT_EQ(ended, submitted);
    for (const auto& [name, value] : snap.registry.gauges) {
      if (name == "supervisor_evicted_now") EXPECT_EQ(value, 0) << name;
    }
    for (const auto& h : snap.registry.histograms) {
      if (h.name == "supervisor_run_wall_nanos") EXPECT_EQ(h.count, c.live_ends);
    }

    w->sup->Shutdown();
    if (!w->evict_dir.empty()) ::rmdir(w->evict_dir.c_str());
  }
}

}  // namespace
