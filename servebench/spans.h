// The benchmark's own spans: one per served guest, laid out from timers
// around the calls the benchmark makes (ModuleCache::Load,
// Supervisor::Submit, the wait for the report) and from the guest's
// RunReport, plus one per Supervisor::EvictAllParked sweep. Nothing here
// reaches inside the program.
#ifndef SERVEBENCH_SPANS_H_
#define SERVEBENCH_SPANS_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace servebench {

// One guest, on the monotonic clock the supervisor also stamps with.
struct GuestSpan {
  int64_t load_start = 0;    // ModuleCache::Load called
  int64_t submit_start = 0;  // Supervisor::Submit called
  int64_t submit_end = 0;    // Submit returned
  int64_t done = 0;          // report in hand
  // From the RunReport.
  int64_t queue = 0;
  int64_t wall = 0;  // on-worker wall, including wali and kernel
  int64_t wali = 0;
  int64_t kernel = 0;
  int64_t blocked = 0;  // parked, including resume_queue
  int64_t resume_queue = 0;
  uint32_t lane = 0;
  uint32_t module = 0;

  // Time the client waited that no measured layer accounts for: slot
  // acquire and reset, ledger settle, restore, finish, the future hand-off.
  int64_t residual() const { return done - submit_end - queue - wall - blocked; }
};

struct EvictSpan {
  int64_t start = 0;
  int64_t end = 0;
  uint64_t evicted = 0;
};

// The layers a guest's span splits into, each with its self time (its own
// duration minus the children laid inside it). They sum to the span.
enum Layer : size_t {
  kCacheLoad = 0,
  kSubmit,
  kQueue,
  kExec,  // on-worker wall minus wali and kernel
  kWali,
  kKernel,
  kIoWait,  // parked minus resume_queue
  kResumeQueue,
  kResidual,
  kNumLayers,
};

// Sums of self time per layer over many guests.
struct LayerTimes {
  int64_t ns[kNumLayers] = {};
  uint64_t guests = 0;
  // Guests whose residual came out negative: some layers' intervals
  // overlapped (the report's queue wait starts inside Submit).
  uint64_t negative_residuals = 0;
  int64_t negative_residual_ns = 0;
  // Of those, the ones whose Submit call lasted longer than the deficit:
  // the caller was still inside Submit while the guest queued and ran.
  uint64_t negative_within_submit = 0;

  void Add(const GuestSpan& s);
  void Merge(const LayerTimes& other);
  int64_t Total() const;
  double PerGuestUs(Layer layer) const {
    return guests == 0 ? 0.0 : ns[layer] / 1e3 / static_cast<double>(guests);
  }
};

// The per-layer self-time table, plus the evict sweeps as their own root.
void PrintLayerTable(std::FILE* out, const LayerTimes& t, int64_t evict_ns);

// chrome://tracing JSON: per lane (tid) one "guest" slice with its layer
// children laid out in order, and the evict sweeps on their own row.
std::string ChromeTraceJson(const std::string& workload,
                            const std::vector<GuestSpan>& guests,
                            const std::vector<EvictSpan>& evicts,
                            const std::vector<std::string>& module_names);

}  // namespace servebench

#endif  // SERVEBENCH_SPANS_H_
