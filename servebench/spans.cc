#include "servebench/spans.h"

#include <algorithm>

namespace servebench {

namespace {

constexpr const char* kLayerNames[kNumLayers] = {
    "cache_load", "submit", "queue",        "exec",     "wali",
    "kernel",     "io_wait", "resume_queue", "residual",
};

// One complete ("X") event; times in microseconds from the trace origin.
void AppendSlice(std::string* out, const char* name, const std::string& args,
                 int tid, int64_t start_ns, int64_t dur_ns, int64_t origin) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                "\"ts\":%.3f,\"dur\":%.3f%s},\n",
                name, tid, (start_ns - origin) / 1e3,
                std::max<int64_t>(dur_ns, 0) / 1e3, args.c_str());
  *out += buf;
}

}  // namespace

void LayerTimes::Add(const GuestSpan& s) {
  ns[kCacheLoad] += s.submit_start - s.load_start;
  ns[kSubmit] += s.submit_end - s.submit_start;
  ns[kQueue] += s.queue;
  ns[kExec] += s.wall - s.wali - s.kernel;
  ns[kWali] += s.wali;
  ns[kKernel] += s.kernel;
  ns[kIoWait] += s.blocked - s.resume_queue;
  ns[kResumeQueue] += s.resume_queue;
  ns[kResidual] += s.residual();
  if (s.residual() < 0) {
    ++negative_residuals;
    negative_residual_ns += s.residual();
    if (s.submit_end - s.submit_start >= -s.residual()) ++negative_within_submit;
  }
  ++guests;
}

void LayerTimes::Merge(const LayerTimes& other) {
  for (size_t i = 0; i < kNumLayers; ++i) ns[i] += other.ns[i];
  guests += other.guests;
  negative_residuals += other.negative_residuals;
  negative_residual_ns += other.negative_residual_ns;
  negative_within_submit += other.negative_within_submit;
}

int64_t LayerTimes::Total() const {
  int64_t total = 0;
  for (int64_t v : ns) total += v;
  return total;
}

void PrintLayerTable(std::FILE* out, const LayerTimes& t, int64_t evict_ns) {
  const double total = static_cast<double>(std::max<int64_t>(t.Total(), 1));
  std::fprintf(out, "self time over %llu guests (us per guest, share of guest span):\n",
               static_cast<unsigned long long>(t.guests));
  for (size_t i = 0; i < kNumLayers; ++i) {
    std::fprintf(out, "  %-13s %12.3f  %6.2f%%\n", kLayerNames[i],
                 t.PerGuestUs(static_cast<Layer>(i)), 100.0 * t.ns[i] / total);
  }
  std::fprintf(out, "  %-13s %12.3f  (sweeper thread, outside guest spans)\n",
               "evict_sweep",
               t.guests == 0 ? 0.0 : evict_ns / 1e3 / static_cast<double>(t.guests));
  if (t.negative_residuals != 0) {
    std::fprintf(out,
                 "  residual negative for %llu guests (%.3f us total); for %llu of "
                 "them submit overlaps queue and run (the report's queue clock "
                 "starts inside Submit, and the caller was still in Submit when "
                 "the guest ran); %llu unexplained\n",
                 static_cast<unsigned long long>(t.negative_residuals),
                 t.negative_residual_ns / 1e3,
                 static_cast<unsigned long long>(t.negative_within_submit),
                 static_cast<unsigned long long>(t.negative_residuals -
                                                 t.negative_within_submit));
  }
}

std::string ChromeTraceJson(const std::string& workload,
                            const std::vector<GuestSpan>& guests,
                            const std::vector<EvictSpan>& evicts,
                            const std::vector<std::string>& module_names) {
  int64_t origin = INT64_MAX;
  for (const GuestSpan& g : guests) origin = std::min(origin, g.load_start);
  for (const EvictSpan& e : evicts) origin = std::min(origin, e.start);
  if (origin == INT64_MAX) origin = 0;

  std::string out = "{\"traceEvents\":[\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"servebench " +
         workload + "\"}},\n";
  for (const GuestSpan& g : guests) {
    const int tid = static_cast<int>(g.lane) + 1;
    const std::string module = g.module < module_names.size() ? module_names[g.module] : "?";
    AppendSlice(&out, "guest", ",\"args\":{\"module\":\"" + module + "\"}", tid,
                g.load_start, g.done - g.load_start, origin);
    AppendSlice(&out, "cache_load", "", tid, g.load_start, g.submit_start - g.load_start,
                origin);
    AppendSlice(&out, "submit", "", tid, g.submit_start, g.submit_end - g.submit_start,
                origin);
    // The report's intervals, laid out after Submit returned in lifecycle
    // order (the supervisor reports durations, not start times).
    int64_t t = g.submit_end;
    AppendSlice(&out, "queue", "", tid, t, g.queue, origin);
    t += g.queue;
    AppendSlice(&out, "run", "", tid, t, g.wall, origin);
    AppendSlice(&out, "wali", "", tid, t + g.wall - g.wali - g.kernel, g.wali, origin);
    AppendSlice(&out, "kernel", "", tid, t + g.wall - g.kernel, g.kernel, origin);
    t += g.wall;
    if (g.blocked > 0) {
      AppendSlice(&out, "blocked", "", tid, t, g.blocked, origin);
      AppendSlice(&out, "resume_queue", "", tid, t + g.blocked - g.resume_queue,
                  g.resume_queue, origin);
    }
  }
  for (const EvictSpan& e : evicts) {
    AppendSlice(&out, "evict_all_parked",
                ",\"args\":{\"evicted\":" + std::to_string(e.evicted) + "}", 0,
                e.start, e.end - e.start, origin);
  }
  if (out.size() >= 2 && out[out.size() - 2] == ',') out.erase(out.size() - 2, 1);
  out += "]}\n";
  return out;
}

}  // namespace servebench
