// e2e_bench: what a /proc controller sees, end to end and layer by layer.
//
//   e2e_bench --workload <dbx-breakpoints|procd-fleet>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's machine setup_reps() times (setup_s is the median),
// then runs whole rounds for --seconds untraced and reports the end-to-end
// metrics, each the level of the run's quietest windows (see windows.h).
// With --trace 1 the untraced phase takes the first half of --seconds and
// a traced phase of the same work the second; the run then prints the
// per-layer table and each end-to-end metric traced vs untraced (the
// tracing overhead), and reports the per-layer metrics. Each phase starts
// with a few untimed warm-up rounds. The last line of stdout is one JSON
// object. A set-up step that fails ends the run with exit code 1 and no
// result. --seconds is at most 150.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "checks.h"
#include "workloads.h"

namespace e2e {
namespace {

using svr4::KernelCounters;
using svr4::PdOp;
using svr4::ProcdServer;

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The timed phases of one run, --seconds, may take at most this long, so
// that a run with its set-up ends well within the 170 s after which run.py
// stops it.
constexpr double kMaxTimedSeconds = 150;

// Untimed rounds before each phase: the first target's copy-on-write
// breaks, first-touch allocations and cold caches stay out of the figures.
constexpr int kWarmupRounds = 3;

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

// Sum of the server's dequeue->reply span over every op (recorded only
// while spans are armed).
uint64_t SpanSumNs(const ProcdServer& srv) {
  uint64_t s = 0;
  for (int op = 1; op < ProcdServer::kPdOpSlots; ++op) {
    s += srv.op_span(static_cast<PdOp>(op)).lat_ns.sum;
  }
  return s;
}

// One timed phase: its rounds, the probe's log, and counter deltas.
struct PhaseResult {
  Phase ph;
  CallLog log;
  KernelCounters dk;
  ProcdServer::Stats dp;
  uint64_t span_sum_ns = 0;
  uint64_t ioctl_span_sum_ns = 0;
  uint64_t ioctl_span_count = 0;
};

PhaseResult RunPhase(Workload& w, double seconds, bool traced) {
  PhaseResult r;
  w.io().Reset(traced);
  Phase warm;
  for (int i = 0; i < kWarmupRounds; ++i) {
    w.Round(warm);
  }
  r.ph.check_failures = warm.check_failures + warm.failed;
  r.ph.errors = warm.errors;
  if (warm.failed != 0) {
    r.ph.errors.push_back(std::to_string(warm.failed) + " operations failed in the warm-up");
  }
  w.io().Reset(traced);
  ProcdServer* srv = w.procd();
  ProcdServer::Stats p0;
  uint64_t span0 = 0, ioctl_sum0 = 0, ioctl_count0 = 0;
  if (srv != nullptr) {
    srv->EnableSpans(traced);
    p0 = srv->stats();
    span0 = SpanSumNs(*srv);
    ioctl_sum0 = srv->op_span(PdOp::kIoctl).lat_ns.sum;
    ioctl_count0 = srv->op_span(PdOp::kIoctl).lat_ns.count;
  }
  const KernelCounters k0 = w.kernel().counters();
  const uint64_t t0 = NowNs();
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  do {
    w.Round(r.ph);
  } while (NowNs() - t0 < budget);
  const KernelCounters& k1 = w.kernel().counters();
  r.dk.instructions = k1.instructions - k0.instructions;
  r.dk.quanta_interp = k1.quanta_interp - k0.quanta_interp;
  r.dk.quanta_blocks = k1.quanta_blocks - k0.quanta_blocks;
  if (srv != nullptr) {
    const ProcdServer::Stats& p1 = srv->stats();
    r.dp.pump_rounds = p1.pump_rounds - p0.pump_rounds;
    r.dp.peer_scans = p1.peer_scans - p0.peer_scans;
    r.span_sum_ns = SpanSumNs(*srv) - span0;
    r.ioctl_span_sum_ns = srv->op_span(PdOp::kIoctl).lat_ns.sum - ioctl_sum0;
    r.ioctl_span_count = srv->op_span(PdOp::kIoctl).lat_ns.count - ioctl_count0;
    srv->EnableSpans(false);
  }
  r.log = w.io().log();
  return r;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> EndToEnd(const PhaseResult& r, double setup_s) {
  const CallLog& L = r.log;
  return {
      {"setup_s", "s", setup_s},
      {"events_per_s", "1/s", r.ph.session_rate.Quietest(true)},
      {"stop_cycle_p50_us", "us", L.cycles_ns.Quietest(false) / 1e3},
      {"stop_cycle_p99_us", "us", L.cycles_ns.QuietTail() / 1e3},
      {"ctl_p50_us", "us", L.status_p50_ns.Quietest(false) / 1e3},
      {"snapshot_p50_ms", "ms", r.ph.snapshot_p50_ns.Quietest(false) / 1e6},
      {"target_minsn_per_s", "Minsn/s", r.ph.session_minsn.Quietest(true)},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
}

std::vector<Metric> PerLayer(const PhaseResult& r, bool remote) {
  const CallLog& L = r.log;
  const double ev = static_cast<double>(r.ph.events);
  const double quanta = static_cast<double>(r.dk.quanta_interp + r.dk.quanta_blocks);
  const double rpcs = remote ? static_cast<double>(L.calls) : 0;
  const svr4::PrVmStats& vm = L.vm;
  return {
      {"tools.self_us_per_event", "us",
       Ratio(static_cast<double>(r.ph.tool_ns) - static_cast<double>(L.inside_ns), ev) / 1e3},
      {"procfs.calls_per_event", "count", Ratio(static_cast<double>(L.calls), ev)},
      {"procfs.status_p50_us", "us", L.P50Us("Ioctl PIOCSTATUS")},
      {"procfs.run_p50_us", "us", L.P50Us("Ioctl PCRUN")},
      {"procfs.mem_read_p50_us", "us", L.P50Us("Read")},
      {"procfs.mem_write_p50_us", "us", L.P50Us("Write")},
      {"procfs.psinfo_p50_us", "us", L.P50Us("Ioctl PIOCPSINFO")},
      {"procfs.psall_p50_us", "us", L.P50Us("Ioctl PIOCPSALL")},
      {"fs.open_p50_us", "us", L.P50Us("Open")},
      {"fs.close_p50_us", "us", L.P50Us("Close")},
      {"fs.readdir_chunk_p50_us", "us", L.P50Us("ReadDirChunk")},
      {"kernel.wait_p50_us", "us", L.wait_ns.Quantile(0.5) / 1e3},
      {"kernel.quanta_per_event", "count", Ratio(quanta, ev)},
      {"kernel.insns_per_event", "count", Ratio(static_cast<double>(r.dk.instructions), ev)},
      {"isa.blocks_quanta_share", "ratio", Ratio(static_cast<double>(r.dk.quanta_blocks), quanta)},
      {"isa.minsn_per_wait_s", "Minsn/s",
       Ratio(static_cast<double>(L.wait_insns), static_cast<double>(L.wait_ns.sum())) * 1e3},
      {"isa.bb_hit_ratio", "ratio",
       Ratio(static_cast<double>(vm.pr_bb_hits), static_cast<double>(vm.pr_bb_hits + vm.pr_bb_misses))},
      {"isa.bb_invalidations_per_event", "count",
       Ratio(static_cast<double>(vm.pr_bb_invalidations), ev)},
      {"vm.tlb_hit_ratio", "ratio",
       Ratio(static_cast<double>(vm.pr_tlb_hits),
             static_cast<double>(vm.pr_tlb_hits + vm.pr_tlb_misses))},
      {"vm.tlb_flushes_per_event", "count", Ratio(static_cast<double>(vm.pr_tlb_flushes), ev)},
      {"vm.slow_lookups_per_event", "count", Ratio(static_cast<double>(vm.pr_slow_lookups), ev)},
      {"procd.client_p50_us", "us", remote ? L.all_ns.Quantile(0.5) / 1e3 : 0},
      {"procd.server_mean_us", "us",
       Ratio(static_cast<double>(r.ioctl_span_sum_ns), static_cast<double>(r.ioctl_span_count)) /
           1e3},
      {"procd.outside_span_share", "ratio",
       remote ? 1 - Ratio(static_cast<double>(r.span_sum_ns), static_cast<double>(L.inside_ns))
              : 0},
      {"procd.pumps_per_call", "count", Ratio(static_cast<double>(r.dp.pump_rounds), rpcs)},
      {"procd.peer_scans_per_call", "count", Ratio(static_cast<double>(r.dp.peer_scans), rpcs)},
  };
}

void PrintCalls(const CallLog& L) {
  std::printf("\n%-22s %10s %10s %10s %10s\n", "call (traced)", "count", "p50_us", "p99_us",
              "mean_us");
  for (const auto& [name, h] : L.by_call) {
    std::printf("%-22s %10llu %10.3f %10.3f %10.3f\n", name.c_str(),
                static_cast<unsigned long long>(h.count()), h.Quantile(0.5) / 1e3,
                h.Quantile(0.99) / 1e3, h.Mean() / 1e3);
  }
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i ? ", " : "", ms[i].name,
                ms[i].value, ms[i].unit);
  }
  std::printf("}}\n");
}

// Reports check failures; true when the phase passed every check.
bool Passed(const char* phase, const PhaseResult& r, bool traced) {
  std::vector<std::string> errors = r.ph.errors;
  errors.push_back(CheckStatusPids(r.log.status_pid_mismatches));
  if (traced) {
    errors.push_back(CheckVmProbes(r.ph.sessions, r.log.vm_probes));
  }
  // Every end-to-end metric needs full windows.
  bool passed = r.ph.check_failures == 0 && r.log.cycles_ns.windows() > 0 &&
                r.log.status_p50_ns.windows() > 0 && r.ph.snapshot_p50_ns.windows() > 0 &&
                r.ph.sessions > 0;
  for (const std::string& e : errors) {
    if (!e.empty()) {
      std::fprintf(stderr, "check failed (%s): %s\n", phase, e.c_str());
      passed = false;
    }
  }
  return passed;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload <dbx-breakpoints|procd-fleet> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = val;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(val, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::strtod(val, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace = static_cast<int>(std::strtol(val, &end, 10));
    } else {
      return Usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') {
      return Usage("malformed number");
    }
  }
  if (argc % 2 != 1 || workload.empty() || (trace != 0 && trace != 1) ||
      !(seconds > 0 && seconds <= kMaxTimedSeconds)) {
    return Usage("missing or out-of-range argument");
  }
  auto w = MakeWorkload(workload, seed);
  if (w == nullptr) {
    return Usage("unknown workload");
  }

  std::vector<double> setups;
  for (int i = 0; i < w->setup_reps(); ++i) {
    w->Teardown();
    uint64_t t0 = NowNs();
    std::string err = w->Build();
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!err.empty()) {
      std::fprintf(stderr, "e2e_bench: set-up failed: %s\n", err.c_str());
      return 1;
    }
  }
  const double setup_s = Median(setups);

  const double phase_s = trace == 1 ? seconds / 2 : seconds;
  PhaseResult plain = RunPhase(*w, phase_s, false);
  bool correct = Passed("untraced", plain, false);
  std::vector<Metric> e2e = EndToEnd(plain, setup_s);
  std::printf("workload %s seed %llu: %llu events in %llu sessions, %llu snapshots in %.0f s\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(plain.ph.events),
              static_cast<unsigned long long>(plain.ph.sessions),
              static_cast<unsigned long long>(plain.ph.snapshots), phase_s);
  if (trace == 0) {
    for (const Metric& m : e2e) {
      std::printf("  %-24s %14.4f %s\n", m.name, m.value, m.unit);
    }
    PrintJson(correct, plain.ph.attempted, plain.ph.failed, e2e);
    return 0;
  }

  PhaseResult traced = RunPhase(*w, phase_s, true);
  correct = Passed("traced", traced, true) && correct;
  std::vector<Metric> e2e_traced = EndToEnd(traced, setup_s);
  std::printf("\n%-24s %14s %14s %9s\n", "end-to-end", "untraced", "traced", "overhead");
  for (size_t i = 0; i < e2e.size(); ++i) {
    std::printf("%-24s %14.4f %14.4f %8.1f%%  %s\n", e2e[i].name, e2e[i].value,
                e2e_traced[i].value, 100 * (Ratio(e2e_traced[i].value, e2e[i].value) - 1),
                e2e[i].unit);
  }
  std::vector<Metric> layers = PerLayer(traced, w->procd() != nullptr);
  std::printf("\n%-32s %14s\n", "per-layer (traced)", "value");
  for (const Metric& m : layers) {
    std::printf("%-32s %14.4f %s\n", m.name, m.value, m.unit);
  }
  PrintCalls(traced.log);
  PrintJson(correct, plain.ph.attempted + traced.ph.attempted,
            plain.ph.failed + traced.ph.failed, layers);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
