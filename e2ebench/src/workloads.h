// The workloads. Each owns a simulated machine and a TimedIo over the
// transport its controller uses; a round is one whole unit of its
// operations, so every run attempts the same mix.
#ifndef SVR4PROC_E2EBENCH_WORKLOADS_H_
#define SVR4PROC_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "timed_io.h"
#include "svr4proc/procd/procd.h"

namespace e2e {

// Whole-population snapshots per round, taken back to back.
inline constexpr int kSnapshots = 3;

// What one timed phase produced besides the CallLog.
struct Phase {
  // Per session: stops handled, and target Minsn retired, per second of
  // session time. Per round's kSnapshots back-to-back snapshots: their
  // median time in ns.
  WindowSeries session_rate{1, 0.5};
  WindowSeries session_minsn{1, 0.5};
  WindowSeries snapshot_p50_ns{kSnapshots, 0.5};
  uint64_t events = 0;     // stops handled
  uint64_t sessions = 0;   // sessions that ran to the target's exit
  uint64_t snapshots = 0;
  uint64_t attempted = 0;  // stops, snapshots and standalone ctl ops
  uint64_t failed = 0;
  uint64_t tool_ns = 0;  // wall time inside tool calls (sessions, snapshots, ctl ops)
  uint64_t check_failures = 0;
  std::vector<std::string> errors;  // the first few check failures

  // Records a check result; empty means it passed.
  void Check(const std::string& err);
  // Records one session: `events` stops and `insns` target instructions
  // over [t0, t1).
  void Session(uint64_t events, uint64_t insns, uint64_t t0, uint64_t t1);
  // Records one snapshot's wall time.
  void Snapshot(uint64_t ns);
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Drops the machine built by the last Build, if any. Not timed.
  virtual void Teardown() = 0;
  // From an empty Sim to just before the first timed operation: install
  // programs, start and settle the population, connect peers, attach.
  // Returns an empty string, or what failed: a machine that came up short
  // (fewer processes, peers or descriptors) would run a lighter workload.
  virtual std::string Build() = 0;
  // One round of operations.
  virtual void Round(Phase& ph) = 0;

  virtual TimedIo& io() = 0;
  virtual const svr4::Kernel& kernel() = 0;
  // The daemon, on the workload that has one.
  virtual svr4::ProcdServer* procd() { return nullptr; }
  // How many times a run builds the machine; setup_s is their median.
  virtual int setup_reps() const = 0;
};

// dbx-breakpoints or procd-fleet; null for another name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace e2e

#endif  // SVR4PROC_E2EBENCH_WORKLOADS_H_
