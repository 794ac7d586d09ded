// Feeds each correctness check a good result and corrupted ones: the good
// one must pass and every corruption must fail. Also checks the generator's
// own arithmetic against the text it emits, and the histogram the metrics
// are read from. Exits non-zero on the first wrong outcome.
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "gen.h"
#include "hist.h"
#include "svr4proc/kernel/syscall.h"

using namespace e2e;

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}
void Passes(const std::string& r, const char* what) { Expect(r.empty(), what); }
void Fails(const std::string& r, const char* what) { Expect(!r.empty(), what); }

svr4::PrPsinfo Row(svr4::Pid pid, char state) {
  svr4::PrPsinfo p;
  p.pr_pid = pid;
  p.pr_state = state;
  return p;
}

void SyscallChecks() {
  const std::map<int, uint64_t> want = {{svr4::SYS_exit, 1}, {svr4::SYS_getuid, 40}};
  Passes(CheckSyscallCounts(want, want), "counts: equal");
  auto off = want;
  off[svr4::SYS_getuid] = 39;
  Fails(CheckSyscallCounts(want, off), "counts: one call missing");
  auto extra = want;
  extra[svr4::SYS_getgid] = 1;
  Fails(CheckSyscallCounts(want, extra), "counts: a call the command never makes");
  auto missing = want;
  missing.erase(svr4::SYS_exit);
  Fails(CheckSyscallCounts(want, missing), "counts: exit not counted");

  Passes(CheckEventCount(41, 41), "events: equal");
  Fails(CheckEventCount(41, 40), "events: exit entry missing");
  Fails(CheckEventCount(41, 42), "events: one stop too many");

  Passes(CheckExitStatus(42, 42), "exit: equal");
  Fails(CheckExitStatus(42, 43), "exit: wrong status");
  Fails(CheckExitStatus(42, -1), "exit: never seen");

  Passes(CheckStatusPids(0), "status pids: none wrong");
  Fails(CheckStatusPids(1), "status pids: one wrong");

  Passes(CheckVmProbes(12, 12), "vm probes: one per session");
  Fails(CheckVmProbes(12, 0), "vm probes: never read");
  Fails(CheckVmProbes(12, 11), "vm probes: one session missed");
  Fails(CheckVmProbes(12, 13), "vm probes: read twice in a session");
}

void SnapshotChecks() {
  const std::set<svr4::Pid> sleepers = {5, 6, 7};
  const std::set<svr4::Pid> fixed = {0, 1, 2, 3};
  const svr4::Pid finished = 9;
  std::vector<svr4::PrPsinfo> good = {Row(0, 'S'), Row(1, 'S'), Row(2, 'S'), Row(3, 'S'),
                                      Row(5, 'S'), Row(6, 'S'), Row(7, 'S'), Row(9, 'Z')};
  Passes(CheckSnapshot(good, sleepers, fixed, finished), "ps: good snapshot");
  auto v = good;
  v[4].pr_state = 'R';
  Fails(CheckSnapshot(v, sleepers, fixed, finished), "ps: sleeper not asleep");
  v = good;
  v.erase(v.begin() + 5);
  Fails(CheckSnapshot(v, sleepers, fixed, finished), "ps: sleeper missing");
  v = good;
  v.erase(v.begin() + 1);
  Fails(CheckSnapshot(v, sleepers, fixed, finished), "ps: init missing");
  v = good;
  v.push_back(Row(6, 'S'));
  Fails(CheckSnapshot(v, sleepers, fixed, finished), "ps: pid listed twice");
  v = good;
  v.push_back(Row(42, 'S'));
  Fails(CheckSnapshot(v, sleepers, fixed, finished), "ps: unknown pid");
  v = good;
  v.push_back(Row(8, 'Z'));
  Fails(CheckSnapshot(v, sleepers, fixed, finished), "ps: an earlier target not reaped");
  v = good;
  v.back().pr_state = 'R';
  Fails(CheckSnapshot(v, sleepers, fixed, finished), "ps: finished target still running");
  v = good;
  v.pop_back();
  Fails(CheckSnapshot(v, sleepers, fixed, finished), "ps: finished target missing");
}

void DebuggerChecks() {
  Passes(CheckHit(3, 0x1000, 0x1000, 64, 192), "hit: good");
  Fails(CheckHit(3, 0x1000, 0x1006, 64, 192), "hit: pc past the breakpoint");
  Fails(CheckHit(3, 0x1000, 0x1000, 64, 191), "hit: variable off by one");
  Passes(CheckHitCount(2000, 2000), "hit count: equal");
  Fails(CheckHitCount(2000, 1999), "hit count: one evaluation lost");

  const std::vector<uint8_t> aout = {0x11, 0x09, 0x40, 0, 0, 0};
  Passes(CheckText(aout, aout), "text: equal");
  auto planted = aout;
  planted[0] = 0x02;  // the breakpoint byte left in place
  Fails(CheckText(aout, planted), "text: breakpoint not lifted");
  Fails(CheckText(aout, std::vector<uint8_t>(aout.begin(), aout.end() - 1)), "text: short read");
}

void ReportChecks() {
  const std::string local = "    7: getuid() = 0\n    7: exit(0x2a)\n    7:     *** process exited ***\n";
  const std::string remote =
      " 1234: getuid() = 0\n 1234: exit(0x2a)\n 1234:     *** process exited ***\n";
  Passes(CheckRemoteReport(local, 7, remote, 1234), "report: same but for the pid");
  std::string r = remote;
  r[r.find("= 0")] = '!';
  Fails(CheckRemoteReport(local, 7, r, 1234), "report: one byte changed");
  Fails(CheckRemoteReport(local, 7, remote.substr(0, remote.size() - 1), 1234),
        "report: truncated");
  Fails(CheckRemoteReport(local, 7, remote, 1235), "report: another pid");
  Fails(CheckRemoteReport(local, 7, remote + remote, 1234), "report: lines repeated");
}

void GeneratorArithmetic() {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SyscallCommand c = MakeSyscallCommand(seed, 7);
    uint64_t total = 0;
    for (const auto& [sysno, n] : c.counts) {
      total += n;
    }
    Expect(total == c.syscalls, "generator: counts sum to the call total");
    Expect(c.syscalls == 7 * SyscallCommand::kSlots + 1, "generator: reps * slots + exit");
    size_t traps = 0;
    for (size_t p = c.source.find("sys\n"); p != std::string::npos;
         p = c.source.find("sys\n", p + 1)) {
      ++traps;
    }
    Expect(traps == SyscallCommand::kSlots + 1, "generator: one trap per slot plus exit");
    Expect(MakeSyscallCommand(seed, 7).source == c.source, "generator: same seed, same text");
  }
  Expect(MakeSyscallCommand(1, 7).source != MakeSyscallCommand(2, 7).source,
         "generator: seeds differ");
  Expect(MakeLoopTarget(1, 10, 4).source != MakeLoopTarget(2, 10, 4).source,
         "loop target: seeds differ");
}

void HistQuantiles() {
  Hist h;
  for (uint64_t v = 1; v <= 100'000; ++v) {
    h.Record(v * 10);
  }
  double p50 = h.Quantile(0.5);
  Expect(p50 > 500'000 * 0.995 && p50 < 500'010 * 1.005, "hist: median within a bucket");
  double p99 = h.Quantile(0.99);
  Expect(p99 > 990'000 * 0.995 && p99 < 990'010 * 1.005, "hist: p99 within a bucket");
  Expect(h.count() == 100'000, "hist: count");
  Hist small;
  small.Record(7);
  Expect(small.Quantile(0.5) >= 7 && small.Quantile(0.5) < 8, "hist: exact below 1024");
  Expect(Hist().Quantile(0.5) == 0, "hist: empty reads 0");
}

}  // namespace

int main() {
  SyscallChecks();
  SnapshotChecks();
  DebuggerChecks();
  ReportChecks();
  GeneratorArithmetic();
  HistQuantiles();
  if (failures != 0) {
    std::fprintf(stderr, "%d check test(s) failed\n", failures);
    return 1;
  }
  std::printf("all check tests passed\n");
  return 0;
}
