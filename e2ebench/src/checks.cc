#include "checks.h"

#include <cstdio>

namespace e2e {

namespace {

std::string Fmt(const char* fmt, long long a, long long b, long long c = 0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

std::string BadState(const char* who, svr4::Pid pid, char state, char want) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %d in state %c, expected %c", who, pid, state, want);
  return buf;
}

}  // namespace

std::string CheckSyscallCounts(const std::map<int, uint64_t>& expected,
                               const std::map<int, uint64_t>& got) {
  for (const auto& [sysno, n] : expected) {
    auto it = got.find(sysno);
    long long seen = it == got.end() ? 0 : static_cast<long long>(it->second);
    if (seen != static_cast<long long>(n)) {
      return Fmt("syscall %lld: truss counted %lld, the command makes %lld", sysno, seen,
                 static_cast<long long>(n));
    }
  }
  for (const auto& [sysno, n] : got) {
    if (!expected.count(sysno)) {
      return Fmt("syscall %lld: truss counted %lld, the command makes none", sysno,
                 static_cast<long long>(n));
    }
  }
  return "";
}

std::string CheckEventCount(uint64_t expected_syscalls, uint64_t events) {
  if (events != expected_syscalls) {
    return Fmt("truss handled %lld stops, expected %lld (one per call, exit at entry)",
               static_cast<long long>(events), static_cast<long long>(expected_syscalls));
  }
  return "";
}

std::string CheckExitStatus(int expected, int64_t got) {
  if (got != expected) {
    return Fmt("exit status %lld, the generator chose %lld", got, expected);
  }
  return "";
}

std::string CheckSnapshot(const std::vector<svr4::PrPsinfo>& snap,
                          const std::set<svr4::Pid>& sleepers, const std::set<svr4::Pid>& fixed,
                          svr4::Pid finished) {
  std::set<svr4::Pid> seen;
  size_t sleepers_seen = 0;
  size_t fixed_seen = 0;
  bool finished_seen = false;
  for (const svr4::PrPsinfo& p : snap) {
    if (!seen.insert(p.pr_pid).second) {
      return Fmt("pid %lld listed twice", p.pr_pid, 0);
    }
    if (sleepers.count(p.pr_pid)) {
      if (p.pr_state != 'S') {
        return BadState("sleeper", p.pr_pid, p.pr_state, 'S');
      }
      ++sleepers_seen;
    } else if (fixed.count(p.pr_pid)) {
      ++fixed_seen;
    } else if (p.pr_pid == finished) {
      if (p.pr_state != 'Z') {
        return BadState("finished target", p.pr_pid, p.pr_state, 'Z');
      }
      finished_seen = true;
    } else {
      return Fmt("pid %lld was not created by the workload, or not reaped", p.pr_pid, 0);
    }
  }
  if (sleepers_seen != sleepers.size()) {
    return Fmt("%lld of %lld sleepers listed", static_cast<long long>(sleepers_seen),
               static_cast<long long>(sleepers.size()));
  }
  if (fixed_seen != fixed.size()) {
    return Fmt("%lld of %lld system processes listed", static_cast<long long>(fixed_seen),
               static_cast<long long>(fixed.size()));
  }
  if (!finished_seen) {
    return Fmt("finished target %lld not listed", finished, 0);
  }
  return "";
}

std::string CheckHit(uint64_t hit, uint32_t bp, uint32_t pc, uint32_t inner, uint32_t acc) {
  if (pc != bp) {
    return Fmt("hit %lld stopped at pc 0x%llx, breakpoint at 0x%llx",
               static_cast<long long>(hit), pc, bp);
  }
  uint64_t want = hit * inner;
  if (acc != static_cast<uint32_t>(want)) {
    return Fmt("hit %lld read acc = %lld, expected %lld", static_cast<long long>(hit), acc,
               static_cast<long long>(want));
  }
  return "";
}

std::string CheckHitCount(uint64_t outer, uint64_t hits) {
  if (hits != outer) {
    return Fmt("%lld breakpoint evaluations for %lld outer passes", static_cast<long long>(hits),
               static_cast<long long>(outer));
  }
  return "";
}

std::string CheckText(std::span<const uint8_t> aout, std::span<const uint8_t> got) {
  if (got.size() != aout.size()) {
    return Fmt("read back %lld text bytes, expected %lld", static_cast<long long>(got.size()),
               static_cast<long long>(aout.size()));
  }
  for (size_t i = 0; i < aout.size(); ++i) {
    if (got[i] != aout[i]) {
      return Fmt("text byte %lld reads 0x%llx after the lift, a.out has 0x%llx",
                 static_cast<long long>(i), got[i], aout[i]);
    }
  }
  return "";
}

std::string CheckRemoteReport(const std::string& local, svr4::Pid local_pid,
                              const std::string& remote, svr4::Pid remote_pid) {
  char want_prefix[16];
  char new_prefix[16];
  std::snprintf(want_prefix, sizeof(want_prefix), "%5d: ", local_pid);
  std::snprintf(new_prefix, sizeof(new_prefix), "%5d: ", remote_pid);
  const std::string lp(want_prefix);
  std::string expected;
  expected.reserve(local.size());
  size_t pos = 0;
  while (pos < local.size()) {
    size_t eol = local.find('\n', pos);
    size_t end = eol == std::string::npos ? local.size() : eol + 1;
    if (local.compare(pos, lp.size(), lp) != 0) {
      return "local report line without the target's pid column";
    }
    expected += new_prefix;
    expected.append(local, pos + lp.size(), end - pos - lp.size());
    pos = end;
  }
  if (remote == expected) {
    return "";
  }
  size_t i = 0;
  while (i < remote.size() && i < expected.size() && remote[i] == expected[i]) {
    ++i;
  }
  return Fmt("remote report differs from the local one at byte %lld (%lld vs %lld bytes)",
             static_cast<long long>(i), static_cast<long long>(remote.size()),
             static_cast<long long>(expected.size()));
}

std::string CheckStatusPids(uint64_t mismatches) {
  if (mismatches != 0) {
    return Fmt("%lld PIOCSTATUS replies named another pid than their descriptor",
               static_cast<long long>(mismatches), 0);
  }
  return "";
}

std::string CheckVmProbes(uint64_t sessions, uint64_t probes) {
  if (probes != sessions) {
    return Fmt("PIOCVMSTATS read at %lld exit stops for %lld sessions",
               static_cast<long long>(probes), static_cast<long long>(sessions));
  }
  return "";
}

}  // namespace e2e
