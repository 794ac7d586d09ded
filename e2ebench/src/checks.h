// Correctness checks. Each compares what the program produced with a value
// computed apart from it (by the generator, or from the a.out bytes), or
// with a property the method must have, and returns an empty string on a
// pass or a one-line description of the first difference.
#ifndef SVR4PROC_E2EBENCH_CHECKS_H_
#define SVR4PROC_E2EBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "svr4proc/procfs/types.h"

namespace e2e {

// truss: each call's count equals the number the generator put in.
std::string CheckSyscallCounts(const std::map<int, uint64_t>& expected,
                               const std::map<int, uint64_t>& got);
// truss: one stop per call, the exit counted at its entry stop.
std::string CheckEventCount(uint64_t expected_syscalls, uint64_t events);
// The exit() argument seen through /proc equals the generator's value.
std::string CheckExitStatus(int expected, int64_t got);

// ps: the snapshot lists every sleeper (in state S), every fixed process,
// and the target that just finished (in state Z, not yet reaped), each
// exactly once, and nothing else.
std::string CheckSnapshot(const std::vector<svr4::PrPsinfo>& snap,
                          const std::set<svr4::Pid>& sleepers, const std::set<svr4::Pid>& fixed,
                          svr4::Pid finished);

// Debugger: the i-th hit stops at the breakpoint with acc == i * inner.
std::string CheckHit(uint64_t hit, uint32_t bp, uint32_t pc, uint32_t inner, uint32_t acc);
// Debugger: one evaluation per pass of the outer loop.
std::string CheckHitCount(uint64_t outer, uint64_t hits);
// Text read back after a lift equals the executable's bytes.
std::string CheckText(std::span<const uint8_t> aout, std::span<const uint8_t> got);

// procd: the remote report equals the local one taken on a fresh kernel,
// byte for byte once each line's pid column names the remote target.
std::string CheckRemoteReport(const std::string& local, svr4::Pid local_pid,
                              const std::string& remote, svr4::Pid remote_pid);
// Every PIOCSTATUS reply names the pid its descriptor was opened on.
std::string CheckStatusPids(uint64_t mismatches);

// Traced: PIOCVMSTATS was read at the exit stop of every session, so the
// isa.* and vm.* metrics cover every target.
std::string CheckVmProbes(uint64_t sessions, uint64_t probes);

}  // namespace e2e

#endif  // SVR4PROC_E2EBENCH_CHECKS_H_
