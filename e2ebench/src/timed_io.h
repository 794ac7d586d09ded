// TimedIo: the benchmark's probe at the tools/procfs boundary. It is a
// ProcIo that forwards every call to an inner transport (LocalProcIo or
// procd's RemoteProcIo) and stamps it on the host clock, so the layers
// below can be timed from outside without touching the program.
//
// Untraced, it times only what the end-to-end metrics need: PIOCSTATUS
// (ctl_p50_us) and the gap between reported stops (stop_cycle_*), kept as
// window series (see windows.h). Traced,
// it times every call by kind and ioctl code, sums the time spent inside
// calls and inside blocking waits, and probes PIOCVMSTATS on each target
// while it sits at its exit-entry stop (the last moment its address space
// and block cache still exist).
#ifndef SVR4PROC_E2EBENCH_TIMED_IO_H_
#define SVR4PROC_E2EBENCH_TIMED_IO_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "hist.h"
#include "windows.h"
#include "svr4proc/procfs/types.h"
#include "svr4proc/tools/procio.h"

namespace e2e {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// What one phase of a run saw at the ProcIo boundary.
struct CallLog {
  // Recorded in every phase.
  uint64_t calls = 0;
  uint64_t status_pid_mismatches = 0;  // PIOCSTATUS reply for another pid
  int64_t last_exit_arg = -1;          // exit() argument seen at the exit stop
  svr4::Pid last_spawned = -1;

  // Recorded only when traced.
  // "Open", "Ioctl PCRUN", ...: ioctls by the ctl table's canonical name.
  std::map<std::string, Hist, std::less<>> by_call;
  Hist all_ns;                          // every call
  Hist wait_ns;                         // PollFds and PIOCWSTOP
  uint64_t inside_ns = 0;               // sum over every call
  uint64_t wait_insns = 0;              // instructions retired inside waits
  svr4::PrVmStats vm{};                 // summed over exit-stop probes
  uint64_t vm_probes = 0;

  // Recorded in every phase, for the end-to-end metrics: the median and
  // 99th percentile of each 256 stop cycles (one reported stop -> the
  // next), and the median of each 256 PIOCSTATUS calls (submit -> reply),
  // in ns.
  WindowSeries cycles_ns{256, 0.50, 0.99};
  WindowSeries status_p50_ns{256, 0.50};

  // Median of one call kind in microseconds; 0 when it never ran.
  double P50Us(const std::string& key) const;
};

class TimedIo : public svr4::ProcIo {
 public:
  // `kernel` is the simulated machine behind the transport (local or the
  // procd server's); only its counters are read.
  TimedIo(svr4::ProcIo& inner, const svr4::Kernel& kernel) : inner_(&inner), kernel_(&kernel) {}

  // Starts a new phase: clears the log and sets whether every call is timed.
  void Reset(bool traced);
  const CallLog& log() const { return log_; }

  // A reported stop: closes the previous stop cycle and opens the next.
  // PollFds returns are reported stops when poll_reports_stops is set
  // (truss); the debugger loop calls this itself after each hit's wait.
  void MarkStop();
  // Ends a session: the next stop does not close a cycle, and no exit has
  // been seen yet.
  void EndSession() {
    last_stop_ns_ = 0;
    log_.last_exit_arg = -1;
  }
  void set_poll_reports_stops(bool on) { poll_reports_stops_ = on; }

  svr4::Result<int> Open(const std::string& path, int oflags) override;
  svr4::Result<void> Close(int fd) override;
  svr4::Result<int64_t> Read(int fd, void* buf, uint64_t n) override;
  svr4::Result<int64_t> Write(int fd, const void* buf, uint64_t n) override;
  svr4::Result<int64_t> Lseek(int fd, int64_t off, int whence) override;
  svr4::Result<int32_t> Ioctl(int fd, uint32_t op, void* arg) override;
  svr4::Result<std::vector<svr4::DirEnt>> ReadDir(const std::string& path) override;
  svr4::Result<size_t> ReadDirChunk(const std::string& path, uint64_t* cookie, size_t max,
                                    std::vector<svr4::DirEnt>* out) override;
  svr4::Result<svr4::VAttr> Stat(const std::string& path) override;
  svr4::Result<int> PollFds(std::span<svr4::PollFd> fds, int64_t timeout_ticks) override;
  svr4::Result<svr4::Pid> Spawn(const std::string& path, const std::vector<std::string>& argv,
                                const svr4::Creds& creds) override;

  // truss -c needs the local kernel to arm its registry; forwarding keeps
  // the tool's behaviour identical with and without the probe.
  svr4::Kernel* local_kernel() override { return inner_->local_kernel(); }
  svr4::Proc* local_proc() override { return inner_->local_proc(); }

 private:
  // Counts one call and, when traced, times it under `kind`.
  template <typename Call>
  auto Timed(std::string_view kind, Call&& call) {
    ++log_.calls;
    if (!traced_) {
      return call();
    }
    uint64_t t0 = NowNs();
    auto r = call();
    Record(kind, t0, NowNs());
    return r;
  }
  // Traced bookkeeping for one finished call.
  void Record(std::string_view kind, uint64_t t0, uint64_t t1);
  void Record(Hist& slot, uint64_t t0, uint64_t t1);
  void NoteOpen(const std::string& path, int fd);
  void CheckStatus(int fd, const svr4::PrStatus& st);

  svr4::ProcIo* inner_;
  const svr4::Kernel* kernel_;
  CallLog log_;
  bool traced_ = false;
  bool poll_reports_stops_ = false;
  uint64_t last_stop_ns_ = 0;
  std::vector<svr4::Pid> fd_pid_;  // pid each open /proc/<pid> fd names
  std::map<uint32_t, Hist*> ioctl_slots_;  // traced: by_call entry per code
};

}  // namespace e2e

#endif  // SVR4PROC_E2EBENCH_TIMED_IO_H_
