#include "timed_io.h"

#include <cstdlib>

#include "svr4proc/kernel/syscall.h"
#include "svr4proc/procfs/ctl.h"

namespace e2e {

using namespace svr4;

double CallLog::P50Us(const std::string& key) const {
  auto it = by_call.find(key);
  return it == by_call.end() ? 0.0 : it->second.Quantile(0.5) / 1e3;
}

void TimedIo::Reset(bool traced) {
  log_ = CallLog{};
  ioctl_slots_.clear();
  traced_ = traced;
  last_stop_ns_ = 0;
}

void TimedIo::MarkStop() {
  uint64_t now = NowNs();
  if (last_stop_ns_ != 0) {
    log_.cycles_ns.Add(static_cast<double>(now - last_stop_ns_));
  }
  last_stop_ns_ = now;
}

void TimedIo::Record(std::string_view kind, uint64_t t0, uint64_t t1) {
  auto it = log_.by_call.find(kind);
  if (it == log_.by_call.end()) {
    it = log_.by_call.emplace(std::string(kind), Hist()).first;
  }
  Record(it->second, t0, t1);
}

void TimedIo::Record(Hist& slot, uint64_t t0, uint64_t t1) {
  uint64_t d = t1 - t0;
  slot.Record(d);
  log_.all_ns.Record(d);
  log_.inside_ns += d;
}

void TimedIo::NoteOpen(const std::string& path, int fd) {
  // Only /proc/<pid> descriptors carry a pid to check replies against.
  Pid pid = -1;
  if (path.rfind("/proc/", 0) == 0 && path.size() > 6) {
    char* end = nullptr;
    long v = std::strtol(path.c_str() + 6, &end, 10);
    if (end != nullptr && *end == '\0') {
      pid = static_cast<Pid>(v);
    }
  }
  if (fd >= static_cast<int>(fd_pid_.size())) {
    fd_pid_.resize(static_cast<size_t>(fd) + 1, -1);
  }
  fd_pid_[static_cast<size_t>(fd)] = pid;
}

void TimedIo::CheckStatus(int fd, const PrStatus& st) {
  if (fd >= 0 && fd < static_cast<int>(fd_pid_.size()) && fd_pid_[static_cast<size_t>(fd)] >= 0 &&
      fd_pid_[static_cast<size_t>(fd)] != st.pr_pid) {
    ++log_.status_pid_mismatches;
  }
  if (st.pr_why == PR_SYSENTRY && st.pr_what == SYS_exit) {
    log_.last_exit_arg = st.pr_sysarg[0];
    if (traced_) {
      PrVmStats vs;
      if (inner_->Ioctl(fd, PIOCVMSTATS, &vs).ok()) {
        log_.vm.pr_tlb_hits += vs.pr_tlb_hits;
        log_.vm.pr_tlb_misses += vs.pr_tlb_misses;
        log_.vm.pr_slow_lookups += vs.pr_slow_lookups;
        log_.vm.pr_tlb_flushes += vs.pr_tlb_flushes;
        log_.vm.pr_bb_hits += vs.pr_bb_hits;
        log_.vm.pr_bb_misses += vs.pr_bb_misses;
        log_.vm.pr_bb_invalidations += vs.pr_bb_invalidations;
        ++log_.vm_probes;
      }
    }
  }
}

Result<int> TimedIo::Open(const std::string& path, int oflags) {
  auto r = Timed("Open", [&] { return inner_->Open(path, oflags); });
  if (r.ok()) {
    NoteOpen(path, *r);
  }
  return r;
}

Result<void> TimedIo::Close(int fd) {
  auto r = Timed("Close", [&] { return inner_->Close(fd); });
  if (fd >= 0 && fd < static_cast<int>(fd_pid_.size())) {
    fd_pid_[static_cast<size_t>(fd)] = -1;
  }
  return r;
}

Result<int64_t> TimedIo::Read(int fd, void* buf, uint64_t n) {
  return Timed("Read", [&] { return inner_->Read(fd, buf, n); });
}

Result<int64_t> TimedIo::Write(int fd, const void* buf, uint64_t n) {
  return Timed("Write", [&] { return inner_->Write(fd, buf, n); });
}

Result<int64_t> TimedIo::Lseek(int fd, int64_t off, int whence) {
  return Timed("Lseek", [&] { return inner_->Lseek(fd, off, whence); });
}

Result<int32_t> TimedIo::Ioctl(int fd, uint32_t op, void* arg) {
  ++log_.calls;
  const bool status = op == PIOCSTATUS;
  const bool wait = op == PIOCWSTOP;
  const bool timed = traced_ || status;
  uint64_t insns0 = traced_ && wait ? kernel_->counters().instructions : 0;
  uint64_t t0 = timed ? NowNs() : 0;
  auto r = inner_->Ioctl(fd, op, arg);
  if (timed) {
    uint64_t t1 = NowNs();
    if (status) {
      log_.status_p50_ns.Add(static_cast<double>(t1 - t0));
    }
    if (traced_) {
      Hist*& slot = ioctl_slots_[op];
      if (slot == nullptr) {
        const CtlOp* row = FindCtlOpByPioc(op);
        std::string key = std::string("Ioctl ") + (row != nullptr ? row->name : "?");
        slot = &log_.by_call.try_emplace(key).first->second;
      }
      Record(*slot, t0, t1);
      if (wait) {
        log_.wait_ns.Record(t1 - t0);
        log_.wait_insns += kernel_->counters().instructions - insns0;
      }
    }
  }
  if (status && r.ok() && arg != nullptr) {
    CheckStatus(fd, *static_cast<const PrStatus*>(arg));
  }
  return r;
}

Result<std::vector<DirEnt>> TimedIo::ReadDir(const std::string& path) {
  return Timed("ReadDir", [&] { return inner_->ReadDir(path); });
}

Result<size_t> TimedIo::ReadDirChunk(const std::string& path, uint64_t* cookie, size_t max,
                                     std::vector<DirEnt>* out) {
  return Timed("ReadDirChunk", [&] { return inner_->ReadDirChunk(path, cookie, max, out); });
}

Result<VAttr> TimedIo::Stat(const std::string& path) {
  return Timed("Stat", [&] { return inner_->Stat(path); });
}

Result<int> TimedIo::PollFds(std::span<PollFd> fds, int64_t timeout_ticks) {
  ++log_.calls;
  uint64_t insns0 = traced_ ? kernel_->counters().instructions : 0;
  uint64_t t0 = traced_ ? NowNs() : 0;
  auto r = inner_->PollFds(fds, timeout_ticks);
  if (traced_) {
    uint64_t t1 = NowNs();
    Record("PollFds", t0, t1);
    log_.wait_ns.Record(t1 - t0);
    log_.wait_insns += kernel_->counters().instructions - insns0;
  }
  if (poll_reports_stops_) {
    MarkStop();
  }
  return r;
}

Result<Pid> TimedIo::Spawn(const std::string& path, const std::vector<std::string>& argv,
                           const Creds& creds) {
  auto r = Timed("Spawn", [&] { return inner_->Spawn(path, argv, creds); });
  if (r.ok()) {
    log_.last_spawned = *r;
  }
  return r;
}

}  // namespace e2e
