#include "workloads.h"

#include <cstdio>
#include <set>

#include "checks.h"
#include "gen.h"
#include "svr4proc/kernel/syscall.h"
#include "svr4proc/procd/client.h"
#include "svr4proc/tools/proclib.h"
#include "svr4proc/tools/ps.h"
#include "svr4proc/tools/sim.h"
#include "svr4proc/tools/truss.h"

namespace e2e {

using namespace svr4;

void Phase::Check(const std::string& err) {
  if (err.empty()) {
    return;
  }
  ++check_failures;
  if (errors.size() < 5) {
    errors.push_back(err);
  }
}

void Phase::Session(uint64_t n, uint64_t insns, uint64_t t0, uint64_t t1) {
  events += n;
  ++sessions;
  tool_ns += t1 - t0;
  const auto ns = static_cast<double>(t1 - t0);
  session_rate.Add(static_cast<double>(n) / ns * 1e9);
  session_minsn.Add(static_cast<double>(insns) / ns * 1e3);
}

void Phase::Snapshot(uint64_t ns) {
  ++snapshots;
  tool_ns += ns;
  snapshot_p50_ns.Add(static_cast<double>(ns));
}

namespace {

// The kernel's boot processes: sched, init, pageout.
const std::set<Pid> kBootPids = {0, 1, 2};

// Returns the error of a set-up step, if it has one, from Build.
#define E2E_RETURN_IF_SETUP_ERROR(expr)             \
  do {                                              \
    if (std::string err_ = (expr); !err_.empty()) { \
      return err_;                                  \
    }                                               \
  } while (0)

// Installs an assembled program, or says that it did not assemble.
std::string Install(Sim& sim, const std::string& path, const std::string& source,
                    Aout* image = nullptr) {
  auto img = sim.InstallProgram(path, source);
  if (!img.ok()) {
    return "installing " + path + " failed";
  }
  if (image != nullptr) {
    *image = *img;
  }
  return "";
}

// Starts n sleepers and steps the machine until nothing can run, so that
// no started-but-not-yet-asleep process shares the CPU with a target.
// Fills `pids` with n distinct pids, or says what failed.
std::string StartSleepers(Sim& sim, int n, std::vector<Pid>* pids) {
  E2E_RETURN_IF_SETUP_ERROR(Install(sim, "/bin/sleeper", kSleeperSource));
  pids->clear();
  for (int i = 0; i < n; ++i) {
    auto pid = sim.kernel().Spawn("/bin/sleeper", {"sleeper"}, Creds::Root());
    if (!pid.ok()) {
      return "spawning sleeper " + std::to_string(i) + " failed";
    }
    pids->push_back(*pid);
  }
  if (std::set<Pid>(pids->begin(), pids->end()).size() != static_cast<size_t>(n)) {
    return "two sleepers were given the same pid";
  }
  while (sim.kernel().Step()) {
  }
  return "";
}

// Times one whole-population snapshot and checks it.
template <typename Snap>
void TakeSnapshot(Phase& ph, Snap&& snap, const std::set<Pid>& sleepers,
                  const std::set<Pid>& fixed, Pid finished) {
  uint64_t t0 = NowNs();
  auto rows = snap();
  uint64_t t1 = NowNs();
  ++ph.attempted;
  if (!rows.ok()) {
    ++ph.failed;
    return;
  }
  ph.Snapshot(t1 - t0);
  ph.Check(CheckSnapshot(*rows, sleepers, fixed, finished));
}

// Traces the command once with `truss` over `io`, and checks the counts,
// the stop count and the exit status against the generator.
void TrussSession(Phase& ph, TimedIo& io, const Kernel& k, Truss& truss,
                  const SyscallCommand& cmd) {
  uint64_t insns0 = k.counters().instructions;
  uint64_t t0 = NowNs();
  auto r = truss.TraceCommand("/bin/cmd", {"cmd"});
  uint64_t t1 = NowNs();
  const int64_t exit_arg = io.log().last_exit_arg;
  io.EndSession();
  if (!r.ok()) {
    ++ph.attempted;
    ++ph.failed;
    return;
  }
  ph.attempted += truss.events();
  ph.Session(truss.events(), k.counters().instructions - insns0, t0, t1);
  ph.Check(CheckSyscallCounts(cmd.counts, truss.syscall_counts()));
  ph.Check(CheckEventCount(cmd.syscalls, truss.events()));
  ph.Check(CheckExitStatus(cmd.exit_status, exit_arg));
}

// --- dbx-breakpoints ------------------------------------------------------------

// The paper's conditional-breakpoint loop through ProcHandle, on a target
// whose data working set outruns the TLB. Every hit lifts and replants the
// breakpoint with /proc writes into private text, which invalidates the
// predecoded blocks there. Between targets, a classic per-pid ps walk
// (readdir, open, PIOCPSINFO, close) exercises fs name resolution.
class DbxBreakpoints : public Workload {
 public:
  static constexpr int kPopulation = 1000;
  static constexpr uint32_t kOuter = 2000;  // hits per session
  static constexpr uint32_t kInner = 64;    // ~1000 instructions between hits
  static constexpr uint64_t kCondEvery = 64;
  static constexpr uint32_t kTextWindow = 16;

  explicit DbxBreakpoints(uint64_t seed) : tgt_(MakeLoopTarget(seed, kOuter, kInner)) {}

  void Teardown() override {
    io_.reset();
    local_.reset();
    sim_.reset();
  }
  std::string Build() override {
    sim_ = std::make_unique<Sim>();
    E2E_RETURN_IF_SETUP_ERROR(Install(*sim_, "/bin/loop", tgt_.source, &image_));
    auto top = image_.SymbolValue("top");
    auto acc = image_.SymbolValue("acc");
    if (!top.ok() || !acc.ok()) {
      return "/bin/loop has no symbol top or acc";
    }
    bp_ = *top;
    acc_ = *acc;
    std::vector<Pid> pids;
    E2E_RETURN_IF_SETUP_ERROR(StartSleepers(*sim_, kPopulation, &pids));
    sleepers_ = std::set<Pid>(pids.begin(), pids.end());
    fixed_ = kBootPids;
    fixed_.insert(sim_->controller()->pid);
    local_ = std::make_unique<LocalProcIo>(sim_->kernel(), sim_->controller());
    io_ = std::make_unique<TimedIo>(*local_, sim_->kernel());
    return "";
  }
  void Round(Phase& ph) override {
    uint64_t insns0 = sim_->kernel().counters().instructions;
    uint64_t t0 = NowNs();
    uint64_t hits = 0;
    Result<void> r = Debug(ph, &hits);
    uint64_t t1 = NowNs();
    io_->EndSession();
    ph.attempted += hits;
    if (!r.ok()) {
      ++ph.attempted;
      ++ph.failed;
    } else {
      ph.Session(hits, sim_->kernel().counters().instructions - insns0, t0, t1);
      ph.Check(CheckHitCount(tgt_.outer, hits));
    }
    for (int i = 0; i < kSnapshots; ++i) {
      TakeSnapshot(ph, [&] { return PsSnapshot(*io_); }, sleepers_, fixed_,
                   io_->log().last_spawned);
    }
  }

  TimedIo& io() override { return *io_; }
  const Kernel& kernel() override { return sim_->kernel(); }
  int setup_reps() const override { return 9; }

 private:
  // Starts the target, plants the breakpoint and evaluates it on every hit
  // until the target reaches exit().
  Result<void> Debug(Phase& ph, uint64_t* hits) {
    auto pid = io_->Spawn("/bin/loop", {"loop"}, Creds::Root());
    if (!pid.ok()) {
      return pid.error();
    }
    auto h = ProcHandle::Grab(*io_, *pid);
    if (!h.ok()) {
      return h.error();
    }
    SVR4_RETURN_IF_ERROR(h->Stop());
    FltSet faults;
    faults.Add(FLTBPT);
    faults.Add(FLTTRACE);
    SVR4_RETURN_IF_ERROR(h->SetFltTrace(faults));
    SysSet entries;
    entries.Add(SYS_exit);
    SVR4_RETURN_IF_ERROR(h->SetSysEntry(entries));
    const uint8_t bpt = kBreakpointByte;
    const uint32_t text_off = bp_ - image_.text_vaddr;
    if (bp_ < image_.text_vaddr || text_off + kTextWindow > image_.text.size()) {
      return Errno::kENOEXEC;  // the target did not assemble as generated
    }
    const uint8_t orig = image_.text[text_off];
    SVR4_RETURN_IF_ERROR(h->WriteMem(bp_, &bpt, 1));
    SVR4_RETURN_IF_ERROR(h->Run());
    for (;;) {
      SVR4_RETURN_IF_ERROR(h->WaitStop());
      io_->MarkStop();
      auto st = h->Status();
      if (!st.ok()) {
        return st.error();
      }
      if (st->pr_why == PR_SYSENTRY) {
        ph.Check(CheckExitStatus(tgt_.exit_status, st->pr_sysarg[0]));
        break;
      }
      // The condition's inputs: where it stopped and the variable.
      uint32_t acc = 0;
      SVR4_RETURN_IF_ERROR(h->ReadMem(acc_, &acc, sizeof(acc)));
      ph.Check(CheckHit(*hits, bp_, st->pr_reg.pc, tgt_.inner, acc));
      const bool cond = *hits % kCondEvery == kCondEvery - 1;
      SVR4_RETURN_IF_ERROR(h->WriteMem(bp_, &orig, 1));  // lift
      if (cond) {
        uint8_t text[kTextWindow];
        auto n = h->ReadMem(bp_, text, sizeof(text));
        SVR4_RETURN_IF_ERROR(n);
        ph.Check(CheckText(std::span(image_.text).subspan(text_off, kTextWindow),
                           std::span(text, static_cast<size_t>(*n))));
      }
      PrRun step;
      step.pr_flags = PRSTEP | PRCFAULT;
      SVR4_RETURN_IF_ERROR(h->Run(step));
      SVR4_RETURN_IF_ERROR(h->WaitStop());
      SVR4_RETURN_IF_ERROR(h->WriteMem(bp_, &bpt, 1));  // replant
      PrRun go;
      go.pr_flags = PRCFAULT;
      SVR4_RETURN_IF_ERROR(h->Run(go));
      ++*hits;
    }
    SVR4_RETURN_IF_ERROR(h->Run());
    // The target is gone once the wait fails with ENOENT.
    auto gone = h->WaitStop();
    if (gone.ok() || gone.error() != Errno::kENOENT) {
      return Errno::kEIO;
    }
    return Result<void>::Ok();
  }

  LoopTarget tgt_;
  Aout image_;
  uint32_t bp_ = 0;
  uint32_t acc_ = 0;
  std::unique_ptr<Sim> sim_;
  std::unique_ptr<LocalProcIo> local_;
  std::unique_ptr<TimedIo> io_;
  std::set<Pid> sleepers_, fixed_;
};

// --- procd-fleet ---------------------------------------------------------------

// One active RemoteProcIo controller (plain truss, bulk snapshots,
// PIOCSTATUS ops) beside 10^3 idle peers that each hold an open /proc
// descriptor. procd's per-round peer scan does the work here.
class ProcdFleet : public Workload {
 public:
  static constexpr int kPopulation = 1000;
  static constexpr int kPeers = 1000;
  static constexpr int kReps = 50;  // 800 calls + exit per session
  static constexpr int kStatusFds = 8;

  explicit ProcdFleet(uint64_t seed) : cmd_(MakeSyscallCommand(seed, kReps)) {
    // The reference report: the same command under a local truss on a
    // fresh kernel.
    Sim ref;
    (void)ref.InstallProgram("/bin/cmd", cmd_.source);
    Truss truss(ref.kernel(), ref.controller());
    auto pid = ref.Start("/bin/cmd", {"cmd"});
    if (pid.ok() && truss.Trace(*pid).ok()) {
      ref_report_ = truss.report();
      ref_pid_ = *pid;
    }
  }

  void Teardown() override {
    io_.reset();
    active_.reset();
    peers_.clear();
    srv_.reset();
    sim_.reset();
  }
  std::string Build() override {
    if (ref_report_.empty()) {
      return "the local reference truss of /bin/cmd failed";
    }
    sim_ = std::make_unique<Sim>();
    E2E_RETURN_IF_SETUP_ERROR(Install(*sim_, "/bin/cmd", cmd_.source));
    std::vector<Pid> pids;
    E2E_RETURN_IF_SETUP_ERROR(StartSleepers(*sim_, kPopulation, &pids));
    sleepers_ = std::set<Pid>(pids.begin(), pids.end());
    fixed_ = kBootPids;
    fixed_.insert(sim_->controller()->pid);
    srv_ = std::make_unique<ProcdServer>(sim_->kernel());
    char path[32];
    for (int i = 0; i < kPeers; ++i) {
      auto peer = std::make_unique<RemoteProcIo>(srv_->Connect(Creds::Root()));
      std::snprintf(path, sizeof(path), "/proc/%05d", pids[static_cast<size_t>(i) % pids.size()]);
      auto pp = peer->PeerPid();
      if (!pp.ok() || !peer->Open(path, O_RDONLY).ok()) {
        return "idle peer " + std::to_string(i) + " could not connect and open " + path;
      }
      fixed_.insert(*pp);
      peers_.push_back(std::move(peer));
    }
    active_ = std::make_unique<RemoteProcIo>(srv_->Connect(Creds::Root()));
    auto pp = active_->PeerPid();
    if (!pp.ok()) {
      return "the active peer could not connect";
    }
    fixed_.insert(*pp);
    io_ = std::make_unique<TimedIo>(*active_, sim_->kernel());
    io_->set_poll_reports_stops(true);
    status_fds_.clear();
    for (int i = 0; i < kStatusFds; ++i) {
      std::snprintf(path, sizeof(path), "/proc/%05d", pids[static_cast<size_t>(i) * 97 % pids.size()]);
      auto fd = io_->Open(path, O_RDONLY);
      if (!fd.ok()) {
        return std::string("the active peer could not open ") + path;
      }
      status_fds_.push_back(*fd);
    }
    handle_pid_ = pids.front();
    return "";
  }
  void Round(Phase& ph) override {
    Truss truss(*io_);
    TrussSession(ph, *io_, sim_->kernel(), truss, cmd_);
    ph.Check(
        CheckRemoteReport(ref_report_, ref_pid_, truss.report(), io_->log().last_spawned));
    for (int i = 0; i < kSnapshots; ++i) {
      TakeSnapshot(ph, [&] { return PsSnapshotAll(*io_, handle_pid_); }, sleepers_, fixed_,
                   io_->log().last_spawned);
    }
    uint64_t t0 = NowNs();
    for (int fd : status_fds_) {
      PrStatus st;
      ++ph.attempted;
      if (!io_->Ioctl(fd, PIOCSTATUS, &st).ok()) {
        ++ph.failed;
      }
    }
    ph.tool_ns += NowNs() - t0;
  }

  TimedIo& io() override { return *io_; }
  const Kernel& kernel() override { return sim_->kernel(); }
  ProcdServer* procd() override { return srv_.get(); }
  int setup_reps() const override { return 9; }

 private:
  SyscallCommand cmd_;
  std::string ref_report_;
  Pid ref_pid_ = -1;
  std::unique_ptr<Sim> sim_;
  std::unique_ptr<ProcdServer> srv_;
  std::vector<std::unique_ptr<RemoteProcIo>> peers_;
  std::unique_ptr<RemoteProcIo> active_;
  std::unique_ptr<TimedIo> io_;
  std::vector<int> status_fds_;
  Pid handle_pid_ = 1;
  std::set<Pid> sleepers_, fixed_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "dbx-breakpoints") {
    return std::make_unique<DbxBreakpoints>(seed);
  }
  if (name == "procd-fleet") {
    return std::make_unique<ProcdFleet>(seed);
  }
  return nullptr;
}

}  // namespace e2e
