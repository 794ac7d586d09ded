// Seeded input generators. The program only ever sees the assembler text
// these produce; the counts and values the checks compare against are
// computed here, alongside the text, without running anything.
#ifndef SVR4PROC_E2EBENCH_GEN_H_
#define SVR4PROC_E2EBENCH_GEN_H_

#include <cstdint>
#include <map>
#include <string>

namespace e2e {

// SplitMix64: a fixed, portable sequence for a seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t s_;
};

// A command for truss: `reps` passes over a body of kSlots cheap system
// calls, each followed by a countdown loop, then exit(exit_status). The
// calls are drawn from a menu whose results do not depend on the pid or
// the clock, so a report taken on one kernel can be compared with one
// taken on another.
struct SyscallCommand {
  static constexpr int kSlots = 16;
  std::string source;
  std::map<int, uint64_t> counts;  // syscall number -> calls, exit included
  uint64_t syscalls = 0;           // all calls, exit included
  int exit_status = 0;
};
SyscallCommand MakeSyscallCommand(uint64_t seed, int reps);

// The debugger's target: `outer` passes of an inner loop that adds one to
// `acc` and touches a word of a 512 KiB buffer per step, striding past a
// page each time, so its data working set is twice the 64-entry TLB's
// reach. The breakpoint goes on `top`, the first instruction of a pass:
// at the i-th hit (from 0) acc holds i * inner.
struct LoopTarget {
  static constexpr uint32_t kBufBytes = 512 * 1024;
  std::string source;
  uint32_t outer = 0;
  uint32_t inner = 0;
  int exit_status = 0;
};
LoopTarget MakeLoopTarget(uint64_t seed, uint32_t outer, uint32_t inner);

// The settled population: blocks in pause() for good.
extern const char kSleeperSource[];

}  // namespace e2e

#endif  // SVR4PROC_E2EBENCH_GEN_H_
