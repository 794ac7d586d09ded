#include "gen.h"

#include <cstdio>

#include "svr4proc/kernel/syscall.h"

namespace e2e {

namespace {

struct MenuCall {
  int sysno;
  const char* text;  // sets r0 (and any argument) and traps
};

// Cheap calls with kernel-independent results: credentials, the parent
// (always init), a umask swap, and two calls on a descriptor that is never
// open (the EBADF error path).
const MenuCall kMenu[] = {
    {svr4::SYS_getuid, "      ldi r0, SYS_getuid\n      sys\n"},
    {svr4::SYS_getgid, "      ldi r0, SYS_getgid\n      sys\n"},
    {svr4::SYS_getppid, "      ldi r0, SYS_getppid\n      sys\n"},
    {svr4::SYS_umask, "      ldi r0, SYS_umask\n      ldi r1, 18\n      sys\n"},
    {svr4::SYS_close, "      ldi r0, SYS_close\n      ldi r1, 99\n      sys\n"},
    {svr4::SYS_lseek,
     "      ldi r0, SYS_lseek\n      ldi r1, 99\n      ldi r2, 0\n      ldi r3, 0\n      sys\n"},
};
constexpr uint32_t kMenuSize = sizeof(kMenu) / sizeof(kMenu[0]);

// Countdown iterations after each call. Slots are paired so a pair always
// sums to 2 * kSpin: the seed moves compute between calls, not in total.
constexpr uint32_t kSpin = 80;
constexpr uint32_t kSpinJitter = 40;

}  // namespace

const char kSleeperSource[] = R"(
top:  ldi r0, SYS_pause
      sys
      jmp top
)";

SyscallCommand MakeSyscallCommand(uint64_t seed, int reps) {
  Rng rng(seed);
  SyscallCommand c;
  c.exit_status = 1 + static_cast<int>(rng.Below(250));
  char line[256];
  std::snprintf(line, sizeof(line), "      ldi r8, %d\nbody:\n", reps);
  c.source = line;
  uint32_t jitter = 0;
  for (int s = 0; s < SyscallCommand::kSlots; ++s) {
    const MenuCall& call = kMenu[rng.Below(kMenuSize)];
    c.counts[call.sysno] += static_cast<uint64_t>(reps);
    c.source += call.text;
    if (s % 2 == 0) {
      jitter = rng.Below(2 * kSpinJitter + 1);
    }
    uint32_t spin = s % 2 == 0 ? kSpin - kSpinJitter + jitter : kSpin + kSpinJitter - jitter;
    std::snprintf(line, sizeof(line),
                  "      ldi r9, %u\nspin%d: addi r9, -1\n      cmpi r9, 0\n      jnz spin%d\n",
                  spin, s, s);
    c.source += line;
  }
  std::snprintf(line, sizeof(line),
                "      addi r8, -1\n      cmpi r8, 0\n      jnz body\n"
                "      ldi r0, SYS_exit\n      ldi r1, %d\n      sys\n",
                c.exit_status);
  c.source += line;
  c.counts[svr4::SYS_exit] += 1;
  c.syscalls = static_cast<uint64_t>(reps) * SyscallCommand::kSlots + 1;
  return c;
}

LoopTarget MakeLoopTarget(uint64_t seed, uint32_t outer, uint32_t inner) {
  Rng rng(seed ^ 0x5D0B1E5ull);
  LoopTarget t;
  t.outer = outer;
  t.inner = inner;
  t.exit_status = 1 + static_cast<int>(rng.Below(250));
  // A stride just over a page, so consecutive steps land on consecutive
  // pages; the cursor wraps before the end of the buffer.
  uint32_t stride = 4096 + 4 * (1 + rng.Below(64));
  uint32_t limit = LoopTarget::kBufBytes - 4096;
  uint32_t start = 4 * rng.Below(limit / 4);
  char src[2048];
  std::snprintf(src, sizeof(src), R"(
      ldi r8, %u
      ldi r10, %u
top:  ldi r9, %u
step: ldi r4, acc
      ldw r5, [r4]
      addi r5, 1
      stw r5, [r4]
      ldi r6, buf
      add r6, r10
      ldw r7, [r6]
      add r7, r5
      stw r7, [r6]
      addi r10, %u
      cmpi r10, %u
      jlt nowrap
      addi r10, -%u
nowrap: addi r9, -1
      cmpi r9, 0
      jnz step
      addi r8, -1
      cmpi r8, 0
      jnz top
      ldi r0, SYS_exit
      ldi r1, %d
      sys
      .data
acc:  .word 0
      .bss
buf:  .space %u
)",
                outer, start, inner, stride, limit, limit, t.exit_status, LoopTarget::kBufBytes);
  t.source = src;
  return t;
}

}  // namespace e2e
