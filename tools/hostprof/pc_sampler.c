// Program-counter sampler, loaded with LD_PRELOAD into one process.
//
// A POSIX timer on CLOCK_MONOTONIC fires every 100 us and signals this
// process only. The handler records the interrupted program counter and
// the return addresses found by walking the frame-pointer chain, so a
// sample names its caller chain in code built with
// -fno-omit-frame-pointer. At exit it writes the samples and the memory
// map to HOSTPROF_OUT.<pid>.pcs (HOSTPROF_OUT defaults to "hostprof"),
// which tools/hostprof/report.py symbolizes. Build and run:
//
//   cc -O2 -fPIC -shared -o pc_sampler.so tools/hostprof/pc_sampler.c -lrt
//   HOSTPROF_OUT=/tmp/hp/run LD_PRELOAD=$PWD/pc_sampler.so PROGRAM ARGS...
//
// The timer counts wall time: a process that is not running gets its
// signal when it runs again, and the kernel folds the expiries it missed
// into that one. It serves hosts without perf or valgrind, and gprof's
// line mode fails on this repository's binaries. Single-threaded
// programs only.
#define _GNU_SOURCE
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kDepth = 16, kMaxSamples = 1 << 20 };

typedef struct {
  uint32_t depth;
  uintptr_t pcs[kDepth];
} Sample;

static Sample* samples;  // mmap'd: the handler must not allocate
static volatile uint64_t sample_count;
static timer_t timer;
static int armed;
static uintptr_t stack_lo, stack_hi;

static void on_tick(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  if (sample_count >= kMaxSamples) return;
  const ucontext_t* uc = (const ucontext_t*)context;
  Sample* s = &samples[sample_count];
  uint32_t d = 0;
  s->pcs[d++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  // Frame chain: [rbp] = caller's rbp, [rbp + 8] = return address. Only
  // follow frames that lie inside this thread's stack and move up it.
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  while (d < kDepth && fp >= stack_lo && fp + 16 <= stack_hi && (fp & 7) == 0) {
    const uintptr_t* frame = (const uintptr_t*)fp;
    const uintptr_t ret = frame[1];
    if (ret == 0) break;
    s->pcs[d++] = ret;
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  s->depth = d;
  sample_count = sample_count + 1;
}

__attribute__((constructor)) static void start(void) {
  void* m = mmap(NULL, sizeof(Sample) * (size_t)kMaxSamples, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (m == MAP_FAILED) return;
  samples = (Sample*)m;
  pthread_attr_t attr;
  void* base;
  size_t size;
  if (pthread_getattr_np(pthread_self(), &attr) != 0) return;
  pthread_attr_getstack(&attr, &base, &size);
  pthread_attr_destroy(&attr);
  stack_lo = (uintptr_t)base;
  stack_hi = stack_lo + size;

  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_tick;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent ev;
  memset(&ev, 0, sizeof ev);
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) return;
  struct itimerspec period = {{0, 100000}, {0, 100000}};
  armed = timer_settime(timer, 0, &period, NULL) == 0;
}

static void copy_maps(FILE* out) {
  int fd = open("/proc/self/maps", O_RDONLY);
  if (fd < 0) return;
  char buf[4096];
  ssize_t n;
  while ((n = read(fd, buf, sizeof buf)) > 0) fwrite(buf, 1, (size_t)n, out);
  close(fd);
}

__attribute__((destructor)) static void finish(void) {
  if (armed) timer_delete(timer);
  if (samples == NULL) return;
  const char* prefix = getenv("HOSTPROF_OUT");
  char path[4096];
  snprintf(path, sizeof path, "%s.%d.pcs", prefix != NULL ? prefix : "hostprof", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  const uint64_t n = sample_count;
  fprintf(out, "kind pcs\ncalls %llu\nperiod 1\nsamples %llu\nmaps\n", (unsigned long long)n,
          (unsigned long long)n);
  copy_maps(out);
  fprintf(out, "stacks\n");
  for (uint64_t i = 0; i < n; ++i) {
    for (uint32_t d = 0; d < samples[i].depth; ++d) {
      fprintf(out, d == 0 ? "%lx" : " %lx", (unsigned long)samples[i].pcs[d]);
    }
    fputc('\n', out);
  }
  fclose(out);
}
