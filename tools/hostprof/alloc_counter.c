// Heap allocation counter, loaded with LD_PRELOAD into one process.
//
// Counts every malloc, calloc, realloc, aligned_alloc, memalign and
// posix_memalign call, and records the call stack (glibc's backtrace())
// of one call in kPeriod (61, prime, so that no loop of the program
// beats with it). At exit it writes
// the counts, the sampled stacks and the process's memory map to
// HOSTPROF_OUT.<pid>.allocs (HOSTPROF_OUT defaults to "hostprof"), which
// tools/hostprof/report.py symbolizes. Build and run:
//
//   cc -O2 -fPIC -shared -o alloc_counter.so tools/hostprof/alloc_counter.c -ldl
//   HOSTPROF_OUT=/tmp/hp/run LD_PRELOAD=$PWD/alloc_counter.so PROGRAM ARGS...
//
// backtrace() unwinds through .eh_frame. The stacks symbolize to source
// lines only in code built with -g, and report.py wants a -no-pie
// executable. Single-threaded programs only: the counters are not atomic.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

enum { kDepth = 24, kMaxSamples = 1 << 20, kPeriod = 61 };

typedef struct {
  uint32_t depth;
  void* pcs[kDepth];
} Sample;

static void* (*real_malloc)(size_t);
static void* (*real_calloc)(size_t, size_t);
static void* (*real_realloc)(void*, size_t);
static void* (*real_memalign)(size_t, size_t);
static void (*real_free)(void*);

static uint64_t calls;
static uint64_t countdown = kPeriod;
static Sample* samples;  // mmap'd: never from the heap it watches
static uint64_t sample_count;
static int in_hook;       // a sample's own backtrace() must not recurse
static int resolving;     // dlsym may allocate before the real functions are known
static char bootstrap[4096];
static size_t bootstrap_used;

static void resolve(void) {
  if (real_malloc != NULL || resolving) return;
  resolving = 1;
  real_malloc = (void* (*)(size_t))dlsym(RTLD_NEXT, "malloc");
  real_calloc = (void* (*)(size_t, size_t))dlsym(RTLD_NEXT, "calloc");
  real_realloc = (void* (*)(void*, size_t))dlsym(RTLD_NEXT, "realloc");
  real_memalign = (void* (*)(size_t, size_t))dlsym(RTLD_NEXT, "memalign");
  real_free = (void (*)(void*))dlsym(RTLD_NEXT, "free");
  resolving = 0;
}

static void* bootstrap_alloc(size_t n) {
  n = (n + 15) & ~(size_t)15;
  if (bootstrap_used + n > sizeof bootstrap) return NULL;
  void* p = bootstrap + bootstrap_used;
  bootstrap_used += n;
  return p;
}

static int from_bootstrap(const void* p) {
  return (const char*)p >= bootstrap && (const char*)p < bootstrap + sizeof bootstrap;
}

// Out of line, so that a sampled stack always starts count(), hook, caller.
__attribute__((noinline)) static void count(void) {
  ++calls;
  if (in_hook || --countdown != 0) return;
  countdown = kPeriod;
  if (samples == NULL || sample_count == kMaxSamples) return;
  in_hook = 1;
  Sample* s = &samples[sample_count++];
  s->depth = (uint32_t)backtrace(s->pcs, kDepth);
  in_hook = 0;
}

void* malloc(size_t n) {
  resolve();
  if (real_malloc == NULL) return bootstrap_alloc(n);
  count();
  return real_malloc(n);
}

void* calloc(size_t k, size_t n) {
  resolve();
  if (real_calloc == NULL) return bootstrap_alloc(k * n);  // static storage is zeroed
  count();
  return real_calloc(k, n);
}

void* realloc(void* p, size_t n) {
  resolve();
  count();
  if (from_bootstrap(p)) {
    void* q = real_malloc(n);
    if (q != NULL) memcpy(q, p, n);  // bootstrap blocks are tiny and never grow
    return q;
  }
  return real_realloc(p, n);
}

void* memalign(size_t align, size_t n) {
  resolve();
  count();
  return real_memalign(align, n);
}

void* aligned_alloc(size_t align, size_t n) { return memalign(align, n); }

int posix_memalign(void** out, size_t align, size_t n) {
  void* p = memalign(align, n);
  if (p == NULL) return 12;  // ENOMEM
  *out = p;
  return 0;
}

void free(void* p) {
  if (p == NULL || from_bootstrap(p)) return;
  resolve();
  real_free(p);
}

__attribute__((constructor)) static void start(void) {
  resolve();
  void* warm[2];
  in_hook = 1;
  backtrace(warm, 2);  // loads libgcc_s now, not inside a sample
  in_hook = 0;
  void* m = mmap(NULL, sizeof(Sample) * (size_t)kMaxSamples, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  samples = m == MAP_FAILED ? NULL : (Sample*)m;
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
  in_hook = 1;
  const char* prefix = getenv("HOSTPROF_OUT");
  char path[4096];
  snprintf(path, sizeof path, "%s.%d.allocs", prefix != NULL ? prefix : "hostprof", (int)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  fprintf(out, "kind allocs\ncalls %llu\nperiod %llu\nsamples %llu\nmaps\n",
          (unsigned long long)calls, (unsigned long long)kPeriod,
          (unsigned long long)sample_count);
  copy_maps(out);
  fprintf(out, "stacks\n");
  for (uint64_t i = 0; i < sample_count; ++i) {
    // Frame 0 is count() and frame 1 the hooked function: start at the caller.
    for (uint32_t d = 2; d < samples[i].depth; ++d) {
      fprintf(out, d == 2 ? "%lx" : " %lx", (unsigned long)(uintptr_t)samples[i].pcs[d]);
    }
    fputc('\n', out);
  }
  fclose(out);
}
