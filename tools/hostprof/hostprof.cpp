// hostprof: an LD_PRELOAD program-counter sampler for any dresar binary.
//
//   export HOSTPROF_OUT=prof.txt
//   LD_PRELOAD=build/tools/hostprof/libhostprof.so build/src/dresar-sweep --spec=...
//   python3 tools/hostprof/report.py prof.txt
//
// A process CPU-time interval timer (ITIMER_PROF) raises SIGPROF; the handler
// stores the interrupted program counter, read from the signal's ucontext,
// into a fixed buffer. At exit every distinct PC is resolved with dladdr1 to
// its module (shared object or executable) and its offset from the module's
// load bias — the address addr2line and objdump expect — plus the nearest
// exported symbol as a fallback name, and the table is written to
// $HOSTPROF_OUT. Without HOSTPROF_OUT the shim does nothing. No call graphs:
// one PC per sample.
// Output: a '#' header line, then one tab-separated line per distinct PC:
//   <samples> <module path> 0x<offset> <nearest exported symbol, or ->
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif
#include <dlfcn.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;  // 8 MiB of PCs, touched lazily
constexpr long kIntervalUs = 1000;  // requested; the kernel's tick bounds the real rate

std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_next{0};  // samples taken; those past kMaxSamples are dropped
std::string* g_out = nullptr;  // leaked on purpose: used from the exit-time destructor

std::uintptr_t pcOf(const ucontext_t* uc) {
#if defined(__x86_64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "hostprof: no program-counter accessor for this architecture"
#endif
}

void onProf(int, siginfo_t*, void* ctx) {
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < kMaxSamples) g_pcs[i] = pcOf(static_cast<const ucontext_t*>(ctx));
}

__attribute__((constructor)) void start() {
  const char* out = std::getenv("HOSTPROF_OUT");
  if (out == nullptr || *out == '\0') return;
  g_out = new std::string(out);
  struct sigaction sa {};
  sa.sa_sigaction = onProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    std::perror("hostprof: sigaction");
    return;
  }
  itimerval tv{};
  tv.it_interval.tv_usec = kIntervalUs;
  tv.it_value.tv_usec = kIntervalUs;
  if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) std::perror("hostprof: setitimer");
}

__attribute__((destructor)) void finish() {
  if (g_out == nullptr) return;
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);

  const std::size_t taken = g_next.load();
  const std::size_t n = std::min(taken, kMaxSamples);
  std::vector<std::uintptr_t> pcs(g_pcs, g_pcs + n);
  std::sort(pcs.begin(), pcs.end());

  std::FILE* f = std::fopen(g_out->c_str(), "w");
  if (f == nullptr) {
    std::perror(("hostprof: " + *g_out).c_str());
    return;
  }
  char exe[4096] = {};
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) std::strcpy(exe, "?");
  std::fprintf(f, "# hostprof samples=%zu dropped=%zu interval_us=%ld exe=%s\n", n,
               taken - n, kIntervalUs, exe);
  for (std::size_t i = 0; i < n;) {
    std::size_t j = i;
    while (j < n && pcs[j] == pcs[i]) ++j;
    Dl_info info{};
    link_map* lm = nullptr;
    const void* pc = reinterpret_cast<const void*>(pcs[i]);
    if (dladdr1(pc, &info, reinterpret_cast<void**>(&lm), RTLD_DL_LINKMAP) != 0 && lm != nullptr) {
      // The main program's link map has an empty name.
      const char* module = lm->l_name[0] != '\0' ? lm->l_name : exe;
      std::fprintf(f, "%zu\t%s\t0x%lx\t%s\n", j - i, module,
                   static_cast<unsigned long>(pcs[i] - lm->l_addr),
                   info.dli_sname != nullptr ? info.dli_sname : "-");
    } else {
      std::fprintf(f, "%zu\t?\t0x%lx\t-\n", j - i, static_cast<unsigned long>(pcs[i]));
    }
    i = j;
  }
  std::fclose(f);
}

}  // namespace
