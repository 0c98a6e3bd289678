// sprof: an LD_PRELOAD SIGPROF sampler that, unlike gprof's histogram,
// also sees time spent in shared libraries (libc's memcmp, memset, malloc).
//
//   LD_PRELOAD=build/tools/libsprof.so SPROF_OUT=prof.%p ./program ...
//   tools/sprof_report.py prof.<pid>
//
// Every millisecond of process CPU time, which the kernel rounds up to its
// tick (4 ms at HZ=250), the interrupted thread's stack is unwound into a
// preallocated slot.  At exit
// each sample becomes one line of "module+0xoffset" frames, leaf first,
// where the offset is the ELF virtual address addr2line and nm expect.
// SPROF_OUT (default "sprof.out") names the file; "%p" becomes the pid.
#include <execinfo.h>
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
#include <string>
#include <vector>

namespace {

constexpr int kMaxFrames = 48;
constexpr int kMaxSamples = 1 << 15;

struct Sample {
  int depth;
  void* pc[kMaxFrames];
};

Sample samples[kMaxSamples];
std::atomic<int> next_sample{0};

void on_sigprof(int, siginfo_t*, void* context) {
  const int i = next_sample.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSamples) {
    return;
  }
  Sample& s = samples[i];
  const auto* uc = static_cast<const ucontext_t*>(context);
  void* const leaf = reinterpret_cast<void*>(uc->uc_mcontext.gregs[REG_RIP]);
  void* raw[kMaxFrames];
  const int n = backtrace(raw, kMaxFrames);
  // Drop the handler's own frames: keep the stack from the interrupted pc
  // on, or just that pc when the unwinder could not cross the signal frame.
  int from = 0;
  while (from < n && raw[from] != leaf) {
    ++from;
  }
  s.pc[0] = leaf;
  s.depth = 1;
  for (int f = from + 1; f < n; ++f) {
    s.pc[s.depth++] = raw[f];
  }
}

struct Module {
  std::uintptr_t lo, hi, bias;
  std::string name;
};

int add_module(dl_phdr_info* info, std::size_t, void* out) {
  std::string name = info->dlpi_name;
  if (name.empty()) {  // the main program
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    name.assign(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
  }
  for (int h = 0; h < info->dlpi_phnum; ++h) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[h];
    if (ph.p_type == PT_LOAD) {
      const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
      static_cast<std::vector<Module>*>(out)->push_back(
          {lo, lo + ph.p_memsz, info->dlpi_addr, name});
    }
  }
  return 0;
}

__attribute__((constructor)) void sprof_start() {
  void* warm[1];
  backtrace(warm, 1);  // loads the unwinder outside the signal handler
  struct sigaction sa = {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, nullptr);
  const itimerval timer = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void sprof_stop() {
  const itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  std::vector<Module> mods;
  dl_iterate_phdr(add_module, &mods);
  const char* env = std::getenv("SPROF_OUT");
  std::string path = env != nullptr ? env : "sprof.out";
  if (const auto at = path.find("%p"); at != std::string::npos) {
    path.replace(at, 2, std::to_string(getpid()));
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::perror(path.c_str());
    return;
  }
  const int taken = next_sample.load();
  for (int i = 0; i < std::min(taken, kMaxSamples); ++i) {
    for (int f = 0; f < samples[i].depth; ++f) {
      const auto pc = reinterpret_cast<std::uintptr_t>(samples[i].pc[f]);
      const char* name = "?";
      std::uintptr_t off = pc;
      for (const Module& m : mods) {
        if (pc >= m.lo && pc < m.hi) {
          name = m.name.c_str();
          off = pc - m.bias;
          break;
        }
      }
      std::fprintf(out, "%s%s+0x%jx", f == 0 ? "" : " ", name,
                   static_cast<std::uintmax_t>(off));
    }
    std::fputc('\n', out);
  }
  if (taken > kMaxSamples) {
    std::fprintf(stderr, "sprof: %d samples dropped (buffer full)\n",
                 taken - kMaxSamples);
  }
  std::fclose(out);
}

}  // namespace
