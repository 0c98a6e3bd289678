#include "sim/execution_context.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <thread>

#include "common/assert.hpp"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

// ASan must be told about every stack switch or it misattributes frames and
// (with fake stacks) reports false use-after-return.  The annotations are
// no-ops in ordinary builds.  Run fiber builds with
// ASAN_OPTIONS=detect_stack_use_after_return=0 (docs/ARCHITECTURE.md).
#if defined(__SANITIZE_ADDRESS__)
#define MCMPI_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MCMPI_ASAN_FIBERS 1
#endif
#endif
#ifdef MCMPI_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

namespace mcmpi::sim {
namespace {

/// Usable fiber stack.  Rank bodies run user code (collectives, tests,
/// logging) but nothing deeply recursive; 512 KiB leaves an order of
/// magnitude of headroom, and the guard page below turns an overflow into a
/// clean fault instead of silent corruption.
constexpr std::size_t kFiberStackBytes = 512 * 1024;

void asan_start_switch(void** fake_stack_save, const void* bottom,
                       std::size_t size) {
#ifdef MCMPI_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save;
  (void)bottom;
  (void)size;
#endif
}

void asan_finish_switch(void* fake_stack_save, const void** bottom_old,
                        std::size_t* size_old) {
#ifdef MCMPI_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
  (void)fake_stack_save;
  (void)bottom_old;
  (void)size_old;
#endif
}

/// Guard-paged stack allocation shared by both fiber flavours.
struct FiberStack {
  FiberStack() {
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    map_bytes = kFiberStackBytes + page;
    void* map = ::mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    MC_ASSERT_MSG(map != MAP_FAILED, "fiber stack allocation failed");
#ifdef MCMPI_ASAN_FIBERS
    // The range may be a destroyed fiber's stack, unmapped while it was
    // blocked: its frames' redzones are still poisoned in the shadow, and a
    // new fiber's stores there would be reported as stack errors.
    __asan_unpoison_memory_region(map, map_bytes);
#endif
    base = map;
    // Guard page at the low end: stacks grow down, so running off the end
    // faults loudly instead of scribbling over a neighbouring allocation.
    const int guarded = ::mprotect(base, page, PROT_NONE);
    MC_ASSERT(guarded == 0);
    stack = static_cast<unsigned char*>(base) + page;
  }
  ~FiberStack() {
    if (base != nullptr) {
      ::munmap(base, map_bytes);
    }
  }
  FiberStack(const FiberStack&) = delete;
  FiberStack& operator=(const FiberStack&) = delete;

  void* base = nullptr;
  std::size_t map_bytes = 0;
  unsigned char* stack = nullptr;  // usable low end (above the guard page)
};

}  // namespace

#if defined(__x86_64__)

// ---------------------------------------------------------- x86-64 fibers
//
// Hand-rolled System V context switch: save the callee-saved registers and
// the FP control words on the current stack, swap stack pointers, restore,
// return.  ~20 instructions and no kernel involvement — unlike glibc's
// swapcontext, which performs an rt_sigprocmask syscall on every switch and
// would dominate the cost of a fiber handoff.

extern "C" {
void mcmpi_ctx_swap(void** save_sp, void* restore_sp);
void mcmpi_ctx_trampoline();
/// C entry invoked by the trampoline with the fiber object in %rdi.
void mcmpi_fiber_entry(void* fiber);
}

// clang-format off
asm(R"(
  .text
  .globl mcmpi_ctx_swap
  .type mcmpi_ctx_swap, @function
mcmpi_ctx_swap:
  lea -0x38(%rsp), %rsp
  mov %rbp, 0x30(%rsp)
  mov %rbx, 0x28(%rsp)
  mov %r12, 0x20(%rsp)
  mov %r13, 0x18(%rsp)
  mov %r14, 0x10(%rsp)
  mov %r15, 0x08(%rsp)
  stmxcsr 0x04(%rsp)
  fnstcw  0x00(%rsp)
  mov %rsp, (%rdi)
  mov %rsi, %rsp
  fldcw   0x00(%rsp)
  ldmxcsr 0x04(%rsp)
  mov 0x08(%rsp), %r15
  mov 0x10(%rsp), %r14
  mov 0x18(%rsp), %r13
  mov 0x20(%rsp), %r12
  mov 0x28(%rsp), %rbx
  mov 0x30(%rsp), %rbp
  lea 0x38(%rsp), %rsp
  ret
  .size mcmpi_ctx_swap, .-mcmpi_ctx_swap

  .globl mcmpi_ctx_trampoline
  .type mcmpi_ctx_trampoline, @function
mcmpi_ctx_trampoline:
  /* first switch into a new fiber lands here; %r12 carries the object */
  mov %r12, %rdi
  call mcmpi_fiber_entry
  ud2
  .size mcmpi_ctx_trampoline, .-mcmpi_ctx_trampoline
)");
// clang-format on

namespace {

class FiberContext final : public ExecutionContext {
 public:
  explicit FiberContext(std::function<void()> entry)
      : entry_(std::move(entry)) {
    // Craft the initial frame mcmpi_ctx_swap restores from: FP control
    // words, six callee-saved slots (%r12 = this), and the trampoline as
    // the return address.  The 16-byte-aligned top keeps the System V
    // stack-alignment contract once the trampoline issues its call.
    auto top = reinterpret_cast<std::uintptr_t>(stack_.stack) +
               kFiberStackBytes;
    top &= ~static_cast<std::uintptr_t>(0xF);
    auto* frame = reinterpret_cast<std::uint64_t*>(top) - 8;
    std::uint32_t mxcsr = 0;
    std::uint16_t fcw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fcw));
    frame[0] = (static_cast<std::uint64_t>(mxcsr) << 32) | fcw;
    frame[1] = 0;                                         // %r15
    frame[2] = 0;                                         // %r14
    frame[3] = 0;                                         // %r13
    frame[4] = reinterpret_cast<std::uint64_t>(this);     // %r12
    frame[5] = 0;                                         // %rbx
    frame[6] = 0;                                         // %rbp
    frame[7] =
        reinterpret_cast<std::uint64_t>(&mcmpi_ctx_trampoline);  // ret
    fiber_sp_ = frame;
  }

  void resume() override {
    MC_ASSERT_MSG(!done_, "resume() on a finished context");
    void* fake = nullptr;
    asan_start_switch(&fake, stack_.stack, kFiberStackBytes);
    mcmpi_ctx_swap(&sched_sp_, fiber_sp_);
    asan_finish_switch(fake, nullptr, nullptr);
  }

  void suspend() override {
    void* fake = nullptr;
    asan_start_switch(&fake, sched_stack_, sched_stack_size_);
    mcmpi_ctx_swap(&fiber_sp_, sched_sp_);
    asan_finish_switch(fake, &sched_stack_, &sched_stack_size_);
  }

  void fiber_main() {
    // First entry: complete the scheduler->fiber switch and learn the
    // scheduler's stack bounds for the switches back.
    asan_finish_switch(nullptr, &sched_stack_, &sched_stack_size_);
    entry_();
    done_ = true;
    // Final switch out; nullptr fake-stack-save tells ASan this fiber is
    // dying so its fake frames can be released.  Never resumed again.
    asan_start_switch(nullptr, sched_stack_, sched_stack_size_);
    mcmpi_ctx_swap(&fiber_sp_, sched_sp_);
    MC_ASSERT_MSG(false, "a finished fiber was resumed");
  }

 private:
  std::function<void()> entry_;
  FiberStack stack_;
  void* fiber_sp_ = nullptr;
  void* sched_sp_ = nullptr;
  const void* sched_stack_ = nullptr;
  std::size_t sched_stack_size_ = 0;
  bool done_ = false;
};

}  // namespace

extern "C" void mcmpi_fiber_entry(void* fiber) {
  static_cast<FiberContext*>(fiber)->fiber_main();
}

#else  // !__x86_64__

// --------------------------------------------------------- ucontext fibers
//
// Portable fallback: glibc ucontext.  Each switch pays an rt_sigprocmask
// syscall, still far cheaper than an OS thread handoff.

namespace {

class FiberContext final : public ExecutionContext {
 public:
  explicit FiberContext(std::function<void()> entry)
      : entry_(std::move(entry)) {
    const int rc = ::getcontext(&fiber_);
    MC_ASSERT(rc == 0);
    fiber_.uc_stack.ss_sp = stack_.stack;
    fiber_.uc_stack.ss_size = kFiberStackBytes;
    fiber_.uc_link = nullptr;  // a finished fiber switches out explicitly
    ::makecontext(&fiber_, trampoline, 0);
  }

  void resume() override {
    MC_ASSERT_MSG(!done_, "resume() on a finished context");
    if (!started_) {
      // makecontext() can only pass ints; hand `this` to the trampoline
      // through a thread-local instead.  Safe: the switch below runs the
      // trampoline before any other fiber on this thread can start.
      started_ = true;
      entering_ = this;
    }
    void* fake = nullptr;
    asan_start_switch(&fake, stack_.stack, kFiberStackBytes);
    const int rc = ::swapcontext(&sched_, &fiber_);
    MC_ASSERT(rc == 0);
    asan_finish_switch(fake, nullptr, nullptr);
  }

  void suspend() override {
    void* fake = nullptr;
    asan_start_switch(&fake, sched_stack_, sched_stack_size_);
    const int rc = ::swapcontext(&fiber_, &sched_);
    MC_ASSERT(rc == 0);
    asan_finish_switch(fake, &sched_stack_, &sched_stack_size_);
  }

 private:
  static void trampoline() {
    FiberContext* self = entering_;
    entering_ = nullptr;
    self->fiber_main();
  }

  void fiber_main() {
    asan_finish_switch(nullptr, &sched_stack_, &sched_stack_size_);
    entry_();
    done_ = true;
    asan_start_switch(nullptr, sched_stack_, sched_stack_size_);
    const int rc = ::swapcontext(&fiber_, &sched_);
    MC_ASSERT(rc == 0);
    MC_ASSERT_MSG(false, "a finished fiber was resumed");
  }

  static thread_local FiberContext* entering_;

  std::function<void()> entry_;
  FiberStack stack_;
  ucontext_t sched_{};
  ucontext_t fiber_{};
  const void* sched_stack_ = nullptr;
  std::size_t sched_stack_size_ = 0;
  bool started_ = false;
  bool done_ = false;
};

thread_local FiberContext* FiberContext::entering_ = nullptr;

}  // namespace

#endif  // __x86_64__

namespace {

class ThreadContext final : public ExecutionContext {
 public:
  explicit ThreadContext(std::function<void()> entry)
      : entry_(std::move(entry)) {
    thread_ = std::thread([this] {
      wait_for_turn(true);  // parked until the first resume()
      entry_();
      pass_turn(false);
    });
  }

  /// Precondition (guaranteed by Simulator teardown): the entry function
  /// has returned, so the thread is joinable without a further hand-off.
  ~ThreadContext() override {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // The rendezvous is a mutex + condvar turn flag rather than a semaphore
  // pair: functionally identical (exactly one side runnable), but the
  // lock ordering is visible to ThreadSanitizer, so the tsan preset can
  // verify the sharded drivers on this backend without false positives
  // (libstdc++ semaphores wait on bare futexes TSan cannot see through).

  void resume() override {
    pass_turn(true);
    wait_for_turn(false);
  }

  void suspend() override {
    pass_turn(false);
    wait_for_turn(true);
  }

 private:
  void pass_turn(bool to_context) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      context_turn_ = to_context;
    }
    turn_cv_.notify_one();
  }

  void wait_for_turn(bool context_side) {
    std::unique_lock<std::mutex> lock(mutex_);
    turn_cv_.wait(lock, [&] { return context_turn_ == context_side; });
  }

  std::function<void()> entry_;
  std::mutex mutex_;
  std::condition_variable turn_cv_;
  bool context_turn_ = false;  // false: host/scheduler side runs
  std::thread thread_;
};

}  // namespace

const char* to_string(ExecutionBackend backend) {
  return backend == ExecutionBackend::kFiber ? "fiber" : "thread";
}

ExecutionBackend default_execution_backend() {
  static const ExecutionBackend cached = [] {
    const char* env = std::getenv("MCMPI_SIM_BACKEND");
    if (env != nullptr && std::string_view(env) == "thread") {
      return ExecutionBackend::kThread;
    }
    return ExecutionBackend::kFiber;
  }();
  return cached;
}

std::unique_ptr<ExecutionContext> ExecutionContext::create(
    ExecutionBackend backend, std::function<void()> entry) {
  if (backend == ExecutionBackend::kThread) {
    return std::make_unique<ThreadContext>(std::move(entry));
  }
  return std::make_unique<FiberContext>(std::move(entry));
}

}  // namespace mcmpi::sim
