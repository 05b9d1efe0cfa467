/**
 * @file
 * Cooperative fibers used to run simulated threads.
 *
 * Each simulated hardware thread executes its workload on a private
 * stack; it yields back to the scheduler whenever it touches the
 * simulated machine (memory access, compute, tx boundary), and the
 * scheduler resumes whichever thread has the smallest next-ready cycle.
 *
 * Two switching backends:
 *  - x86-64 Linux (default): a ~20-instruction callee-saved-register
 *    stack switch. glibc's swapcontext saves/restores the signal mask
 *    with two sigprocmask syscalls per switch; at 128 simulated
 *    threads the simulator switches fibers hundreds of thousands of
 *    times per run and those syscalls dominated host wall-clock time.
 *  - ucontext (other platforms, sanitizer builds, or with
 *    -DCOMMTM_FIBER_UCONTEXT): portable and understood by ASan's
 *    swapcontext interceptor.
 */

#ifndef COMMTM_SIM_FIBER_H
#define COMMTM_SIM_FIBER_H

#include <cstddef>
#include <functional>
#include <memory>

#include "sim/types.h"

// Select the switching backend. The raw switch does not annotate stack
// changes for sanitizers, so sanitized builds fall back to ucontext.
#if !defined(COMMTM_FIBER_UCONTEXT)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define COMMTM_FIBER_UCONTEXT 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define COMMTM_FIBER_UCONTEXT 1
#endif
#endif
#endif
#if !defined(COMMTM_FIBER_UCONTEXT) && defined(__x86_64__) && \
    defined(__linux__)
#define COMMTM_FIBER_FAST_SWITCH 1
#else
#undef COMMTM_FIBER_FAST_SWITCH
#endif

#if !defined(COMMTM_FIBER_FAST_SWITCH)
#include <ucontext.h>
#endif

namespace commtm {

/**
 * A single cooperative fiber. Not thread-safe: all fibers of a Machine
 * run on one host thread (the simulator is sequential by design).
 */
class Fiber
{
  public:
    using EntryFn = std::function<void()>;

    /** Create a fiber that will run @p fn when first resumed; @p core
     *  names the simulated core it runs in diagnostics. */
    explicit Fiber(EntryFn fn, CoreId core = 0,
                   size_t stack_size = kDefaultStackSize);
    ~Fiber() = default;

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Switch from the host (scheduler) context into the fiber. Returns
     * when the fiber yields or its entry function returns.
     */
    void resume();

    /** Switch from inside the fiber back to the host. */
    void yield();

    /** True once the entry function has returned. */
    bool finished() const { return finished_; }

    /** The fiber currently executing on this host thread, or nullptr. */
    static Fiber *current();

    static constexpr size_t kDefaultStackSize = 256 * 1024;

  private:
    void run();

    EntryFn fn_;
    CoreId core_;
    std::unique_ptr<char[]> stack_;
#if defined(COMMTM_FIBER_FAST_SWITCH)
    /** Entry point laid onto a fresh fiber stack; reads the fiber from
     *  Fiber::current() (set by resume() before the switch). */
    static void entryThunk();
    void *fiberSp_ = nullptr; //!< fiber's saved stack pointer
    void *hostSp_ = nullptr;  //!< host's saved stack pointer
#else
    static void trampoline(unsigned hi, unsigned lo);
    ucontext_t ctx_{};
    ucontext_t hostCtx_{};
    size_t stackSize_ = 0;
    /** ASan fiber annotations (__sanitizer_*_switch_fiber): fake-stack
     *  handles of the suspended sides plus the host stack bounds, so
     *  ASan tracks the active stack across swapcontext — required for
     *  exception unwinding on fiber stacks under ASan. Unused (zero
     *  overhead) in non-sanitized builds. */
    void *hostFakeStack_ = nullptr;
    void *fiberFakeStack_ = nullptr;
    const void *hostStackBottom_ = nullptr;
    size_t hostStackSize_ = 0;
#endif
    bool started_ = false;
    bool finished_ = false;
};

} // namespace commtm

#endif // COMMTM_SIM_FIBER_H
