/**
 * @file
 * Fiber implementation. The fast backend hand-switches the System V
 * x86-64 callee-saved state (rbx, rbp, r12-r15, rsp, mxcsr, x87 cw) on
 * private stacks; the portable backend uses ucontext, with the 64-bit
 * entry pointer split across two unsigned makecontext arguments.
 */

#include "sim/fiber.h"

#include <cassert>
#include <cstdint>
#include <cstring>

#include "sim/check.h"

// ASan needs to be told about manual stack switches; without the
// annotations, throwing an exception on a fiber stack trips its
// no-return stack unpoisoning (google/sanitizers#189).
#if defined(__SANITIZE_ADDRESS__)
#define COMMTM_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COMMTM_ASAN_FIBERS 1
#endif
#endif
#if defined(COMMTM_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

namespace commtm {

namespace {
/** Fiber running on this host thread (the simulator is single-host-threaded,
 *  but thread_local keeps tests that spin up Machines on helper threads
 *  safe). */
thread_local Fiber *tlsCurrent = nullptr;
} // namespace

void
Fiber::run()
{
    // Exceptions must not cross the context switch back to the host,
    // and a thread body that throws has left its simulated state (an
    // open transaction, a held barrier) dangling: fail the run.
    try {
        fn_();
    } catch (...) {
        COMMTM_CHECK(false, "exception escaped simulated thread on core %u",
                     unsigned(core_));
    }
    finished_ = true;
}

Fiber *
Fiber::current()
{
    return tlsCurrent;
}

#if defined(COMMTM_FIBER_FAST_SWITCH)

// ---------------------------------------------------------------------
// Fast backend: raw stack switch.
// ---------------------------------------------------------------------

/**
 * commtmFiberSwitch(void **save_sp, void *load_sp): push the
 * callee-saved register state onto the current stack, store rsp through
 * save_sp, switch to load_sp, and pop the state saved there. The
 * matching "push" for a fresh fiber stack is laid out by the Fiber
 * constructor. No signal-mask work — that is the whole point.
 */
extern "C" void commtmFiberSwitch(void **save_sp, void *load_sp);

asm(R"(
        .text
        .align 16
        .globl commtmFiberSwitch
        .type commtmFiberSwitch, @function
commtmFiberSwitch:
        pushq %rbp
        pushq %rbx
        pushq %r12
        pushq %r13
        pushq %r14
        pushq %r15
        subq  $8, %rsp
        stmxcsr 0(%rsp)
        fnstcw  4(%rsp)
        movq  %rsp, (%rdi)
        movq  %rsi, %rsp
        ldmxcsr 0(%rsp)
        fldcw   4(%rsp)
        addq  $8, %rsp
        popq  %r15
        popq  %r14
        popq  %r13
        popq  %r12
        popq  %rbx
        popq  %rbp
        retq
        .size commtmFiberSwitch, .-commtmFiberSwitch
)");

Fiber::Fiber(EntryFn fn, CoreId core, size_t stack_size)
    : fn_(std::move(fn)), core_(core), stack_(new char[stack_size])
{
    // Lay out a fake commtmFiberSwitch frame at the top of the fresh
    // stack so the first resume() "returns" into entryThunk. Layout
    // (low to high, matching the pops in commtmFiberSwitch):
    //   sp +  0: mxcsr (4) + x87 control word (4)
    //   sp +  8: r15 r14 r13 r12 rbx rbp (6 x 8, zeroed)
    //   sp + 56: return address = entryThunk
    //   sp + 64: zero return address (terminates backtraces)
    // entryThunk starts with rsp = sp + 64, i.e. rsp % 16 == 8, the
    // System V stance at a function's first instruction.
    char *top = stack_.get() + stack_size;
    top -= reinterpret_cast<uintptr_t>(top) & 15;
    char *sp = top - 72;
    uint32_t mxcsr = 0;
    uint16_t fcw = 0;
    asm volatile("stmxcsr %0" : "=m"(mxcsr));
    asm volatile("fnstcw %0" : "=m"(fcw));
    std::memset(sp, 0, 72);
    std::memcpy(sp + 0, &mxcsr, sizeof(mxcsr));
    std::memcpy(sp + 4, &fcw, sizeof(fcw));
    void (*entry)() = &Fiber::entryThunk;
    std::memcpy(sp + 56, &entry, sizeof(entry));
    fiberSp_ = sp;
}

void
Fiber::entryThunk()
{
    Fiber *self = tlsCurrent;
    assert(self);
    self->run();
    // The entry function returned; hand control back to the host for
    // good (resume() asserts against re-entering a finished fiber).
    for (;;)
        commtmFiberSwitch(&self->fiberSp_, self->hostSp_);
}

void
Fiber::resume()
{
    assert(!finished_ && "resuming a finished fiber");
    Fiber *prev = tlsCurrent;
    tlsCurrent = this;
    started_ = true;
    commtmFiberSwitch(&hostSp_, fiberSp_);
    tlsCurrent = prev;
}

void
Fiber::yield()
{
    assert(tlsCurrent == this && "yield from a fiber that is not running");
    commtmFiberSwitch(&fiberSp_, hostSp_);
}

#else // !COMMTM_FIBER_FAST_SWITCH

// ---------------------------------------------------------------------
// Portable backend: ucontext.
// ---------------------------------------------------------------------

Fiber::Fiber(EntryFn fn, CoreId core, size_t stack_size)
    : fn_(std::move(fn)), core_(core), stack_(new char[stack_size]),
      stackSize_(stack_size)
{
    getcontext(&ctx_);
    ctx_.uc_stack.ss_sp = stack_.get();
    ctx_.uc_stack.ss_size = stack_size;
    ctx_.uc_link = &hostCtx_;
    const auto self = reinterpret_cast<uintptr_t>(this);
    makecontext(&ctx_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xffffffffu));
}

void
Fiber::trampoline(unsigned hi, unsigned lo)
{
    const uintptr_t self =
        (static_cast<uintptr_t>(hi) << 32) | static_cast<uintptr_t>(lo);
    Fiber *fiber = reinterpret_cast<Fiber *>(self);
#if defined(COMMTM_ASAN_FIBERS)
    // First arrival on this stack: record where we came from (the
    // host stack), completing the switch resume() started.
    __sanitizer_finish_switch_fiber(nullptr, &fiber->hostStackBottom_,
                                    &fiber->hostStackSize_);
#endif
    fiber->run();
#if defined(COMMTM_ASAN_FIBERS)
    // Final departure: a null fake-stack handle tells ASan this
    // fiber's stack is done for good (uc_link switches to the host).
    __sanitizer_start_switch_fiber(nullptr, fiber->hostStackBottom_,
                                   fiber->hostStackSize_);
#endif
    // Returning lets uc_link switch back to hostCtx_.
}

void
Fiber::resume()
{
    assert(!finished_ && "resuming a finished fiber");
    Fiber *prev = tlsCurrent;
    tlsCurrent = this;
    started_ = true;
#if defined(COMMTM_ASAN_FIBERS)
    __sanitizer_start_switch_fiber(&hostFakeStack_, stack_.get(),
                                   stackSize_);
#endif
    swapcontext(&hostCtx_, &ctx_);
#if defined(COMMTM_ASAN_FIBERS)
    __sanitizer_finish_switch_fiber(hostFakeStack_, nullptr, nullptr);
#endif
    tlsCurrent = prev;
}

void
Fiber::yield()
{
    assert(tlsCurrent == this && "yield from a fiber that is not running");
#if defined(COMMTM_ASAN_FIBERS)
    __sanitizer_start_switch_fiber(&fiberFakeStack_, hostStackBottom_,
                                   hostStackSize_);
#endif
    swapcontext(&ctx_, &hostCtx_);
#if defined(COMMTM_ASAN_FIBERS)
    __sanitizer_finish_switch_fiber(fiberFakeStack_, &hostStackBottom_,
                                    &hostStackSize_);
#endif
}

#endif // COMMTM_FIBER_FAST_SWITCH

} // namespace commtm
