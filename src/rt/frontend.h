/**
 * @file
 * The closed-loop workload frontend (docs/ARCHITECTURE.md Sec. 11):
 * compiled-in workload bodies registered with a Machine in thread
 * order. It is one of three frontends that produce a machine's
 * per-thread operation streams; OpenLoopFrontend (rt/open_loop.h)
 * services seeded arrival streams and ReplayFrontend
 * (trace/replay.h) re-executes a captured trace. Each has the same
 * attach(Machine&) shape, and none needs a common base: callers hold
 * the concrete type.
 */

#ifndef COMMTM_RT_FRONTEND_H
#define COMMTM_RT_FRONTEND_H

#include <functional>
#include <vector>

namespace commtm {

class Machine;
class ThreadContext;

/**
 * Workload bodies (C++ callables programming against ThreadContext)
 * added in thread order. attach() registers them with a machine
 * before run(): thread i lands on core threadCore(i), exactly like
 * direct Machine::addThread calls.
 */
class ClosedLoopFrontend
{
  public:
    using Body = std::function<void(ThreadContext &)>;

    /** Append one workload thread body. */
    void add(Body body) { bodies_.push_back(std::move(body)); }

    /** Register every body with @p machine. */
    void attach(Machine &machine);

  private:
    std::vector<Body> bodies_;
};

} // namespace commtm

#endif // COMMTM_RT_FRONTEND_H
