/**
 * @file
 * sim::Subprocess — spawn a worker process and reap it.
 *
 * How the sharded campaign service runs a shard: the
 * orchestrator fork/execs `warped_sim shard ...` per shard, the
 * worker writes its delta to a file (crash-atomically), and the
 * orchestrator reaps the exit status. Death by signal and nonzero
 * exits are reported distinctly so the dispatcher can tell "worker
 * was killed, re-issue" from "worker rejected the configuration,
 * abort".
 *
 * POSIX-only (fork/execvp/waitpid/kill); the CMake build gates the
 * campaign service accordingly. Stdout/stderr are inherited from the
 * parent — the delta travels through the filesystem, never through a
 * captured pipe, so worker diagnostics interleave harmlessly with
 * the orchestrator's own.
 */

#ifndef WARPED_SIM_SUBPROCESS_HH
#define WARPED_SIM_SUBPROCESS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace warped {
namespace sim {

struct SubprocessResult
{
    /** Exit code when the child exited normally; -1 otherwise. */
    int exitCode = -1;
    /** The child died to a signal (SIGKILL'd worker, crash). */
    bool signaled = false;
    int termSignal = 0;

    bool ok() const { return !signaled && exitCode == 0; }
};

class Subprocess
{
  public:
    /** Spawn `argv` (argv[0] = executable, resolved via PATH).
     *  Panics if the process cannot even be forked. */
    explicit Subprocess(const std::vector<std::string> &argv);

    /** Reaps the child if still running (SIGKILL + wait). */
    ~Subprocess();

    Subprocess(const Subprocess &) = delete;
    Subprocess &operator=(const Subprocess &) = delete;

    /** Block until the child exits and return its status.
     *  Idempotent — later calls return the reaped status. */
    SubprocessResult wait();

    /**
     * Bounded wait: reap the child if it exits within
     * @p timeout_ms milliseconds (WNOHANG poll loop), else return
     * nullopt with the child still running. A hung worker must trip
     * the dispatcher's re-issue logic, not stall the orchestrator —
     * the caller kill()s and wait()s on timeout. Idempotent after
     * the child has been reaped.
     */
    std::optional<SubprocessResult> waitFor(std::uint64_t timeout_ms);

    /** Send SIGKILL (test hook for the worker-death drills); the
     *  child must still be wait()ed. No-op after the child has been
     *  reaped. */
    void kill();

    /** Child pid; -1 once reaped. */
    long pid() const { return pid_; }

  private:
    long pid_ = -1;
    SubprocessResult result_;
    bool reaped_ = false;
};

/** Convenience: spawn, wait, return the status. */
SubprocessResult runSubprocess(const std::vector<std::string> &argv);

} // namespace sim
} // namespace warped

#endif // WARPED_SIM_SUBPROCESS_HH
