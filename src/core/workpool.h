// Shared worker pool for cone-sharded work: garbling/evaluating a cycle's
// independent per-cone slices and the planner's per-cone classification
// all run the same schedule — a per-run DAG of small tasks whose edges are
// the cone dependency graph (every edge points at an earlier task, so
// ascending index order is a valid serial schedule).
//
// The calling thread never executes tasks; it is the I/O thread of the run:
// `feed(i)` runs on it in ascending order and gates task i like an extra
// dependency (the evaluator pulling cone i's table frames off the transport
// in frame order), and `drain(i)` runs on it in ascending order once task i
// completes (the garbler's single ordered writer pushing cone i's staged
// tables onto the transport). Because feed and drain are strictly ordered by
// slice id on one thread, the framed byte stream — and therefore table
// digests and comm accounting — is byte-identical to the serial schedule no
// matter how the workers interleave.
//
// Workers are persistent and parked between runs (a WarmState can carry one
// pool across a whole session), synchronized with a plain mutex + condition
// variables so the pool is fully TSan-instrumentable. The first exception
// thrown by fn/feed/drain cancels the run (no new tasks start), in-flight
// tasks finish, and the exception is rethrown on the calling thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace arm2gc::core {

class WorkPool {
 public:
  using TaskFn = std::function<void(std::size_t)>;

  /// Spawns `threads` parked workers (at least 1). A pool is only worth
  /// constructing for threads >= 2; threads == 1 callers should pass a null
  /// pool to execute() and run the serial schedule with no thread handoff.
  explicit WorkPool(std::size_t threads);
  ~WorkPool();
  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

  [[nodiscard]] std::size_t threads() const { return workers_.size(); }

  /// Runs tasks 0..n-1 on the workers under the dependency CSR
  /// (task i depends on dep_edges[dep_offsets[i] .. dep_offsets[i+1]); every
  /// edge must point at an earlier task; both pointers may be null for an
  /// edgeless run). The caller becomes the I/O thread: `feed` (optional)
  /// runs on it in ascending order and gates each task; `drain` (optional)
  /// runs on it in ascending completion order. Returns after every started
  /// task finished and every completed task drained, rethrowing the first
  /// captured exception.
  void run(std::size_t n, const std::uint32_t* dep_offsets, const std::uint32_t* dep_edges,
           const TaskFn& fn, const TaskFn& feed = {}, const TaskFn& drain = {});

  /// The serial reference schedule: feed(i); fn(i); drain(i) for ascending i
  /// — exactly what run() degenerates to with one in-flight task, and the
  /// threads=1 path of every pool call site.
  static void run_serial(std::size_t n, const TaskFn& fn, const TaskFn& feed = {},
                         const TaskFn& drain = {});

  /// Dispatch helper: serial schedule when `pool` is null, pooled otherwise.
  static void execute(WorkPool* pool, std::size_t n, const std::uint32_t* dep_offsets,
                      const std::uint32_t* dep_edges, const TaskFn& fn, const TaskFn& feed = {},
                      const TaskFn& drain = {});

  /// Maps a thread-count option to an effective count: 0 = one worker per
  /// hardware thread, otherwise the value itself (minimum 1).
  [[nodiscard]] static std::size_t resolve_threads(std::size_t requested);

 private:
  struct RunState {
    std::size_t n = 0;
    const TaskFn* fn = nullptr;
    /// Forward adjacency (dependents), built per run from the dep CSR.
    std::vector<std::uint32_t> out_offsets;
    std::vector<std::uint32_t> out_edges;
    std::vector<std::uint32_t> indeg;  ///< unmet deps, +1 while unfed
    std::vector<std::uint8_t> done;
    std::deque<std::uint32_t> ready;
    std::size_t inflight = 0;
    bool cancelled = false;
    std::exception_ptr error;
  };

  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here for ready tasks
  std::condition_variable io_cv_;    ///< the caller waits here for completions
  RunState* run_ = nullptr;          ///< non-null while a run is active
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace arm2gc::core
