// Declaration-only stub: each party runs a cycle's cone slices serially on
// its calling thread, and nothing constructs a worker pool. The name stays
// declared because the benchmark package (perfbench/) includes this header
// and passes a null WorkPool* into the unread PlannerOptions::pool slot.
#pragma once

namespace arm2gc::core {
class WorkPool;
}  // namespace arm2gc::core
