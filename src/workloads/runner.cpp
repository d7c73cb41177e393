#include <stdexcept>

#include "workloads/workload.h"

namespace dresar {

namespace {
SimTask procWrapper(Workload& w, System& sys, ThreadContext& ctx) {
  co_await w.body(sys, ctx);
  co_await ctx.fence();  // release consistency: retire every store
  ctx.markDone(ctx.now());
}
}  // namespace

RunMetrics runWorkload(System& sys, Workload& w, bool requireVerify) {
  w.setup(sys);
  for (NodeId n = 0; n < sys.config().numNodes; ++n) {
    sys.spawn(procWrapper(w, sys, sys.ctx(n)));
  }
  sys.run();
  if (!sys.quiescent()) {
    throw std::runtime_error(w.name() + ": system not quiescent after run");
  }
  if (requireVerify) {
    const WorkloadResult r = w.verify(sys);
    if (!r.ok) throw std::runtime_error(w.name() + ": verification failed: " + r.detail);
  }
  RunMetrics m = RunMetrics::collect(sys, w.name());
  w.annotate(m);
  return m;
}

}  // namespace dresar
