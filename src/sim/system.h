// Assembles a complete CC-NUMA multiprocessor: event kernel, BMIN network
// with DRESAR switch directories, one cache controller + thread context per
// processor, one directory controller per memory module, and a shared
// address space. Runs workload coroutines to completion with a deadlock
// watchdog and exposes everything the metrics layer and tests need.
//
// Scheduling API: every component schedules on the kernel's one EventQueue
// (sched()) and counts into its one StatRegistry (stats()).
//
// Observer wiring: System builds its own Butterfly (pure arithmetic,
// identical to the network's) and constructs every observer first — tracer,
// fault injector, snoop chain. Each component takes the observers it uses
// at construction: the controllers and switch managers as nullable
// pointers, the network as one immutable NetworkHooks struct. Deliveries
// dispatch through a single System-owned sink to the per-node controllers;
// no component has observer state to wire up in the right order.
#pragma once

#include <memory>
#include <vector>

#include "common/config.h"
#include "common/sim_kernel.h"
#include "common/stats.h"
#include "coherence/cache_controller.h"
#include "coherence/dir_controller.h"
#include "cpu/context.h"
#include "cpu/task.h"
#include "fault/injector.h"
#include "interconnect/flit_network.h"
#include "interconnect/network.h"
#include "sim/address_space.h"
#include "switchdir/dresar.h"
#include "switchdir/switch_cache.h"

namespace dresar {

class System {
 public:
  explicit System(const SystemConfig& cfg);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] const SystemConfig& config() const { return cfg_; }

  /// The simulation kernel (clock, executed-event count, and run(limit) for
  /// drivers that stop a simulation early).
  [[nodiscard]] SimKernel& kernel() { return kernel_; }
  [[nodiscard]] const SimKernel& kernel() const { return kernel_; }
  /// The event queue every component schedules on: what System-level code
  /// (workload setup, examples) schedules through.
  [[nodiscard]] EventQueue& sched() { return kernel_.queue(); }

  [[nodiscard]] StatRegistry& stats() { return kernel_.stats(); }
  [[nodiscard]] const StatRegistry& stats() const { return kernel_.stats(); }
  [[nodiscard]] INetwork& net() { return *net_; }
  [[nodiscard]] const INetwork& net() const { return *net_; }
  [[nodiscard]] AddressSpace& mem() { return *mem_; }
  [[nodiscard]] DresarManager& dresar() { return *dresar_; }
  [[nodiscard]] const DresarManager& dresar() const { return *dresar_; }
  [[nodiscard]] SwitchCacheManager& switchCache() { return *scache_; }
  [[nodiscard]] const SwitchCacheManager& switchCache() const { return *scache_; }
  /// Transaction tracer; records only when cfg.txnTrace.enabled.
  [[nodiscard]] TxnTracer& txnTracer() { return *tracer_; }
  [[nodiscard]] const TxnTracer& txnTracer() const { return *tracer_; }
  /// Fault injector; nullptr unless cfg.fault.enabled() (fault-free runs
  /// never construct one, keeping their stats output byte-identical).
  [[nodiscard]] FaultInjector* faultInjector() { return fault_.get(); }
  [[nodiscard]] const FaultInjector* faultInjector() const { return fault_.get(); }

  [[nodiscard]] CacheController& cache(NodeId n) { return *caches_.at(n); }
  [[nodiscard]] const CacheController& cache(NodeId n) const { return *caches_.at(n); }
  [[nodiscard]] DirController& dir(NodeId n) { return *dirs_.at(n); }
  [[nodiscard]] const DirController& dir(NodeId n) const { return *dirs_.at(n); }
  [[nodiscard]] ThreadContext& ctx(NodeId n) { return *ctxs_.at(n); }
  [[nodiscard]] const ThreadContext& ctx(NodeId n) const { return *ctxs_.at(n); }

  /// Register a top-level task. Tasks start at cycle 0 in spawn order.
  void spawn(SimTask task) { tasks_.push_back(std::move(task)); }
  /// Same, for callers that name the processor running the task (perfbench);
  /// with one queue the owner does not affect scheduling.
  void spawn(NodeId /*owner*/, SimTask task) { spawn(std::move(task)); }

  /// Start every spawned task and run the kernel until it drains.
  /// Returns the final cycle. Throws on deadlock (events exhausted while a
  /// task is still suspended) or if a task failed with an exception.
  Cycle run(Cycle limit = kNoCycle);

  /// Simulated clock during and after run.
  [[nodiscard]] Cycle now() const { return kernel_.now(); }

  /// True when every controller has no in-flight transaction — the state in
  /// which the protocol invariant checker may run.
  [[nodiscard]] bool quiescent() const;

 private:
  /// In-flight state dump (suspended tasks, live MSHRs, busy directory
  /// entries) appended to livelock/deadlock exception messages.
  [[nodiscard]] std::string inFlightReport() const;

  /// The one delivery sink behind NetworkHooks: dispatches on the endpoint
  /// kind to the owning cache or directory controller. Its address is fixed
  /// before the network exists, so wiring can never race construction.
  class Sink final : public IMessageSink {
   public:
    explicit Sink(System& sys) : sys_(sys) {}
    void deliver(Endpoint ep, const Message& m) override;

   private:
    System& sys_;
  };

  SystemConfig cfg_;
  SimKernel kernel_;
  std::unique_ptr<TxnTracer> tracer_;
  std::unique_ptr<FaultInjector> fault_;
  /// System's own copy of the topology arithmetic (identical to the
  /// network's): lets the managers construct before the network so the
  /// snoop pointer is ready for NetworkHooks.
  std::unique_ptr<Butterfly> topo_;
  std::unique_ptr<DresarManager> dresar_;
  std::unique_ptr<SwitchCacheManager> scache_;
  std::unique_ptr<SnoopChain> snoopChain_;
  Sink sink_{*this};
  std::unique_ptr<INetwork> net_;
  std::unique_ptr<AddressSpace> mem_;
  std::vector<std::unique_ptr<CacheController>> caches_;
  std::vector<std::unique_ptr<DirController>> dirs_;
  std::vector<std::unique_ptr<ThreadContext>> ctxs_;
  std::vector<SimTask> tasks_;
};

}  // namespace dresar
