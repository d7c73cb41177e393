#include "sim/system.h"

#include <sstream>
#include <stdexcept>
#include <string>

namespace dresar {

System::System(const SystemConfig& cfg) : cfg_(cfg) {
  cfg_.validate();
  EventQueue& sched = kernel_.queue();
  StatRegistry& reg = kernel_.stats();
  tracer_ = std::make_unique<TxnTracer>(
      cfg_.txnTrace.enabled,
      TxnTracer::Config{cfg_.txnTrace.ringEvents, cfg_.txnTrace.maxEventsPerTxn});
  // Components only get the tracer when tracing is on, so a disabled run
  // pays nothing but a null check and stays bit-identical.
  TxnTracer* tracer = cfg_.txnTrace.enabled ? tracer_.get() : nullptr;
  // Same conditional-construction pattern as the tracer: the injector
  // registers fault.* counters, so building one only when a fault is
  // configured keeps fault-free stats output byte-identical.
  if (cfg_.fault.enabled()) {
    fault_ = std::make_unique<FaultInjector>(cfg_.fault, reg);
  }
  // Every observer exists before any component does: each component takes
  // the tracer and injector it uses at construction (the network in one
  // NetworkHooks struct) and never changes them afterwards.
  topo_ = std::make_unique<Butterfly>(cfg_.numNodes, cfg_.net.switchRadix);
  dresar_ = std::make_unique<DresarManager>(cfg_.switchDir, *topo_, cfg_.lineBytes,
                                            cfg_.numNodes, reg, tracer, fault_.get());
  scache_ = std::make_unique<SwitchCacheManager>(cfg_.switchCache, *topo_, cfg_.lineBytes, reg,
                                                 fault_.get());
  ISwitchSnoop* snoop = nullptr;
  if (dresar_->enabled() && scache_->enabled()) {
    snoopChain_ = std::make_unique<SnoopChain>(dresar_.get(), scache_.get());
    snoop = snoopChain_.get();
  } else if (dresar_->enabled()) {
    snoop = dresar_.get();
  } else if (scache_->enabled()) {
    snoop = scache_.get();
  }
  const NetworkHooks hooks{&sink_, snoop, tracer, fault_.get()};
  if (cfg_.net.flitLevel) {
    net_ = std::make_unique<FlitNetwork>(cfg_.net, cfg_.numNodes, cfg_.lineBytes, sched, reg,
                                         hooks);
  } else {
    net_ = std::make_unique<Network>(cfg_.net, cfg_.numNodes, cfg_.lineBytes, sched, reg,
                                     hooks);
  }
  mem_ = std::make_unique<AddressSpace>(cfg_);

  caches_.reserve(cfg_.numNodes);
  dirs_.reserve(cfg_.numNodes);
  ctxs_.reserve(cfg_.numNodes);
  for (NodeId n = 0; n < cfg_.numNodes; ++n) {
    // Deliveries reach these controllers through sink_ (no per-endpoint
    // registration).
    caches_.push_back(
        std::make_unique<CacheController>(n, cfg_, sched, *net_, reg, tracer, fault_.get()));
    dirs_.push_back(std::make_unique<DirController>(n, cfg_, sched, *net_, reg, tracer));
    ctxs_.push_back(std::make_unique<ThreadContext>(n, cfg_, sched, *caches_.back()));
  }
}

void System::Sink::deliver(Endpoint ep, const Message& m) {
  if (ep.kind == EndpointKind::Proc) {
    sys_.caches_.at(ep.node)->onMessage(m);
  } else {
    sys_.dirs_.at(ep.node)->onMessage(m);
  }
}

Cycle System::run(Cycle limit) {
  for (auto& t : tasks_) t.start();
  const bool drained = kernel_.run(limit);
  for (auto& t : tasks_) t.rethrowIfFailed();
  if (!drained) {
    throw std::runtime_error("System::run: cycle limit " + std::to_string(limit) +
                             " exceeded with events pending (livelock?)" + inFlightReport());
  }
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (!tasks_[i].done()) {
      throw std::runtime_error("System::run: deadlock — task " + std::to_string(i) +
                               " suspended with no pending events at cycle " +
                               std::to_string(kernel_.now()) + inFlightReport());
    }
  }
  return kernel_.now();
}

std::string System::inFlightReport() const {
  std::ostringstream os;
  std::size_t suspended = 0;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (!tasks_[i].done()) ++suspended;
  }
  os << "\nin-flight state: " << suspended << " task(s) suspended";
  if (suspended > 0) {
    os << " (";
    bool first = true;
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].done()) continue;
      if (!first) os << ", ";
      os << i;
      first = false;
    }
    os << ")";
  }
  for (const auto& c : caches_) c->describeInFlight(os);
  for (const auto& d : dirs_) d->describeInFlight(os);
  return os.str();
}

bool System::quiescent() const {
  for (const auto& c : caches_) {
    if (!c->quiescent()) return false;
  }
  for (const auto& d : dirs_) {
    if (!d->quiescent()) return false;
  }
  return true;
}

}  // namespace dresar
