#include "coherence/cache_controller.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "common/log.h"
#include "fault/injector.h"

namespace dresar {

namespace {
NodeMask bit(NodeId n) { return nodeBit(n); }

void completeLoad(LoadWaiter& w, ReadService service, Cycle latency, std::uint32_t retries) {
  w.service = service;
  w.retries = retries;
  w.latency = latency;
  w.complete(w);
}
}  // namespace

CacheController::CacheController(NodeId node, const SystemConfig& cfg, EventQueue& sched,
                                 INetwork& net, StatRegistry& stats, TxnTracer* tracer,
                                 FaultInjector* fault)
    : node_(node),
      cfg_(cfg),
      sched_(sched),
      net_(net),
      tracer_(tracer),
      fault_(fault),
      l1_(cfg.l1Bytes, cfg.l1Assoc, cfg.lineBytes),
      l2Lines_(CacheArray::linesFor(cfg.l2Bytes, cfg.l2Assoc, cfg.lineBytes)),
      l2_(l2Lines_, cfg.l2Bytes, cfg.l2Assoc, cfg.lineBytes) {
  const std::string pfx = "cache." + std::to_string(node) + ".";
  c_.reads = stats.counterHandle(pfx + "reads");
  c_.l1Hits = stats.counterHandle(pfx + "l1_hits");
  c_.l2Hits = stats.counterHandle(pfx + "l2_hits");
  c_.readMerged = stats.counterHandle(pfx + "read_merged");
  c_.mshrFullStalls = stats.counterHandle(pfx + "mshr_full_stalls");
  c_.readMisses = stats.counterHandle(pfx + "read_misses");
  c_.writes = stats.counterHandle(pfx + "writes");
  c_.wbFullStalls = stats.counterHandle(pfx + "wb_full_stalls");
  c_.rmws = stats.counterHandle(pfx + "rmws");
  c_.writeHits = stats.counterHandle(pfx + "write_hits");
  c_.writeUpgrades = stats.counterHandle(pfx + "write_upgrades");
  c_.writeMisses = stats.counterHandle(pfx + "write_misses");
  c_.evictions = stats.counterHandle(pfx + "evictions");
  c_.writebacks = stats.counterHandle(pfx + "writebacks");
  c_.spuriousFills = stats.counterHandle(pfx + "spurious_fills");
  c_.fillThenInvalidate = stats.counterHandle(pfx + "fill_then_invalidate");
  c_.ctocCannotSupply = stats.counterHandle(pfx + "ctoc_cannot_supply");
  c_.ctocDroppedWbRace = stats.counterHandle(pfx + "ctoc_dropped_wb_race");
  c_.ctocSupplied = stats.counterHandle(pfx + "ctoc_supplied");
  c_.cleanupInvalidations = stats.counterHandle(pfx + "cleanup_invalidations");
  c_.recalls = stats.counterHandle(pfx + "recalls");
  c_.invalidations = stats.counterHandle(pfx + "invalidations");
  c_.spuriousRetries = stats.counterHandle(pfx + "spurious_retries");
  c_.retries = stats.counterHandle(pfx + "retries");
  c_.backoffCycles = stats.counterHandle(pfx + "backoff_cycles");
  for (std::size_t s = 0; s < kReadServiceCount; ++s) {
    svc_[s] = stats.counterHandle(std::string("svc.") + toString(static_cast<ReadService>(s)));
  }
  latAll_ = stats.samplerHandle("cpu.read_latency");
  latClean_ = stats.samplerHandle("cpu.read_latency.clean");
  latCtoC_ = stats.samplerHandle("cpu.read_latency.ctoc");
  latCleanMiss_ = stats.samplerHandle("cpu.read_latency.clean_miss");
}

void CacheController::trace(std::uint64_t txn, TxnEvent ev, TxnLeg leg) {
  if (tracer_ != nullptr && txn != 0) tracer_->record(txn, ev, leg, txnAtProc(node_), sched_.now());
}

Cycle CacheController::acquireCtrl(Cycle busy) {
  const Cycle start = std::max(sched_.now(), ctrlFree_);
  ctrlFree_ = start + busy;
  return start - sched_.now();
}

Cycle CacheController::backoffDelay(std::uint32_t attempt) const {
  const Cycle base = cfg_.retryBackoffCycles;
  const Cycle cap = std::max<Cycle>(base, cfg_.switchDir.retryBackoffMaxCycles);
  const std::uint32_t shift = std::min(attempt - 1, 24u);
  return std::min(base << shift, cap);
}

// ---------------------------------------------------------------------------
// CPU-facing operations
// ---------------------------------------------------------------------------

void CacheController::cpuRead(Addr a, LoadWaiter& waiter) {
  const Addr block = blockOf(a);
  const Cycle start = sched_.now();
  ++c_.reads;
  sched_.scheduleIn(cfg_.l1AccessCycles, [this, block, start, w = &waiter] {
    if (l1_.contains(block)) {
      latAll_.add(static_cast<double>(sched_.now() - start));
      latClean_.add(static_cast<double>(sched_.now() - start));
      ++c_.l1Hits;
      completeLoad(*w, ReadService::L1Hit, sched_.now() - start, 0);
      return;
    }
    sched_.scheduleIn(cfg_.l2AccessCycles, [this, block, start, w] {
      CacheLine* line = l2_.find(block);
      if (line != nullptr) {
        l1_.insert(block);
        latAll_.add(static_cast<double>(sched_.now() - start));
        latClean_.add(static_cast<double>(sched_.now() - start));
        ++c_.l2Hits;
        completeLoad(*w, ReadService::L2Hit, sched_.now() - start, 0);
        return;
      }
      startReadMiss(block, *w, start);
    });
  });
}

void CacheController::startReadMiss(Addr block, LoadWaiter& waiter, Cycle start) {
  auto it = mshrs_.find(block);
  if (it != mshrs_.end()) {
    // Merge into the outstanding transaction (possibly a store's ownership
    // fetch — the classic "load hits pending write buffer entry" case).
    it->second.readers.push_back({&waiter, start});
    ++c_.readMerged;
    return;
  }
  if (mshrs_.size() >= cfg_.mshrEntries) {
    ++c_.mshrFullStalls;
    sched_.scheduleIn(cfg_.l2AccessCycles, [this, block, start, w = &waiter] {
      startReadMiss(block, *w, start);
    });
    return;
  }
  Mshr& m = mshrs_[block];
  m.firstIssue = sched_.now();
  if (tracer_ != nullptr) {
    m.txn = tracer_->begin(block, node_, /*write=*/false, start);
  }
  m.readers.push_back({&waiter, start});
  ++c_.readMisses;
  sendRequest(block, m);
  trace(m.txn, TxnEvent::Issue, TxnLeg::Request);
}

void CacheController::cpuWrite(Addr a, Waiter& waiter) {
  const Addr block = blockOf(a);
  ++c_.writes;
  sched_.scheduleIn(cfg_.l1AccessCycles, [this, block, w = &waiter] {
    if (wbOccupancy_ >= cfg_.writeBufferEntries) {
      ++c_.wbFullStalls;
      stalledStores_.emplace_back(block, w);
      return;
    }
    bufferStore(block, *w);
  });
}

void CacheController::bufferStore(Addr block, Waiter& waiter) {
  ++wbOccupancy_;
  waiter.complete(waiter);  // Release consistency: the core proceeds immediately.
  startWriteMiss(block, retire_, /*isRmw=*/false);
}

void CacheController::retireStore() {
  --wbOccupancy_;
  maybeReleaseStalledStores();
  maybeFireDrainWaiters();
}

void CacheController::cpuRmw(Addr a, Waiter& waiter) {
  const Addr block = blockOf(a);
  ++c_.rmws;
  sched_.scheduleIn(cfg_.l1AccessCycles + cfg_.l2AccessCycles, [this, block, w = &waiter] {
    startWriteMiss(block, *w, /*isRmw=*/true);
  });
}

void CacheController::startWriteMiss(Addr block, Waiter& done, bool isRmw) {
  CacheLine* line = l2_.find(block);
  if (line != nullptr && line->state == CacheState::M) {
    l1_.insert(block);
    if (!isRmw) ++c_.writeHits;
    done.complete(done);
    return;
  }
  auto it = mshrs_.find(block);
  if (it != mshrs_.end()) {
    Mshr& m = it->second;
    m.writers.push_back(&done);
    if (!m.wantWrite) {
      // A read transaction is in flight; the write piggybacks and an
      // ownership request follows the read fill.
      m.wantWrite = true;
    }
    return;
  }
  if (mshrs_.size() >= cfg_.mshrEntries) {
    ++c_.mshrFullStalls;
    sched_.scheduleIn(cfg_.l2AccessCycles, [this, block, w = &done, isRmw] {
      startWriteMiss(block, *w, isRmw);
    });
    return;
  }
  Mshr& m = mshrs_[block];
  m.firstIssue = sched_.now();
  m.wantWrite = true;
  if (tracer_ != nullptr) {
    m.txn = tracer_->begin(block, node_, /*write=*/true, sched_.now());
  }
  m.writers.push_back(&done);
  ++(line != nullptr ? c_.writeUpgrades : c_.writeMisses);
  sendRequest(block, m);
  trace(m.txn, TxnEvent::Issue, TxnLeg::Request);
}

void CacheController::sendRequest(Addr block, Mshr& m) {
  m.requestOutstanding = true;
  m.curRequestIsWrite = m.wantWrite;
  Message req;
  req.type = m.wantWrite ? MsgType::WriteRequest : MsgType::ReadRequest;
  req.src = procEp(node_);
  req.dst = memEp(homeOf(block));
  req.addr = block;
  req.requester = node_;
  req.txn = m.txn;
  net_.send(req);
  if (fault_ != nullptr) {
    ++m.issueSerial;
    armRequestTimeout(block, m.issueSerial);
  }
}

void CacheController::armRequestTimeout(Addr block, std::uint64_t serial) {
  sched_.scheduleIn(fault_->requestTimeoutCycles(), [this, block, serial] {
    auto it = mshrs_.find(block);
    if (it == mshrs_.end()) return;  // transaction completed meanwhile
    Mshr& mshr = it->second;
    if (!mshr.requestOutstanding || mshr.issueSerial != serial) return;  // stale timer
    // The request (or its NAK) vanished in the network: reissue. A duplicate
    // of a request that merely crawled is protocol-safe — the directory
    // re-grants to the current owner and this controller absorbs the extra
    // reply/NAK as spurious.
    mshr.requestOutstanding = false;
    ++mshr.retries;
    if (mshr.retries > cfg_.maxRetries) {
      throw std::runtime_error("CacheController: timeout livelock on block " +
                               std::to_string(block));
    }
    fault_->noteTimeoutReissue();
    fault_->consumeStranded(node_, block);
    trace(mshr.txn, TxnEvent::Reissue, TxnLeg::None);
    sendRequest(block, mshr);
  });
}

void CacheController::describeInFlight(std::ostream& os) const {
  if (quiescent()) return;
  os << "\n  node " << node_ << ": " << mshrs_.size() << " MSHR(s), write-buffer occupancy "
     << wbOccupancy_ << ", stalled stores " << stalledStores_.size();
  std::vector<Addr> blocks;
  blocks.reserve(mshrs_.size());
  for (const auto& [block, m] : mshrs_) blocks.push_back(block);
  std::sort(blocks.begin(), blocks.end());
  for (const Addr block : blocks) {
    const Mshr& m = mshrs_.at(block);
    os << "\n    block 0x" << std::hex << block << std::dec
       << (m.wantWrite ? " write" : " read")
       << (m.requestOutstanding ? ", request outstanding" : ", awaiting reissue")
       << ", retries " << m.retries << ", age " << sched_.now() - m.firstIssue << " cycles";
  }
}

void CacheController::drainWrites(Waiter& waiter) {
  if (wbOccupancy_ == 0 && stalledStores_.empty()) {
    waiter.complete(waiter);
    return;
  }
  drainWaiters_.push_back(&waiter);
}

void CacheController::maybeReleaseStalledStores() {
  while (!stalledStores_.empty() && wbOccupancy_ < cfg_.writeBufferEntries) {
    const auto [block, w] = stalledStores_.front();
    stalledStores_.pop_front();
    bufferStore(block, *w);
  }
}

void CacheController::maybeFireDrainWaiters() {
  if (wbOccupancy_ != 0 || !stalledStores_.empty()) return;
  auto waiters = std::move(drainWaiters_);
  drainWaiters_.clear();
  for (Waiter* w : waiters) w->complete(*w);
}

// ---------------------------------------------------------------------------
// Network-facing operations
// ---------------------------------------------------------------------------

void CacheController::onMessage(const Message& m) {
  const Cycle delay = acquireCtrl(cfg_.cacheCtrlOccupancyCycles);
  sched_.scheduleIn(delay, [this, box = sched_.box(m)]() mutable {
    switch (box->type) {
      case MsgType::ReadReply:
      case MsgType::CtoCReply:
      case MsgType::WriteReply:
        handleFill(*box);
        break;
      case MsgType::CtoCRequest:
        handleCtoCRequest(std::move(box));
        break;
      case MsgType::Invalidation:
        handleInvalidation(std::move(box));
        break;
      case MsgType::Retry:
        handleRetry(*box);
        break;
      default:
        throw std::logic_error("CacheController: unexpected message " + box->describe());
    }
  });
}

ReadService CacheController::classifyFill(const Message& m) const {
  switch (m.type) {
    case MsgType::ReadReply:
      if (m.marked) return ReadService::SwitchWriteBack;
      return m.viaSwitchCache ? ReadService::SwitchCache : ReadService::CleanMemory;
    case MsgType::CtoCReply:
      return m.viaSwitchDir ? ReadService::CtoCSwitchDir : ReadService::CtoCHome;
    case MsgType::WriteReply:
    default:
      return ReadService::CleanMemory;
  }
}

void CacheController::installLine(Addr block, CacheState state) {
  Victim victim;
  CacheLine* line = l2_.allocate(block, victim);
  if (victim.evicted) {
    l1_.remove(victim.block);
    ++c_.evictions;
    if (victim.dirty) {
      Message wb;
      wb.type = MsgType::WriteBack;
      wb.src = procEp(node_);
      wb.dst = memEp(homeOf(victim.block));
      wb.addr = victim.block;
      wb.requester = node_;
      net_.send(wb);
      ++c_.writebacks;
    }
  }
  line->state = state;
  l1_.insert(block);
}

void CacheController::handleFill(const Message& m) {
  auto it = mshrs_.find(m.addr);
  if (it == mshrs_.end()) {
    // A transaction can be answered twice when a copyback served the
    // requester at a switch while the owner also replied; drop the extra.
    ++c_.spuriousFills;
    if (m.type == MsgType::WriteReply) {
      // The home's serialization point made this node the owner (a duplicate
      // WriteRequest can be granted after the first grant was satisfied and
      // the line surrendered). Discarding the grant would orphan the home's
      // Modified entry and deadlock any request it later forwards here —
      // accept ownership so a forward or writeback re-converges the
      // directory.
      CacheLine* line = l2_.find(m.addr);
      if (line == nullptr) {
        installLine(m.addr, CacheState::M);
      } else {
        line->state = CacheState::M;
      }
    }
    return;
  }
  Mshr& mshr = it->second;
  if (m.type != MsgType::WriteReply && mshr.curRequestIsWrite) {
    // A read-type fill cannot answer an ownership request; it is a stale
    // duplicate of an already-completed read (e.g. the home resolved a
    // BusyRead off an unrelated copyback after the owner had replied to the
    // requester directly). Falling through would re-run the ownership chase
    // and issue a second WriteRequest while the first is still in flight.
    ++c_.spuriousFills;
    return;
  }
  // A fill can rescue a dropped issue (e.g. the original request crawled in
  // after a timeout-reissue was itself dropped); settle the strand here so
  // the recovery accounting balances even when the MSHR dies with a stale
  // timer pending.
  if (fault_ != nullptr) fault_->consumeStranded(node_, m.addr);
  const ReadService service = classifyFill(m);

  if (m.type == MsgType::WriteReply) {
    installLine(m.addr, CacheState::M);
    Mshr done = std::move(mshr);
    mshrs_.erase(it);
    trace(done.txn, TxnEvent::Fill, TxnLeg::Return);
    if (tracer_ != nullptr) tracer_->complete(done.txn);
    for (auto& r : done.readers) {
      latAll_.add(static_cast<double>(sched_.now() - r.start));
      latClean_.add(static_cast<double>(sched_.now() - r.start));
      ++svc_[static_cast<std::size_t>(ReadService::CleanMemory)];
      completeLoad(*r.waiter, ReadService::CleanMemory, sched_.now() - r.start, done.retries);
    }
    for (Waiter* w : done.writers) w->complete(*w);
    return;
  }

  // Read-type fill (ReadReply or CtoCReply): line arrives in S state.
  installLine(m.addr, mshr.fillThenInvalidate ? CacheState::I : CacheState::S);
  if (mshr.fillThenInvalidate) {
    // The data is still delivered to the waiting loads (it is the value as
    // of the invalidating write's serialization point), but the line is dead.
    l1_.remove(m.addr);
    ++c_.fillThenInvalidate;
  }
  auto readers = std::move(mshr.readers);
  mshr.readers.clear();
  mshr.fillThenInvalidate = false;
  const std::uint32_t retries = mshr.retries;
  const bool isCtoC = service == ReadService::CtoCHome || service == ReadService::CtoCSwitchDir ||
                      service == ReadService::SwitchWriteBack;
  for (auto& r : readers) {
    const auto lat = static_cast<double>(sched_.now() - r.start);
    latAll_.add(lat);
    (isCtoC ? latCtoC_ : latClean_).add(lat);
    if (!isCtoC) latCleanMiss_.add(lat);
    ++svc_[static_cast<std::size_t>(service)];
    completeLoad(*r.waiter, service, sched_.now() - r.start, retries);
  }
  trace(mshr.txn, TxnEvent::Fill, TxnLeg::Return);
  if (tracer_ != nullptr) tracer_->complete(mshr.txn);
  mshr.txn = 0;
  if (mshr.wantWrite) {
    // A store merged behind this read: chase ownership now. The ownership
    // fetch is traced as a fresh write transaction.
    mshr.requestOutstanding = false;
    mshr.retries = 0;
    if (tracer_ != nullptr) {
      mshr.txn = tracer_->begin(m.addr, node_, /*write=*/true, sched_.now());
    }
    sendRequest(m.addr, mshr);
    trace(mshr.txn, TxnEvent::Issue, TxnLeg::Request);
  } else {
    mshrs_.erase(it);
  }
}

void CacheController::handleCtoCRequest(MessageBox box) {
  trace(box->txn, TxnEvent::OwnerArrive, TxnLeg::Forward);
  sched_.scheduleIn(cfg_.l2AccessCycles, [this, box = std::move(box)] {
    const Message& m = *box;
    CacheLine* line = l2_.find(m.addr);
    if (line == nullptr) {
      if (m.marked) {
        // Stale switch-directory entry (we lost the line since): tell the
        // initiating switch so it bounces the requester (paper "Retries").
        Message retry;
        retry.type = MsgType::Retry;
        retry.src = procEp(node_);
        retry.dst = memEp(homeOf(m.addr));
        retry.addr = m.addr;
        retry.requester = m.requester;
        retry.marked = true;
        retry.txn = m.txn;
        trace(m.txn, TxnEvent::OwnerInject, TxnLeg::Retry);
        net_.send(retry);
        ++c_.ctocCannotSupply;
      } else {
        // Our WriteBack is in flight; it resolves the transaction at home.
        ++c_.ctocDroppedWbRace;
      }
      return;
    }
    // M or S: supply the data directly to the requester and copy back to the
    // home so memory and the full-map directory stay exact.
    ++c_.ctocSupplied;
    Message reply;
    reply.type = MsgType::CtoCReply;
    reply.src = procEp(node_);
    reply.dst = procEp(m.requester);
    reply.addr = m.addr;
    reply.requester = m.requester;
    reply.viaSwitchDir = m.marked;
    reply.txn = m.txn;
    trace(m.txn, TxnEvent::OwnerInject, TxnLeg::Return);
    net_.send(reply);

    Message cb;
    cb.type = MsgType::CopyBack;
    cb.src = procEp(node_);
    cb.dst = memEp(homeOf(m.addr));
    cb.addr = m.addr;
    cb.requester = m.requester;
    cb.carriedSharers = bit(m.requester);
    cb.marked = m.marked;
    net_.send(cb);

    line->state = CacheState::S;
  });
}

void CacheController::handleInvalidation(MessageBox box) {
  sched_.scheduleIn(cfg_.l2AccessCycles, [this, box = std::move(box)] {
    const Message& m = *box;
    CacheLine* line = l2_.find(m.addr);
    if (m.marked) {
      // Ack-free cleanup invalidation (switch-cache stale-serve path).
      if (line != nullptr) {
        l2_.invalidate(*line);
        l1_.remove(m.addr);
      } else if (auto it = mshrs_.find(m.addr);
                 it != mshrs_.end() && !it->second.wantWrite) {
        it->second.fillThenInvalidate = true;
      }
      ++c_.cleanupInvalidations;
      return;
    }
    // A recall can only find the line in M/S/I: the home's outgoing messages
    // to one node are FIFO (DirController::sendOrdered), so a recall can
    // never overtake the WriteReply that granted ownership. A recall that
    // finds the line gone refers to an ownership epoch we already ended (our
    // WriteBack is in flight) and is acked like a plain invalidation — even
    // if we are re-requesting the block right now.
    if (line != nullptr && line->state == CacheState::M) {
      // Recall: surrender the dirty line to the home.
      Message cb;
      cb.type = MsgType::CopyBack;
      cb.src = procEp(node_);
      cb.dst = memEp(homeOf(m.addr));
      cb.addr = m.addr;
      cb.recall = true;
      net_.send(cb);
      l2_.invalidate(*line);
      l1_.remove(m.addr);
      ++c_.recalls;
      return;
    }
    if (line != nullptr) {
      l2_.invalidate(*line);
      l1_.remove(m.addr);
    } else {
      auto it = mshrs_.find(m.addr);
      if (it != mshrs_.end() && !it->second.wantWrite) {
        // Read fill in flight: deliver it, then kill the line.
        it->second.fillThenInvalidate = true;
      }
    }
    Message ack;
    ack.type = MsgType::InvalAck;
    ack.src = procEp(node_);
    ack.dst = memEp(homeOf(m.addr));
    ack.addr = m.addr;
    net_.send(ack);
    ++c_.invalidations;
  });
}

void CacheController::handleRetry(const Message& m) {
  auto it = mshrs_.find(m.addr);
  if (it == mshrs_.end() || !it->second.requestOutstanding) {
    ++c_.spuriousRetries;
    return;
  }
  Mshr& mshr = it->second;
  mshr.requestOutstanding = false;
  ++mshr.retries;
  ++c_.retries;
  if (mshr.retries > cfg_.maxRetries) {
    throw std::runtime_error("CacheController: retry livelock on " + m.describe());
  }
  trace(mshr.txn, TxnEvent::RetryArrive, TxnLeg::Retry);
  const Addr block = m.addr;
  const Cycle delay = backoffDelay(mshr.retries);
  c_.backoffCycles += delay;
  sched_.scheduleIn(delay, [this, block] {
    auto it2 = mshrs_.find(block);
    if (it2 == mshrs_.end() || it2->second.requestOutstanding) return;
    Mshr& mshr2 = it2->second;
    trace(mshr2.txn, TxnEvent::Reissue, TxnLeg::None);
    sendRequest(block, mshr2);
  });
}

}  // namespace dresar
