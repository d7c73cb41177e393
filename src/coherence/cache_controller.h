// Processor-side coherence engine: L1/L2 lookup timing, MSHRs with
// read/write merging, a release-consistency write buffer (stores retire
// without stalling the core; loads block), and the cache half of the MSI /
// full-map directory protocol, including every message the switch
// directories can generate (marked CtoCRequests, switch-served ReadReplies,
// Retry NAKs).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/config.h"
#include "common/event_queue.h"
#include "common/stats.h"
#include "common/types.h"
#include "coherence/cache_array.h"
#include "interconnect/network.h"

namespace dresar {

/// Completion record handed back to the CPU model for a load.
struct ReadResult {
  ReadService service = ReadService::L1Hit;
  Cycle latency = 0;       ///< issue -> data return, in cycles
  std::uint32_t retries = 0;
};

/// A load's caller-owned completion record. cpuRead() writes the outcome
/// into the scalar fields, then calls `complete(*this)`; the record must
/// stay alive at one address until then, and the controller does not touch
/// it afterwards. A plain function pointer rather than a type-erased
/// closure: nothing is moved or copied per load (DESIGN §11). The fields
/// are deliberately not laid out as a ReadResult, so readResult() cannot
/// be compiled into one wide copy of what the controller just wrote with
/// narrow stores.
struct LoadWaiter {
  void (*complete)(LoadWaiter&) = nullptr;
  ReadService service = ReadService::L1Hit;
  std::uint32_t retries = 0;
  Cycle latency = 0;

  [[nodiscard]] ReadResult readResult() const { return {service, latency, retries}; }
};

/// A store's caller-owned acceptance record: cpuWrite() calls
/// `complete(*this)` once the store has retired into the write buffer. The
/// lifetime rule is LoadWaiter's.
struct StoreWaiter {
  void (*complete)(StoreWaiter&) = nullptr;
};

class CacheController {
 public:
  using DoneCallback = std::function<void()>;

  /// `tracer` records issue/owner/fill events. A non-null `fault` arms a
  /// per-MSHR request timeout on every issue: a request (or its NAK) that
  /// vanishes in the network is reissued after fault.requestTimeoutCycles,
  /// bounded by maxRetries. Either may be null (untraced, fault-free runs).
  CacheController(NodeId node, const SystemConfig& cfg, EventQueue& sched, INetwork& net,
                  StatRegistry& stats, TxnTracer* tracer = nullptr,
                  FaultInjector* fault = nullptr);

  CacheController(const CacheController&) = delete;
  CacheController& operator=(const CacheController&) = delete;

  // ---- CPU-facing API ------------------------------------------------
  /// Blocking load. `waiter` completes when data is available.
  void cpuRead(Addr a, LoadWaiter& waiter);
  /// Store under release consistency: `waiter` completes when the store has
  /// retired into the write buffer (the core may proceed); the buffer
  /// acquires ownership in the background.
  void cpuWrite(Addr a, StoreWaiter& waiter);
  /// Atomic read-modify-write (lock primitives): `done` fires with the line
  /// held in M state; the caller performs its value update inside `done`.
  void cpuRmw(Addr a, DoneCallback done);
  /// Release-consistency fence: fires when the write buffer has drained and
  /// no store misses are outstanding.
  void drainWrites(DoneCallback done);

  // ---- Network-facing API ---------------------------------------------
  void onMessage(const Message& m);

  // ---- Introspection ----------------------------------------------------
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] const CacheArray& l2() const { return l2_; }
  /// True when no MSHR is live and the write buffer is empty.
  [[nodiscard]] bool quiescent() const {
    return mshrs_.empty() && wbOccupancy_ == 0 && stalledStores_.empty();
  }
  /// Append a human-readable line per in-flight MSHR (block, kind, retries,
  /// age) plus write-buffer occupancy to `os`. Deadlock diagnostics.
  void describeInFlight(std::ostream& os) const;

 private:
  struct Mshr {
    bool wantWrite = false;          ///< must end with ownership
    bool requestOutstanding = false; ///< a request is in flight (awaiting reply/retry)
    bool curRequestIsWrite = false;
    bool fillThenInvalidate = false; ///< an invalidation raced the read fill
    std::uint32_t retries = 0;
    Cycle firstIssue = 0;
    /// Bumped on every issue; a pending request timeout only fires for the
    /// issue that armed it (stale timers are no-ops). Fault runs only.
    std::uint64_t issueSerial = 0;
    std::uint64_t txn = 0;           ///< traced transaction id (0 = untraced)
    struct Reader {
      LoadWaiter* waiter;
      Cycle start;
    };
    std::vector<Reader> readers;
    std::vector<DoneCallback> writers;  ///< write-buffer entries (and RMWs)
  };

  [[nodiscard]] Addr blockOf(Addr a) const { return cfg_.blockOf(a); }
  [[nodiscard]] NodeId homeOf(Addr a) const { return cfg_.homeOf(a); }

  /// Record `ev` for traced transaction `txn` at this node, now; a no-op
  /// when untraced.
  void trace(std::uint64_t txn, TxnEvent ev, TxnLeg leg);

  /// Controller occupancy for incoming protocol messages.
  Cycle acquireCtrl(Cycle busy);

  /// Re-issue delay after the `attempt`-th NAK of one transaction: the base
  /// backoff doubled per retry, bounded by switchDir.retryBackoffMaxCycles.
  [[nodiscard]] Cycle backoffDelay(std::uint32_t attempt) const;

  void sendRequest(Addr block, Mshr& m);
  /// Schedule the fault-mode request timeout for the given issue serial.
  void armRequestTimeout(Addr block, std::uint64_t serial);
  void startReadMiss(Addr block, LoadWaiter& waiter, Cycle start);
  void startWriteMiss(Addr block, DoneCallback retire, bool isRmw);

  /// Install a fill and complete the MSHR according to the reply type.
  void handleFill(const Message& m);
  /// The owner and invalidation paths take the boxed message from
  /// onMessage's event and carry it on into their L2-access event.
  void handleCtoCRequest(MessageBox box);
  void handleInvalidation(MessageBox box);
  void handleRetry(const Message& m);

  void installLine(Addr block, CacheState state);
  void maybeReleaseStalledStores();
  void maybeFireDrainWaiters();

  [[nodiscard]] ReadService classifyFill(const Message& m) const;

  NodeId node_;
  const SystemConfig& cfg_;
  EventQueue& sched_;
  INetwork& net_;
  TxnTracer* const tracer_;
  FaultInjector* const fault_;

  /// Per-node counters ("cache.<n>.*"), resolved once at construction.
  struct Counters {
    CounterHandle reads, l1Hits, l2Hits, readMerged, mshrFullStalls, readMisses, writes,
        wbFullStalls, rmws, writeHits, writeUpgrades, writeMisses, evictions, writebacks,
        spuriousFills, fillThenInvalidate, ctocCannotSupply, ctocDroppedWbRace, ctocSupplied,
        cleanupInvalidations, recalls, invalidations, spuriousRetries, retries, backoffCycles;
  };
  Counters c_;
  /// Global read-service classification counters ("svc.<ReadService>").
  std::array<CounterHandle, kReadServiceCount> svc_;
  SamplerHandle latAll_, latClean_, latCtoC_, latCleanMiss_;

  L1Filter l1_;
  /// The L2 tag store, zero-initialized and declared before the view over
  /// it. A store of tens of KiB gains nothing from a huge-page region.
  std::vector<CacheLine> l2Lines_;
  CacheArray l2_;
  /// Arena backing the MSHR map's nodes; MSHRs churn on every miss, and the
  /// arena turns that node traffic into free-list pops. Declared before
  /// mshrs_ so it outlives the map.
  Arena mshrArena_;
  std::unordered_map<Addr, Mshr, std::hash<Addr>, std::equal_to<Addr>,
                     ArenaAllocator<std::pair<const Addr, Mshr>>>
      mshrs_{ArenaAllocator<std::pair<const Addr, Mshr>>(mshrArena_)};
  Cycle ctrlFree_ = 0;

  std::uint32_t wbOccupancy_ = 0;  ///< write-buffer entries in flight
  std::deque<std::pair<Addr, StoreWaiter*>> stalledStores_;
  std::vector<DoneCallback> drainWaiters_;
};

}  // namespace dresar
