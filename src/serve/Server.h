//===- serve/Server.h - The ardf serve request engine ----------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's transport-agnostic core: a bounded request queue, a
/// worker pool, the tenant cache, and a watchdog. Transports (stdio,
/// Unix socket -- `ardf serve`) read lines and call submit(); the
/// server promises to invoke the response callback exactly once per
/// submitted line, always with a well-formed protocol response.
///
/// The robustness envelope, one layer per failure class:
///
///  * Admission: a line over MaxRequestBytes is refused with
///    payload-too-large before parsing; a full queue sheds the request
///    with an immediate overloaded response (bounded memory, bounded
///    latency for everyone already queued).
///  * Budgets: every analysis runs under the server's SolverBudget
///    ceilings; a request may tighten its own budget but never loosen
///    the server's. Breaches degrade the analysis, not the daemon.
///  * Fault boundary: each request runs inside its own try/catch (plus
///    the serve.request failpoint); an escaping exception becomes an
///    internal error response for that request only.
///  * Watchdog: a worker that blows through the deadline plus grace
///    (e.g. a stalled failpoint or a pathological input the budgets
///    missed) has its request failed with a deadline response by the
///    watchdog thread; the worker slot is abandoned -- the thread
///    detaches, finishes into the void, and discards its late result --
///    and a replacement worker keeps the pool at strength. The daemon
///    never dies with the wedged worker.
///  * Quotas: the cache evicts per tenant (ServeCache), so one noisy
///    tenant cannot evict another's warm state.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SERVE_SERVER_H
#define ARDF_SERVE_SERVER_H

#include "serve/Protocol.h"
#include "serve/ServeCache.h"
#include "telemetry/Telemetry.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace ardf {
namespace serve {

/// Server configuration (all ceilings have safe defaults; 0 disables
/// the individual ceiling where noted).
struct ServeOptions {
  /// Worker threads handling requests.
  unsigned Workers = 1;

  /// Bounded queue depth; submissions past it are shed with an
  /// overloaded response.
  unsigned QueueDepth = 64;

  /// Admission cap on one request line, bytes (0 = uncapped).
  uint64_t MaxRequestBytes = 1u << 20;

  /// Per-request wall-clock deadline, milliseconds. Doubles as the
  /// default solver deadline when a request sets none, and as the
  /// watchdog threshold (plus grace). 0 disables both.
  uint64_t RequestDeadlineMs = 2000;

  /// Extra time past the deadline before the watchdog fails a wedged
  /// worker's request (budgets check at pass boundaries, so a healthy
  /// over-deadline solve normally degrades on its own first).
  uint64_t WatchdogGraceMs = 500;

  /// Live documents per tenant (ServeCache quota).
  unsigned TenantQuota = 8;

  /// Program versions retained per document before the warm driver is
  /// rebuilt cold (bounds the rerun lifetime rule's memory).
  unsigned MaxProgramsPerDocument = 8;

  /// Server-wide solver ceilings; requests may only tighten them.
  SolverBudget Budget;
};

/// The transport-agnostic request engine.
class AnalysisServer {
public:
  /// Invoked exactly once per submitted line with the complete response
  /// line (no trailing newline). May be called from a worker thread,
  /// the watchdog thread, or inline from submit(); must be thread-safe
  /// against other requests' callbacks and must not block for long.
  using Respond = std::function<void(std::string)>;

  explicit AnalysisServer(ServeOptions Opts = ServeOptions());

  /// Drains and joins (requestShutdown + pending requests answered
  /// shutting-down).
  ~AnalysisServer();

  AnalysisServer(const AnalysisServer &) = delete;
  AnalysisServer &operator=(const AnalysisServer &) = delete;

  /// Submits one raw request line. Admission control (payload cap,
  /// queue bound, shutdown state) answers inline; admitted lines are
  /// answered from the pool.
  void submit(std::string Line, Respond R);

  /// Begins shutdown: no new admissions, queued requests are answered
  /// shutting-down, workers exit once idle. Idempotent, non-blocking.
  void requestShutdown();

  /// True once a shutdown request (method or call) was seen. Transports
  /// poll this to leave their accept loops.
  bool shutdownRequested() const;

  /// Blocks until the queue is empty and every worker is idle (tests
  /// and the stdio transport's EOF handling).
  void drain();

  const ServeOptions &options() const;

  ServeCacheStats cacheStats() const;

  /// The server's telemetry context (counters + serve.request_ns
  /// histogram); shared by all workers, safe to read concurrently.
  const telem::Telemetry &telemetry() const;

private:
  struct Core;
  std::shared_ptr<Core> C;
};

} // namespace serve
} // namespace ardf

#endif // ARDF_SERVE_SERVER_H
