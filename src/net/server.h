// Hardened socket front end for the serving stack.
//
// NetServer multiplexes N client connections over one poll(2) event loop
// and executes their requests on a bounded worker pool, speaking exactly
// the stdin serve protocol (service/wire.h): NDJSON request lines in,
// framed responses out, per-connection responses in request order whatever
// order the workers finish in.
//
// Robustness model — the loop thread never blocks and never executes a
// query; everything that can be slow, large, or hostile is bounded:
//
//   admission    A bounded job queue. When it is full, new requests are
//                rejected immediately with {"status":"unavailable",
//                "error":"...overloaded...","retry_after_ms":N} instead of
//                queueing without bound (load shedding). The hint N is
//                load-proportional: queue depth × an EWMA of observed
//                per-request service time (floored at retry_after_ms), so
//                a deeper queue tells clients to back off longer. "cmd"
//                requests (stats polls) bypass the queue — they stay
//                answerable under full load, which is when you want them.
//   validation   A request carrying a malformed "deadline_ms" (a string,
//                zero, negative) is rejected up front with
//                {"status":"bad_request"} instead of silently running
//                without a budget.
//   batching     With batch_window_ms > 0, a worker dequeuing a request
//                gathers queued requests over the same document list
//                (net/scheduler.h) and runs them as one shared
//                multi-query pass: one tokenization per document, plans
//                deduplicated through the query cache, byte-identical
//                responses. Requests whose remaining deadline budget is
//                below the window bypass batching.
//   deadlines    "deadline_ms" is armed at ADMISSION on the job's
//                CancelToken, so time spent queued counts against the
//                budget; engines abort mid-stream via cooperative checks.
//   disconnect   A client that goes away (reset, error) has its in-flight
//                runs cancelled — the server does not keep computing
//                responses nobody will read. A half-close (shutdown(WR))
//                is the opposite contract: pending responses are computed,
//                delivered, and then the server closes.
//   slow client  Responses buffer up to max_write_buffer_bytes; reading is
//                paused (backpressure) at half that, and a client that
//                still will not drain is disconnected, not buffered into
//                server memory.
//   input size   Request lines are discarded past limits.max_line_bytes
//                without being buffered; inline "xml" bytes are capped by
//                the wire layer.
//   shutdown     RequestShutdown() (async-signal-safe, callable from a
//                SIGTERM handler) stops accepting, rejects new work with
//                "shutting_down", drains in-flight requests up to
//                drain_ms, then cancels stragglers and returns from Run().
//
// Fault injection: allow_fault_injection exposes the request-level "fault"
// field (service/fault.h); fault_abort_conn_after_responses is the
// socket-level hook — the server drops the connection abruptly in place of
// that many-th response, for client-robustness stress. Both are test harness
// surfaces, off by default.
#ifndef XQMFT_NET_SERVER_H_
#define XQMFT_NET_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "service/serve.h"
#include "service/wire.h"
#include "util/status.h"

namespace xqmft {

/// The request-execution knobs (cache, pipeline, default_threads, limits,
/// allow_fault_injection) are the stdin ServeLoop's, inherited.
struct NetServerOptions : ServeOptions {
  /// TCP listener: -1 = none, 0 = ephemeral (read the bound port back with
  /// port()). Binds loopback by default; serving beyond localhost is a
  /// deployment decision, not a default.
  int tcp_port = -1;
  std::string tcp_address = "127.0.0.1";
  /// Unix-domain listener path; empty = none. An existing socket file at
  /// the path is replaced.
  std::string unix_path;

  /// Query worker threads (>= 1).
  std::size_t workers = 2;
  /// Admitted-but-unstarted requests held before load shedding kicks in.
  std::size_t queue_limit = 64;
  /// Admitted requests per connection before its reads pause
  /// (backpressure; nothing is rejected, the client just stops being read).
  std::size_t max_inflight_per_conn = 32;
  /// Buffered response bytes per connection: reads pause at half, the
  /// connection is dropped (slow_client_closed) at the full limit.
  std::size_t max_write_buffer_bytes = 4u << 20;
  /// Floor for the retry_after_ms hint echoed in overload rejections (the
  /// hint itself scales with queue depth × observed service time once any
  /// request has completed).
  std::uint64_t retry_after_ms = 50;
  /// Most queued same-document requests a worker coalesces into one shared
  /// multi-query pass (including the one it dequeued).
  std::size_t batch_max = 8;
  /// How long a worker waits for same-document stragglers before running a
  /// coalesced pass. 0 (the default) disables coalescing: every request
  /// runs alone, exactly the pre-batching behavior. Requests whose
  /// remaining deadline budget is below the window are never coalesced.
  std::uint64_t batch_window_ms = 0;
  /// Graceful-shutdown drain budget; in-flight runs still going when it
  /// expires are cancelled.
  std::uint64_t drain_ms = 5000;

  /// Socket-level fault hook: abruptly close each connection when its Nth
  /// response is ready (0 = never). The N-1 responses before it are
  /// flushed first (best effort); the Nth is dropped with the connection.
  /// Test harness only.
  std::uint32_t fault_abort_conn_after_responses = 0;
};

/// The serving counters as X(name), in {"cmd":"server_stats"} order. This
/// one list generates NetServerCounters, the server's atomic storage, its
/// snapshot, and the server_stats JSON: a new counter is one line here plus
/// its increment. Keep admitted ahead of the four outcomes (see below).
/// parses_saved sums (members - 1) × documents over shared passes; the
/// *_runs trio splits successful runs of every shape by execution core.
#define XQMFT_NET_SERVER_COUNTERS(X)                                  \
  X(connections)            /* accepted */                            \
  X(admitted)               /* requests admitted to the queue */      \
  X(completed_ok)           /* admitted requests that succeeded */    \
  X(failed)                 /* admitted requests that errored */      \
  X(cancelled_runs)         /* runs aborted by cancellation */        \
  X(deadline_exceeded_runs) /* runs aborted by deadline */            \
  X(rejected_overload)      /* shed: queue full */                    \
  X(rejected_shutdown)      /* shed: draining */                      \
  X(rejected_line_length)   /* overlong request lines */              \
  X(rejected_bad_request)   /* structurally invalid fields */         \
  X(disconnects_inflight)   /* aborts with runs in flight */          \
  X(slow_client_closed)     /* write-buffer limit closes */           \
  X(inline_cmds)            /* cmd requests (no queue) */             \
  X(coalesced_runs)         /* shared passes with >= 2 members */     \
  X(coalesced_requests)     /* requests served by those passes */     \
  X(parses_saved)           /* tokenizations avoided by coalescing */ \
  X(ops_runs)               /* fully lowered opcode runs */           \
  X(hybrid_runs)            /* opcode runs with bridge sub-runs */    \
  X(table_runs)             /* table-machine runs */

/// \brief Monotonic serving counters (atomically readable while serving).
///
/// Also exposed over the wire as {"cmd":"server_stats"} — and because cmd
/// requests bypass admission, the counters stay observable at full load.
/// Snapshots load in reverse list order, so every outcome is read before
/// admitted and any single snapshot satisfies
/// admitted >= completed_ok + failed + cancelled_runs + deadline_exceeded_runs.
struct NetServerCounters {
#define XQMFT_DECLARE_COUNTER(name) std::uint64_t name = 0;
  XQMFT_NET_SERVER_COUNTERS(XQMFT_DECLARE_COUNTER)
#undef XQMFT_DECLARE_COUNTER
};

/// \brief The socket server. Construct, Start() (listeners + workers, after
/// which port() is bound), then Run() on a serving thread until
/// RequestShutdown().
class NetServer {
 public:
  explicit NetServer(NetServerOptions options);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Creates the listeners and the worker pool. Fails on unusable
  /// addresses; no traffic is served until Run().
  Status Start();

  /// The event loop: blocks until a completed shutdown. Call Start first.
  Status Run();

  /// Initiates graceful shutdown; async-signal-safe (an atomic store and a
  /// self-pipe write), so SIGTERM handlers may call it directly. Run()
  /// returns once drained (or drain_ms expires).
  void RequestShutdown();

  /// Bound TCP port (after Start); -1 without a TCP listener.
  int port() const;
  const std::string& unix_path() const;

  NetServerCounters counters() const;

  struct Impl;  // private to server.cc

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace xqmft

#endif  // XQMFT_NET_SERVER_H_
