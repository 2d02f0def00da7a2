#ifndef NF2_SERVER_SERVER_H_
#define NF2_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "server/protocol.h"
#include "server/session.h"
#include "util/result.h"

namespace nf2 {
namespace server {

class ReplicationHub;

struct ServerOptions {
  /// IPv4 address to bind; loopback by default (v0 has no auth).
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (read it back
  /// from Server::port() after Start()).
  uint16_t port = 0;
  /// Fixed worker pool size executing statements.
  int workers = 4;
  /// Bound on queued-but-not-executing requests. A kQuery (or kBatch)
  /// arriving with the queue full is answered kBusy without executing.
  size_t queue_capacity = 64;
  /// Capacity of the shared parsed-statement cache (session.h); 0
  /// disables caching.
  size_t statement_cache_capacity = kDefaultStatementCacheCapacity;
  /// When set, kSubscribe frames hand the connection to this hub as a
  /// WAL-shipping subscriber (replication.h); null rejects kSubscribe.
  /// Must outlive the server.
  ReplicationHub* replication = nullptr;
};

/// The nf2d TCP server: one accept thread, one reader thread per
/// connection, and a fixed pool of worker threads draining a bounded
/// request queue.
///
/// Threading model (see DESIGN.md §8):
///   - Each connection runs strict request→response lockstep: its
///     reader parses one frame, hands kQuery/kBatch payloads to the
///     worker pool, and blocks on that request's future before reading
///     the next frame. A connection therefore has at most one request
///     in flight (a kBatch counts as one request, executed start to
///     finish on one worker), which is what lets Session skip internal
///     locking.
///   - Workers execute statements through Session::Execute, which takes
///     the engine gate (shared for read-only statements, exclusive for
///     mutations) — concurrency control lives there, not here.
///   - Backpressure is explicit: queue full → kBusy, never blocking the
///     reader on the queue.
///
/// Stop() is graceful and ordered to avoid deadlock: stop accepting,
/// shut down connection reads (readers drain their in-flight request —
/// workers are still alive to complete it — then roll back their
/// session's open transaction and exit), then retire the workers, then
/// checkpoint under the gate so the on-disk state reflects every
/// acknowledged statement.
class Server {
 public:
  /// Single-engine server: owns a SessionManager over `db`.
  Server(Database* db, ServerOptions options);

  /// Serves sessions from an external provider (e.g. a ShardRouter).
  /// `provider` must outlive the server; statement_cache_capacity in
  /// `options` is the provider's concern in this form.
  Server(SessionProvider* provider, ServerOptions options);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept thread and worker pool.
  Status Start();

  /// Port actually bound (resolves options.port == 0). Valid after a
  /// successful Start().
  uint16_t port() const { return port_; }

  /// Graceful shutdown as described above. Idempotent; also run by the
  /// destructor.
  void Stop();

  /// The owned single-engine manager; nullptr when the server was built
  /// over an external SessionProvider.
  SessionManager* session_manager() { return owned_sessions_.get(); }

 private:
  /// One unit of worker-pool work: a single kQuery statement
  /// (batch == false, statements.size() == 1) or a whole kBatch
  /// (executed in order on one worker, one result per statement).
  struct Request {
    ClientSession* session = nullptr;
    bool batch = false;
    std::vector<std::string> statements;
    std::promise<std::vector<Result<std::string>>> done;
  };

  void RegisterMetrics();
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  /// Enqueues unless the queue is at capacity; false means kBusy.
  bool TryEnqueue(Request&& req);

  ServerOptions options_;
  std::unique_ptr<SessionManager> owned_sessions_;
  SessionProvider* provider_;  // owned_sessions_.get() or external.

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Request> queue_;
  bool queue_shutdown_ = false;  // Guarded by queue_mu_.

  std::mutex conns_mu_;
  std::condition_variable conns_cv_;
  std::vector<int> conn_fds_;  // Open connection fds, guarded by conns_mu_.
  int active_readers_ = 0;     // Guarded by conns_mu_.

  Counter* metric_connections_total_ = nullptr;
  Gauge* metric_connections_active_ = nullptr;
  Counter* metric_requests_total_ = nullptr;
  Counter* metric_batches_total_ = nullptr;
  Counter* metric_batch_statements_total_ = nullptr;
  Counter* metric_busy_total_ = nullptr;
  Counter* metric_errors_total_ = nullptr;
  Histogram* metric_request_ns_ = nullptr;
  Gauge* metric_queue_depth_ = nullptr;
};

}  // namespace server
}  // namespace nf2

#endif  // NF2_SERVER_SERVER_H_
