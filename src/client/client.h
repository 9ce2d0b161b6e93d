// The client library (paper §3.3): resolves the master through the
// coordination service, caches tablet locations so the master stays off the
// data path, routes operations to tablet servers, reconstructs tuples across
// column groups, and exposes MVOCC transactions.
//
// Reads go through one entry point, `Get(table, group, key, ReadOptions)`,
// covering latest/as-of/all-versions reads; transactions are handled through
// the RAII `Txn` handle returned by `BeginTxn()`. Stale-tolerant reads
// (`ReadOptions::allow_stale`) route to read replicas when the tablet has
// any, falling back to the primary through the normal retry policy when
// every replica is down, lagging past `max_staleness_us`, or torn down.

#ifndef LOGBASE_CLIENT_CLIENT_H_
#define LOGBASE_CLIENT_CLIENT_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/fault/retry_policy.h"
#include "src/master/master.h"
#include "src/qos/tenant.h"
#include "src/query/executor.h"
#include "src/sim/network_model.h"
#include "src/txn/transaction_manager.h"

#include "src/util/ordered_mutex.h"

namespace logbase::client {

/// Encodes a column->value map into one column-group value (and back);
/// PutRow/GetRow use this so a group's columns are stored together.
std::string EncodeColumns(const std::map<std::string, std::string>& columns);
Result<std::map<std::string, std::string>> DecodeColumns(const Slice& value);

/// Replication acknowledgement level for writes: kQuorum acks once a
/// majority of log replicas are durable (stragglers complete in the
/// background); kAll waits for the full replica set.
using AckMode = log::AckMode;

/// How a write commits. Default-constructed options quorum-ack with no
/// deadline.
struct WriteOptions {
  AckMode ack = AckMode::kQuorum;
  /// Virtual-time budget for the whole call, including retry backoff;
  /// 0 = no deadline. A write that cannot complete within the budget
  /// returns Status::TimedOut (it may still land later server-side — the
  /// usual ambiguity of a timed-out write).
  sim::VirtualTime deadline_us = 0;
};

/// An ordered list of row mutations submitted together through `PutBatch`.
/// The ops (puts and deletes) that land on one tablet server are shipped as
/// one server-side batch, so they share a single group-committed log
/// append whichever of the server's tablets they touch.
class WriteBatch {
 public:
  struct Op {
    bool is_delete = false;
    uint32_t column_group = 0;
    std::string key;
    std::string value;
  };

  WriteBatch& Put(uint32_t column_group, const Slice& key,
                  const Slice& value) {
    ops_.push_back(Op{false, column_group, key.ToString(), value.ToString()});
    return *this;
  }
  WriteBatch& Delete(uint32_t column_group, const Slice& key) {
    ops_.push_back(Op{true, column_group, key.ToString(), std::string()});
    return *this;
  }
  void Clear() { ops_.clear(); }

  const std::vector<Op>& ops() const { return ops_; }
  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

 private:
  std::vector<Op> ops_;  // single-threaded client-side builder
};

/// How a `Get` reads. Default-constructed options read the latest version.
struct ReadOptions {
  /// Historical read when non-zero: the newest version with write timestamp
  /// <= as_of. Zero means "latest".
  uint64_t as_of = 0;
  /// Return every version of the key, newest first. An unknown key yields an
  /// OK result with zero rows (check `found()`), not NotFound.
  bool all_versions = false;
  /// Allow serving from a read replica at a possibly-stale snapshot (the
  /// replica's applied watermark). Ignored for all-versions reads, which
  /// always go to the primary.
  bool allow_stale = false;
  /// With `allow_stale`: reject a replica whose last log sync is older than
  /// this many virtual microseconds (0 = any staleness is acceptable). The
  /// read then falls back to the primary.
  int64_t max_staleness_us = 0;
};

/// What a `Get` returns: one row per version, newest first. Latest/as-of
/// reads yield exactly one row.
struct ReadResult {
  std::vector<tablet::ReadRow> rows;
  /// Non-zero iff a replica served the read: the snapshot timestamp it was
  /// answered at (the replica's watermark clamped to `as_of`).
  uint64_t snapshot_ts = 0;

  bool found() const { return !rows.empty(); }
  /// Value/timestamp of the newest returned version. Callers must check
  /// `found()` first on all-versions reads.
  const std::string& value() const { return rows.front().value; }
  uint64_t timestamp() const { return rows.front().timestamp; }
};

/// How a `Query` executes. `read` supplies the snapshot and replica routing
/// (as_of, allow_stale, max_staleness_us — all_versions is ignored: queries
/// see one version per key); `batch_rows` is query-specific.
struct QueryOptions {
  ReadOptions read;
  /// Rows per shipped ColumnBatch.
  size_t batch_rows = 256;
};

/// What a `Query` returns: filtered/projected column batches in global key
/// order (tablet::RowsFromBatches turns raw-value batches into rows), or
/// merged aggregation partials, plus the pushdown accounting.
struct QueryResult {
  bool aggregated = false;
  std::vector<query::ColumnBatch> batches;  // row queries
  query::AggResult agg;                     // aggregation queries

  /// Totals across every per-tablet sub-query.
  uint64_t rows_scanned = 0;   // index entries visited server-side
  uint64_t rows_returned = 0;  // rows surviving the predicate
  uint64_t bytes_shipped = 0;  // wire bytes shipped client-ward
  uint64_t tablets_queried = 0;
  uint64_t tablets_from_replica = 0;
};

class LogBaseClient;

/// An RAII transaction handle (§3.7): buffered writes, snapshot reads,
/// optimistic validation at `Commit()`. Destroying a handle that was neither
/// committed nor aborted aborts the transaction, so early returns can never
/// leak an active transaction.
class Txn {
 public:
  Txn() = default;
  Txn(Txn&& other) noexcept;
  Txn& operator=(Txn&& other) noexcept;
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;
  ~Txn();

  Result<std::string> Read(const std::string& table, uint32_t column_group,
                           const Slice& key);
  Status Write(const std::string& table, uint32_t column_group,
               const Slice& key, const Slice& value);
  Status Delete(const std::string& table, uint32_t column_group,
                const Slice& key);
  Status Commit();
  /// Commit with an explicit replication ack level for the commit's log
  /// appends (`options.deadline_us` is ignored: a transaction either
  /// commits or aborts, never "timed out after committing").
  Status Commit(const WriteOptions& options);
  void Abort();

  /// True until Commit/Abort (or a moved-from/default-constructed handle).
  bool active() const;
  uint64_t id() const;
  /// Escape hatch for code layered on the raw protocol.
  txn::Transaction* raw() { return txn_.get(); }

 private:
  friend class LogBaseClient;
  Txn(LogBaseClient* client, std::unique_ptr<txn::Transaction> txn)
      : client_(client), txn_(std::move(txn)) {}

  // A Txn handle is confined to one application thread by contract.
  LogBaseClient* client_ = nullptr;
  std::unique_ptr<txn::Transaction> txn_;
};

class LogBaseClient {
 public:
  /// `node` is the machine this client runs on (for network charging);
  /// `network` may be null. `master_resolver` returns the currently active
  /// master (nullptr when none is reachable) so clients follow failovers.
  LogBaseClient(std::function<master::Master*()> master_resolver,
                std::function<tablet::TabletServer*(int)> server_resolver,
                coord::CoordinationService* coord, int node,
                sim::NetworkModel* network = nullptr);
  /// Single fixed master (no failover).
  LogBaseClient(master::Master* master,
                std::function<tablet::TabletServer*(int)> server_resolver,
                coord::CoordinationService* coord, int node,
                sim::NetworkModel* network = nullptr);

  /// Retry/backoff behavior for Put/Get/Delete/Scan when a tablet server is
  /// unreachable or down (default: 5 attempts, exponential backoff with
  /// jitter over virtual time).
  void set_retry_options(const fault::RetryOptions& options) {
    retry_ = fault::RetryPolicy(options);
  }
  const fault::RetryOptions& retry_options() const {
    return retry_.options();
  }

  /// Who this client's traffic belongs to (multi-tenant QoS, src/qos/).
  /// The identity rides every operation thread-ambiently — servers bill the
  /// tenant's token buckets and attribute load to it. Defaults to
  /// "default"/kNormal; set once at setup (not thread-safe against in-
  /// flight operations).
  void set_tenant(const qos::TenantIdentity& identity) { tenant_ = identity; }
  const qos::TenantIdentity& tenant() const { return tenant_; }

  // -- Writes (auto-commit, §3.6) ------------------------------------------

  /// The unified write entry point: applies the batch's mutations in
  /// insertion order per server, coalescing each server's ops into one
  /// group-committed log append. `options.ack` picks the replication
  /// acknowledgement level, `options.deadline_us` bounds the whole call.
  Status PutBatch(const std::string& table, const WriteBatch& batch,
                  const WriteOptions& options);
  Status PutBatch(const std::string& table, const WriteBatch& batch) {
    return PutBatch(table, batch, WriteOptions{});
  }

  /// Single-record write: a one-row batch through the same path.
  Status Put(const std::string& table, uint32_t column_group,
             const Slice& key, const Slice& value,
             const WriteOptions& options);

  Status Delete(const std::string& table, uint32_t column_group,
                const Slice& key, const WriteOptions& options);

  // -- Reads ----------------------------------------------------------------

  /// The unified read: latest by default, historical via `options.as_of`,
  /// full version history via `options.all_versions`.
  Result<ReadResult> Get(const std::string& table, uint32_t column_group,
                         const Slice& key, const ReadOptions& options);
  /// Range scan across tablets. Canonically implemented as a match-all
  /// `Query` with an empty projection: the scatter/gather engine fans out to
  /// every overlapping tablet, each tablet's slice prefers a replica under
  /// `options.allow_stale` (per-tablet primary fallback otherwise), and the
  /// stored values ship back verbatim in raw-value batches. There is ONE
  /// scan path — both overloads, and Query itself, share routing, retry and
  /// metrics, so the spellings cannot diverge.
  Result<std::vector<tablet::ReadRow>> Scan(const std::string& table,
                                            uint32_t column_group,
                                            const Slice& start_key,
                                            const Slice& end_key,
                                            const ReadOptions& options);
  /// Convenience overload: default ReadOptions, same canonical path.
  Result<std::vector<tablet::ReadRow>> Scan(const std::string& table,
                                            uint32_t column_group,
                                            const Slice& start_key,
                                            const Slice& end_key) {
    return Scan(table, column_group, start_key, end_key, ReadOptions{});
  }

  /// Pushed-down query (src/query/): fans the plan out across every tablet
  /// of the cached table layout that overlaps the plan's key range — at
  /// most four sub-queries in flight, per-tablet retry, replica-preferring
  /// routing under `options.read.allow_stale` — and gathers
  /// filtered/projected batches (global key order) or merges aggregation
  /// partials (sum-of-sums, min-of-mins, group-by map merge). Retried as a
  /// unit on per-tablet exhaustion; a stale route met on the way has
  /// dropped the cached layout, so the retry re-plans against the master's.
  Result<QueryResult> Query(const std::string& table, uint32_t column_group,
                            const query::QueryPlan& plan,
                            const QueryOptions& options = {});

  // -- Row operations across column groups --------------------------------

  /// Writes each column into its group (per the table's vertical
  /// partitioning), all groups in one WriteBatch.
  Status PutRow(const std::string& table, const Slice& key,
                const std::map<std::string, std::string>& columns,
                const WriteOptions& options = WriteOptions{});
  /// Tuple reconstruction (§3.2): collects the row's data from every column
  /// group by primary key.
  Result<std::map<std::string, std::string>> GetRow(const std::string& table,
                                                    const Slice& key);

  // -- Transactions (§3.7) -------------------------------------------------

  /// Starts a transaction owned by the returned RAII handle.
  Txn BeginTxn();

  /// Routes stale-tolerant reads to read replicas: maps a replica id to its
  /// live ReplicaServer (nullptr when down). Unset, `allow_stale` reads go
  /// to the primary like any other read.
  void set_replica_resolver(
      std::function<replica::ReplicaServer*(int)> resolver) {
    replica_resolver_ = std::move(resolver);
  }

  /// Drops every cached table layout (picked up again from the master
  /// lazily).
  void InvalidateCache();

 private:
  friend class Txn;

  /// One tablet of a cached table layout: the master's location (key
  /// range, primary server, read replicas) and the tablet's uid.
  struct Route : master::TabletLocation {
    std::string tablet_uid;
  };
  /// A table column group's tablets in key order, as the master's
  /// LocateAll returned them.
  using Layout = std::vector<Route>;

  /// The cached layout of (table, column group); a miss loads the whole
  /// layout from the master in one call.
  Result<std::shared_ptr<const Layout>> LoadLayout(const std::string& table,
                                                   uint32_t column_group);
  /// A route that shares ownership of its layout, so it stays valid when
  /// the cache drops the layout.
  using RouteRef = std::shared_ptr<const Route>;
  /// The cached route of the tablet holding `key`.
  Result<RouteRef> Resolve(const std::string& table, uint32_t column_group,
                           const Slice& key);
  /// Offers one request to `route`'s read replicas, rotated by
  /// (`rotation_key`, client node) so one tablet's load spreads across
  /// them. Skips a replica that is down or unreachable, and one whose
  /// attachment was torn down (that also drops the cached layout). Returns
  /// the first answer a replica served: a result, or a NotFound that is
  /// authoritative at the replica's prefix-consistent snapshot. Returns
  /// nullopt when every replica was skipped or declined; the caller then
  /// goes to the primary.
  /// `call(replica)` sends the request and returns Result<T>; a served
  /// answer is charged as one RPC (sim::ChargeRpc) of `request_bytes`
  /// payload out and the answer's payload back.
  template <typename T, typename Call>
  std::optional<Result<T>> ReplicaFirst(const Route& route,
                                        const Slice& rotation_key,
                                        uint64_t request_bytes,
                                        const Call& call);
  /// One tablet's slice of a Query: ReplicaFirst, then the primary, with a
  /// per-tablet retry budget. The server takes `plan` as a value; the
  /// request is charged its EncodedSize(). Sets `*from_replica` when a
  /// replica served the slice.
  Result<query::TabletResult> QueryTablet(const Route& route,
                                          const query::QueryPlan& plan,
                                          const query::ExecOptions& exec,
                                          const QueryOptions& options,
                                          bool* from_replica);
  /// The transaction manager's resolver: the cached route of `uid`, then
  /// ServerFor. Null when the route is not cached or ServerFor fails.
  tablet::TabletServer* ServerByUid(const std::string& uid);
  /// The tablet server a route names as primary: Unavailable when it is
  /// unreachable or down (a down server also drops the cached layouts).
  Result<tablet::TabletServer*> ServerFor(int server_id);
  /// The active master, or Unavailable when none is elected/reachable.
  Result<master::Master*> ActiveMaster() const;
  /// Maps a stale-route answer (tablet::IsStaleRoute) to a retryable
  /// Unavailable after dropping the cached layouts.
  Status NormalizeServerStatus(const Status& s);
  /// False when a fault policy says this client can't reach `server_id`.
  bool ServerReachable(int server_id) const;

  // Transaction internals shared with the Txn handle.
  Result<std::string> TxnReadImpl(txn::Transaction* txn,
                                  const std::string& table,
                                  uint32_t column_group, const Slice& key);
  Status TxnWriteImpl(txn::Transaction* txn, const std::string& table,
                      uint32_t column_group, const Slice& key,
                      const Slice& value);
  Status TxnDeleteImpl(txn::Transaction* txn, const std::string& table,
                       uint32_t column_group, const Slice& key);
  Status CommitImpl(txn::Transaction* txn, log::AckMode ack);
  void AbortImpl(txn::Transaction* txn);
  /// One attempt of PutBatch against the current routes.
  Status PutBatchAttempt(const std::string& table, const WriteBatch& batch,
                         log::AckMode ack);

  const std::function<master::Master*()> master_resolver_;
  const std::function<tablet::TabletServer*(int)> server_resolver_;
  // Wired once by set_replica_resolver during cluster setup, before any
  // read traffic; never reassigned afterwards.
  std::function<replica::ReplicaServer*(int)> replica_resolver_;
  const int node_;
  sim::NetworkModel* const network_;
  // Set once at setup (see set_tenant); read thread-ambiently via
  // qos::TenantScope installed at each public entry point.
  qos::TenantIdentity tenant_{qos::DefaultTenantName(),
                              qos::Priority::kNormal};
  // Fixed after construction (per-call policies are copies of options()).
  fault::RetryPolicy retry_;
  // Set in the constructor; TransactionManager is internally synchronized.
  std::unique_ptr<txn::TransactionManager> txn_;

  OrderedMutex cache_mu_{lockrank::kClientCache, "client.cache"};
  // By (table, column group); only non-empty layouts are cached.
  std::map<std::pair<std::string, uint32_t>, std::shared_ptr<const Layout>>
      layouts_ GUARDED_BY(cache_mu_);
};

}  // namespace logbase::client

#endif  // LOGBASE_CLIENT_CLIENT_H_
