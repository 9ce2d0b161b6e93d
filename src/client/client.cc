#include "src/client/client.h"

#include <algorithm>
#include <functional>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/column_batch.h"
#include "src/sim/fanout.h"
#include "src/sim/sim_context.h"
#include "src/tablet/stale_route.h"

namespace logbase::client {

// The column-group value codec lives in src/query (the pushdown executor
// gathers evaluation cells through it); these wrappers keep the historical
// client spelling while guaranteeing both layers speak one format.
std::string EncodeColumns(const std::map<std::string, std::string>& columns) {
  return query::EncodeColumnMap(columns);
}

Result<std::map<std::string, std::string>> DecodeColumns(const Slice& value) {
  std::map<std::string, std::string> columns;
  if (!query::DecodeColumnMap(value, &columns)) {
    return Status::Corruption("bad column encoding");
  }
  return columns;
}

// ---------------------------------------------------------------------------
// Txn handle.
// ---------------------------------------------------------------------------

Txn::Txn(Txn&& other) noexcept
    : client_(other.client_), txn_(std::move(other.txn_)) {
  other.client_ = nullptr;
}

Txn& Txn::operator=(Txn&& other) noexcept {
  if (this != &other) {
    if (active()) client_->AbortImpl(txn_.get());
    client_ = other.client_;
    txn_ = std::move(other.txn_);
    other.client_ = nullptr;
  }
  return *this;
}

Txn::~Txn() {
  if (active()) client_->AbortImpl(txn_.get());
}

bool Txn::active() const {
  return client_ != nullptr && txn_ != nullptr &&
         txn_->state() == txn::Transaction::State::kActive;
}

uint64_t Txn::id() const { return txn_ != nullptr ? txn_->id() : 0; }

Result<std::string> Txn::Read(const std::string& table, uint32_t column_group,
                              const Slice& key) {
  if (!active()) return Status::InvalidArgument("transaction not active");
  return client_->TxnReadImpl(txn_.get(), table, column_group, key);
}

Status Txn::Write(const std::string& table, uint32_t column_group,
                  const Slice& key, const Slice& value) {
  if (!active()) return Status::InvalidArgument("transaction not active");
  return client_->TxnWriteImpl(txn_.get(), table, column_group, key, value);
}

Status Txn::Delete(const std::string& table, uint32_t column_group,
                   const Slice& key) {
  if (!active()) return Status::InvalidArgument("transaction not active");
  return client_->TxnDeleteImpl(txn_.get(), table, column_group, key);
}

Status Txn::Commit() { return Commit(WriteOptions{}); }

Status Txn::Commit(const WriteOptions& options) {
  if (!active()) return Status::InvalidArgument("transaction not active");
  return client_->CommitImpl(txn_.get(), options.ack);
}

void Txn::Abort() {
  if (active()) client_->AbortImpl(txn_.get());
}

// ---------------------------------------------------------------------------
// Client plumbing.
// ---------------------------------------------------------------------------

LogBaseClient::LogBaseClient(
    std::function<master::Master*()> master_resolver,
    std::function<tablet::TabletServer*(int)> server_resolver,
    coord::CoordinationService* coord, int node, sim::NetworkModel* network)
    : master_resolver_(std::move(master_resolver)),
      server_resolver_(std::move(server_resolver)),
      node_(node),
      network_(network),
      retry_(fault::RetryOptions{.seed = static_cast<uint64_t>(node)}) {
  txn_ = std::make_unique<txn::TransactionManager>(
      coord, node,
      [this](const std::string& uid) { return ServerByUid(uid); });
}

LogBaseClient::LogBaseClient(
    master::Master* master,
    std::function<tablet::TabletServer*(int)> server_resolver,
    coord::CoordinationService* coord, int node, sim::NetworkModel* network)
    : LogBaseClient([master]() { return master; }, std::move(server_resolver),
                    coord, node, network) {}

Result<master::Master*> LogBaseClient::ActiveMaster() const {
  master::Master* master = master_resolver_();
  if (master == nullptr) return Status::Unavailable("no active master");
  return master;
}

bool LogBaseClient::ServerReachable(int server_id) const {
  return network_ == nullptr || network_->Reachable(node_, server_id);
}

Result<std::shared_ptr<const LogBaseClient::Layout>> LogBaseClient::LoadLayout(
    const std::string& table, uint32_t column_group) {
  {
    MutexLock l(cache_mu_);
    auto it = layouts_.find({table, column_group});
    if (it != layouts_.end()) return it->second;
  }
  // Miss: one master call for the whole layout (§3.3), so the master stays
  // off the data path until a stale route drops the cache.
  static obs::Counter* misses =
      obs::MetricsRegistry::Global().counter("client.route.cache_misses");
  misses->Add();
  auto master = ActiveMaster();
  if (!master.ok()) return master.status();
  auto locations = (*master)->LocateAll(table, column_group);
  if (!locations.ok()) return locations.status();
  auto layout = std::make_shared<Layout>();
  layout->reserve(locations->size());
  for (master::TabletLocation& location : *locations) {
    std::string uid = location.descriptor.uid();
    layout->push_back(Route{std::move(location), std::move(uid)});
  }
  // An empty layout (a column group not created yet) is not cached.
  if (!layout->empty()) {
    MutexLock l(cache_mu_);
    layouts_[{table, column_group}] = layout;
  }
  return std::shared_ptr<const Layout>(std::move(layout));
}

Result<LogBaseClient::RouteRef> LogBaseClient::Resolve(
    const std::string& table, uint32_t column_group, const Slice& key) {
  obs::Span span("client.route");
  auto layout = LoadLayout(table, column_group);
  if (!layout.ok()) return layout.status();
  for (const Route& route : **layout) {
    if (route.descriptor.Contains(key)) return RouteRef(*layout, &route);
  }
  return Status::NotFound("tablet not assigned: " + table + "/cg" +
                          std::to_string(column_group) + " for key " +
                          key.ToString());
}

tablet::TabletServer* LogBaseClient::ServerByUid(const std::string& uid) {
  int server_id = -1;
  {
    MutexLock l(cache_mu_);
    for (const auto& [group, layout] : layouts_) {
      for (const Route& route : *layout) {
        if (route.tablet_uid == uid) server_id = route.server_id;
      }
    }
  }
  if (server_id < 0) return nullptr;
  auto server = ServerFor(server_id);
  return server.ok() ? *server : nullptr;
}

Result<tablet::TabletServer*> LogBaseClient::ServerFor(int server_id) {
  if (!ServerReachable(server_id)) {
    return Status::Unavailable("tablet server unreachable (partition)");
  }
  tablet::TabletServer* server = server_resolver_(server_id);
  if (server == nullptr || !server->running()) {
    // Stale cache (e.g. server died, tablets reassigned): refresh once.
    InvalidateCache();
    return Status::Unavailable("tablet server down; cache invalidated");
  }
  return server;
}

void LogBaseClient::InvalidateCache() {
  MutexLock l(cache_mu_);
  layouts_.clear();
}

Status LogBaseClient::NormalizeServerStatus(const Status& s) {
  // The route is stale: the tablet moved (adopted after a crash, split, or
  // migrated), a restarted server fenced it off, or it is sealed
  // mid-migration. Re-resolve through the master and let the retry policy's
  // backoff cover any handover window.
  if (!tablet::IsStaleRoute(s)) return s;
  InvalidateCache();
  return Status::Unavailable("stale tablet route; cache invalidated");
}

// ---------------------------------------------------------------------------
// Writes.
// ---------------------------------------------------------------------------

Status LogBaseClient::PutBatchAttempt(const std::string& table,
                                      const WriteBatch& batch,
                                      log::AckMode ack) {
  // One server-side mutation batch per server, puts and deletes mixed: a
  // server's tablets share one log (paper §3), so the batch costs each
  // server it touches one append. Servers go out in the order the batch
  // first names them, each with its own ops in insertion order.
  struct ServerBatch {
    int server_id;
    std::vector<tablet::WriteOp> ops;
    uint64_t bytes = 0;
  };
  std::vector<ServerBatch> batches;
  for (const WriteBatch::Op& op : batch.ops()) {
    auto route = Resolve(table, op.column_group, Slice(op.key));
    if (!route.ok()) return route.status();
    const int server_id = (*route)->server_id;
    auto it = std::find_if(
        batches.begin(), batches.end(),
        [&](const ServerBatch& b) { return b.server_id == server_id; });
    if (it == batches.end()) {
      it = batches.insert(batches.end(), ServerBatch{server_id, {}});
    }
    it->bytes += op.key.size() + op.value.size();
    it->ops.push_back(tablet::WriteOp{(*route)->tablet_uid, op.key, op.value,
                                      op.is_delete});
  }
  for (ServerBatch& b : batches) {
    auto server = ServerFor(b.server_id);
    if (!server.ok()) return server.status();
    sim::ChargeRpc(network_, node_, b.server_id, b.bytes, 0);
    auto submitted = (*server)->Submit(std::move(b.ops), ack);
    Status s = submitted.status();
    if (s.ok()) s = (*server)->Wait(&*submitted);
    if (s.ok()) s = (*server)->Publish(*submitted);
    LOGBASE_RETURN_NOT_OK(NormalizeServerStatus(s));
  }
  return Status::OK();
}

Status LogBaseClient::PutBatch(const std::string& table,
                               const WriteBatch& batch,
                               const WriteOptions& options) {
  obs::Span span("client.put_batch");
  qos::TenantScope tenant(&tenant_);
  if (batch.empty()) return Status::OK();
  sim::SimContext* ctx = sim::SimContext::Current();
  const sim::VirtualTime start = ctx != nullptr ? ctx->now() : 0;

  // The deadline caps the retry policy's cumulative backoff budget; the
  // attempt itself also checks it so a slow server (not just backoff)
  // trips the budget. Retried writes re-apply idempotently (timestamped
  // upserts), so partial application of an earlier attempt is harmless.
  fault::RetryOptions retry_options = retry_.options();
  if (options.deadline_us > 0) {
    retry_options.deadline_us =
        retry_options.deadline_us == 0
            ? options.deadline_us
            : std::min(retry_options.deadline_us, options.deadline_us);
  }
  fault::RetryPolicy policy(retry_options);
  Status s = policy.Run("client.put_batch", [&]() -> Status {
    if (ctx != nullptr && options.deadline_us > 0 &&
        ctx->now() - start >= options.deadline_us) {
      return Status::TimedOut("write deadline exceeded");
    }
    return PutBatchAttempt(table, batch, options.ack);
  });
  if (!s.ok() && ctx != nullptr && options.deadline_us > 0 &&
      ctx->now() - start >= options.deadline_us && !s.IsTimedOut()) {
    return Status::TimedOut("write deadline exceeded: " + s.ToString());
  }
  return s;
}

Status LogBaseClient::Put(const std::string& table, uint32_t column_group,
                          const Slice& key, const Slice& value,
                          const WriteOptions& options) {
  obs::Span span("client.put");
  WriteBatch batch;
  batch.Put(column_group, key, value);
  return PutBatch(table, batch, options);
}

Status LogBaseClient::Delete(const std::string& table, uint32_t column_group,
                             const Slice& key, const WriteOptions& options) {
  obs::Span span("client.delete");
  WriteBatch batch;
  batch.Delete(column_group, key);
  return PutBatch(table, batch, options);
}

namespace {

/// Per-tablet sub-queries in flight at once: the scatter/gather fan-out
/// bound. In virtual time up to this many tablets overlap; the next
/// sub-query starts when the earliest running one finishes.
constexpr size_t kQueryFanout = 4;

/// The server-side snapshot of a read: ReadOptions spells "latest" as 0,
/// servers as index::kLatest. The only place that translates the two.
uint64_t SnapshotOf(const ReadOptions& options) {
  return options.as_of == 0 ? index::kLatest : options.as_of;
}

/// Response payload bytes a served read ships back.
uint64_t PayloadBytes(const tablet::ReadValue& read) {
  return read.value.size();
}
uint64_t PayloadBytes(const query::TabletResult& part) {
  return part.stats.bytes_shipped;
}

/// Where a (key or tablet uid, client node) pair starts its walk over a
/// tablet's replicas: deterministic, so one tablet's load spreads without
/// coordination or randomness. The hash needs real avalanche: `start %
/// replicas` keeps only the low bits, and a plain polynomial hash of short
/// keys leaves those correlated with the key's last digits (all reads pile
/// onto one replica).
size_t ReplicaRotation(const Slice& key, int node) {
  uint64_t h = static_cast<uint64_t>(node) ^ 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < key.size(); i++) {
    h = (h ^ static_cast<unsigned char>(key.data()[i])) * 0x100000001B3ull;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return static_cast<size_t>(h);
}

}  // namespace

template <typename T, typename Call>
std::optional<Result<T>> LogBaseClient::ReplicaFirst(const Route& route,
                                                     const Slice& rotation_key,
                                                     uint64_t request_bytes,
                                                     const Call& call) {
  if (!replica_resolver_ || route.replicas.empty()) return std::nullopt;
  static obs::Counter* redirects =
      obs::MetricsRegistry::Global().counter("client.replica.redirects");
  static obs::Counter* fallbacks =
      obs::MetricsRegistry::Global().counter("client.replica.fallbacks");
  const size_t n = route.replicas.size();
  const size_t start = ReplicaRotation(rotation_key, node_);
  for (size_t i = 0; i < n; i++) {
    replica::ReplicaServer* rep =
        replica_resolver_(route.replicas[(start + i) % n]);
    if (rep == nullptr || !rep->running() || !ServerReachable(rep->node())) {
      continue;
    }
    Result<T> answer = call(rep);
    if (tablet::IsStaleRoute(answer.status())) {
      // The attachment was torn down under us (the tablet migrated or
      // split): drop the layout like a stale primary route, try the next.
      InvalidateCache();
      continue;
    }
    if (answer.ok() || answer.status().IsNotFound()) {
      sim::ChargeRpc(network_, node_, rep->node(), request_bytes,
                     answer.ok() ? PayloadBytes(*answer) : 0);
      redirects->Add();
      return answer;
    }
    // Unavailable (staleness exceeded, re-seeding, crashed mid-flight):
    // try the next replica, then the primary.
  }
  fallbacks->Add();
  return std::nullopt;
}

Result<ReadResult> LogBaseClient::Get(const std::string& table,
                                      uint32_t column_group, const Slice& key,
                                      const ReadOptions& options) {
  obs::Span span("client.get");
  qos::TenantScope tenant(&tenant_);
  return retry_.Run<ReadResult>("client.get", [&]() -> Result<ReadResult> {
    auto resolved = Resolve(table, column_group, key);
    if (!resolved.ok()) return resolved.status();
    const Route& route = **resolved;

    ReadResult result;
    if (options.all_versions) {
      auto server = ServerFor(route.server_id);
      if (!server.ok()) return server.status();
      auto rows = (*server)->GetVersions(route.tablet_uid, key);
      uint64_t bytes = 0;
      if (rows.ok()) {
        for (const auto& row : *rows) {
          bytes += row.key.size() + row.value.size();
        }
      }
      // The server answered, with rows or an error: the round trip is paid.
      sim::ChargeRpc(network_, node_, route.server_id, key.size(), bytes);
      if (!rows.ok()) return NormalizeServerStatus(rows.status());
      result.rows = std::move(*rows);
      return result;
    }

    std::optional<Result<tablet::ReadValue>> read;
    if (options.allow_stale) {
      uint64_t snapshot_ts = 0;
      read = ReplicaFirst<tablet::ReadValue>(
          route, key, key.size(), [&](replica::ReplicaServer* rep) {
            return rep->Get(route.tablet_uid, key, SnapshotOf(options),
                            options.max_staleness_us, &snapshot_ts);
          });
      if (read && read->ok()) result.snapshot_ts = snapshot_ts;
    }
    if (!read) {
      auto server = ServerFor(route.server_id);
      if (!server.ok()) return server.status();
      read = (*server)->Get(route.tablet_uid, key, SnapshotOf(options));
      sim::ChargeRpc(network_, node_, route.server_id, key.size(),
                     read->ok() ? (*read)->value.size() : 0);
      if (!read->ok()) return NormalizeServerStatus(read->status());
    }
    if (!read->ok()) return read->status();
    result.rows.push_back(tablet::ReadRow{key.ToString(), (*read)->timestamp,
                                          std::move((*read)->value)});
    return result;
  });
}

Result<std::vector<tablet::ReadRow>> LogBaseClient::Scan(
    const std::string& table, uint32_t column_group, const Slice& start_key,
    const Slice& end_key, const ReadOptions& options) {
  obs::Span span("client.scan");
  // Canonical path: a match-all plan with an empty projection ships the
  // stored values verbatim in raw-value batches, so this is byte-identical
  // to the historical row-shipping scan while sharing Query's routing,
  // fan-out, retry and accounting.
  query::QueryPlan plan;
  plan.start_key = start_key.ToString();
  plan.end_key = end_key.ToString();
  QueryOptions query_options;
  query_options.read = options;
  auto result = Query(table, column_group, plan, query_options);
  if (!result.ok()) return result.status();
  return tablet::RowsFromBatches(result->batches);
}

Result<query::TabletResult> LogBaseClient::QueryTablet(
    const Route& route, const query::QueryPlan& plan,
    const query::ExecOptions& exec, const QueryOptions& options,
    bool* from_replica) {
  // Transient per-tablet failures (server restarting, replica mid-reseed)
  // retry here without restarting the whole scatter; when the budget runs
  // out the failure bubbles up and the outer whole-query retry re-plans
  // against the then-current layout (stale routes have already invalidated
  // the cache through NormalizeServerStatus or ReplicaFirst).
  fault::RetryOptions per_tablet = retry_.options();
  per_tablet.max_attempts = std::min(per_tablet.max_attempts, 3);
  fault::RetryPolicy policy(per_tablet);
  const uint64_t plan_bytes = plan.EncodedSize();
  return policy.Run<query::TabletResult>(
      "client.query_tablet", [&]() -> Result<query::TabletResult> {
        if (options.read.allow_stale) {
          auto served = ReplicaFirst<query::TabletResult>(
              route, route.tablet_uid, plan_bytes,
              [&](replica::ReplicaServer* rep) {
                return rep->ExecuteScan(route.tablet_uid, plan,
                                        options.read.max_staleness_us, exec);
              });
          if (served) {
            *from_replica = served->ok();
            return std::move(*served);
          }
        }
        auto server = ServerFor(route.server_id);
        if (!server.ok()) return server.status();
        auto part = (*server)->ExecuteScan(route.tablet_uid, plan, exec);
        if (!part.ok()) return NormalizeServerStatus(part.status());
        sim::ChargeRpc(network_, node_, route.server_id, plan_bytes,
                       part->stats.bytes_shipped);
        return part;
      });
}

Result<QueryResult> LogBaseClient::Query(const std::string& table,
                                         uint32_t column_group,
                                         const query::QueryPlan& plan,
                                         const QueryOptions& options) {
  obs::Span span("client.query");
  qos::TenantScope tenant(&tenant_);
  query::ExecOptions exec;
  exec.as_of = SnapshotOf(options.read);
  exec.batch_rows = options.batch_rows == 0 ? 256 : options.batch_rows;

  // Retried as a unit: a tablet that exhausts its per-tablet budget
  // restarts the whole query against the then-cached layout, which a stale
  // route has dropped, so the retry re-plans from the master's.
  return retry_.Run<QueryResult>(
      "client.query", [&]() -> Result<QueryResult> {
        auto layout = LoadLayout(table, column_group);
        if (!layout.ok()) return layout.status();

        // Tablets overlapping the plan's range, in key order. The layout is
        // key-ordered and tablet ranges are disjoint, so appending
        // per-tablet batches in this order yields global key order.
        std::vector<const Route*> targets;
        for (const Route& route : **layout) {
          const tablet::TabletDescriptor& d = route.descriptor;
          if (!plan.end_key.empty() && !d.start_key.empty() &&
              Slice(d.start_key).compare(Slice(plan.end_key)) >= 0) {
            continue;
          }
          if (!plan.start_key.empty() && !d.end_key.empty() &&
              Slice(d.end_key).compare(Slice(plan.start_key)) <= 0) {
            continue;
          }
          targets.push_back(&route);
        }

        // Partition-parallel scatter in virtual time: up to kQueryFanout
        // sub-queries overlap, and elapsed time is the critical path, not
        // the sum. A failed sub-query's elapsed time still happened.
        sim::Fanout scatter(kQueryFanout);
        QueryResult out;
        query::TabletResult acc;
        for (const Route* route : targets) {
          bool from_replica = false;
          auto part = scatter.Run([&] {
            return QueryTablet(*route, plan, exec, options, &from_replica);
          });
          if (!part.ok()) {
            scatter.Join();
            return part.status();
          }
          out.tablets_queried++;
          if (from_replica) out.tablets_from_replica++;
          out.rows_scanned += part->stats.rows_scanned;
          out.rows_returned += part->stats.rows_returned;
          out.bytes_shipped += part->stats.bytes_shipped;
          query::MergeInto(&acc, std::move(*part));
        }
        scatter.Join();
        out.aggregated = acc.aggregated;
        out.batches = std::move(acc.batches);
        out.agg = std::move(acc.agg);
        return out;
      });
}

// ---------------------------------------------------------------------------
// Row operations across column groups.
// ---------------------------------------------------------------------------

Status LogBaseClient::PutRow(
    const std::string& table, const Slice& key,
    const std::map<std::string, std::string>& columns,
    const WriteOptions& options) {
  auto master = ActiveMaster();
  if (!master.ok()) return master.status();
  auto schema = (*master)->GetTable(table);
  if (!schema.ok()) return schema.status();
  WriteBatch batch;
  for (const tablet::ColumnGroup& group : schema->groups) {
    std::map<std::string, std::string> group_columns;
    for (const std::string& column : group.columns) {
      auto it = columns.find(column);
      if (it != columns.end()) group_columns[column] = it->second;
    }
    if (group_columns.empty()) continue;
    batch.Put(group.id, key, Slice(EncodeColumns(group_columns)));
  }
  return PutBatch(table, batch, options);
}

Result<std::map<std::string, std::string>> LogBaseClient::GetRow(
    const std::string& table, const Slice& key) {
  auto master = ActiveMaster();
  if (!master.ok()) return master.status();
  auto schema = (*master)->GetTable(table);
  if (!schema.ok()) return schema.status();
  std::map<std::string, std::string> row;
  bool found_any = false;
  for (const tablet::ColumnGroup& group : schema->groups) {
    auto value = Get(table, group.id, key, ReadOptions{});
    if (!value.ok()) {
      if (value.status().IsNotFound()) continue;
      return value.status();
    }
    found_any = true;
    auto columns = DecodeColumns(Slice(value->value()));
    if (!columns.ok()) return columns.status();
    for (auto& [name, val] : *columns) {
      row[name] = std::move(val);
    }
  }
  if (!found_any) return Status::NotFound("row not found");
  return row;
}

// ---------------------------------------------------------------------------
// Transactions.
// ---------------------------------------------------------------------------

Txn LogBaseClient::BeginTxn() { return Txn(this, txn_->Begin()); }

Result<std::string> LogBaseClient::TxnReadImpl(txn::Transaction* txn,
                                               const std::string& table,
                                               uint32_t column_group,
                                               const Slice& key) {
  qos::TenantScope tenant(&tenant_);
  auto route = Resolve(table, column_group, key);
  if (!route.ok()) return route.status();
  return txn_->Read(txn, (*route)->tablet_uid, key);
}

Status LogBaseClient::TxnWriteImpl(txn::Transaction* txn,
                                   const std::string& table,
                                   uint32_t column_group, const Slice& key,
                                   const Slice& value) {
  auto route = Resolve(table, column_group, key);
  if (!route.ok()) return route.status();
  return txn_->Write(txn, (*route)->tablet_uid, key, value);
}

Status LogBaseClient::TxnDeleteImpl(txn::Transaction* txn,
                                    const std::string& table,
                                    uint32_t column_group, const Slice& key) {
  auto route = Resolve(table, column_group, key);
  if (!route.ok()) return route.status();
  return txn_->Delete(txn, (*route)->tablet_uid, key);
}

Status LogBaseClient::CommitImpl(txn::Transaction* txn, log::AckMode ack) {
  qos::TenantScope tenant(&tenant_);
  return txn_->Commit(txn, ack);
}

void LogBaseClient::AbortImpl(txn::Transaction* txn) { txn_->Abort(txn); }

}  // namespace logbase::client
