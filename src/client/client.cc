#include "src/client/client.h"

#include <algorithm>
#include <functional>
#include <queue>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/column_batch.h"
#include "src/sim/sim_context.h"

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

void LogBaseClient::ChargeRpc(int server_id, uint64_t request_bytes,
                              uint64_t response_bytes) {
  if (network_ == nullptr) return;
  network_->Transfer(node_, server_id, request_bytes);
  network_->Transfer(server_id, node_, response_bytes);
}

Result<LogBaseClient::Route> LogBaseClient::Resolve(const std::string& table,
                                                    uint32_t column_group,
                                                    const Slice& key) {
  obs::Span span("client.route");
  // Locating through the master only happens on cache misses (§3.3); we
  // model that by keeping the cached copy of the whole table's layout.
  {
    MutexLock l(cache_mu_);
    auto schema_it = schema_cache_.find(table);
    if (schema_it != schema_cache_.end()) {
      for (const auto& [uid, location] : location_cache_) {
        if (location.descriptor.table_id == schema_it->second.id &&
            location.descriptor.column_group == column_group &&
            location.descriptor.Contains(key)) {
          return Route{uid, location.server_id, location.replicas};
        }
      }
    }
  }
  // Miss: ask the master and fill the cache.
  static obs::Counter* misses =
      obs::MetricsRegistry::Global().counter("client.route.cache_misses");
  misses->Add();
  auto master = ActiveMaster();
  if (!master.ok()) return master.status();
  auto schema = (*master)->GetTable(table);
  if (!schema.ok()) return schema.status();
  auto location = (*master)->Locate(table, column_group, key);
  if (!location.ok()) return location.status();
  {
    MutexLock l(cache_mu_);
    schema_cache_[table] = *schema;
    location_cache_[location->descriptor.uid()] = *location;
  }
  return Route{location->descriptor.uid(), location->server_id,
               location->replicas};
}

tablet::TabletServer* LogBaseClient::ServerByUid(const std::string& uid) {
  {
    MutexLock l(cache_mu_);
    auto it = location_cache_.find(uid);
    if (it != location_cache_.end()) {
      if (!ServerReachable(it->second.server_id)) return nullptr;
      tablet::TabletServer* server = server_resolver_(it->second.server_id);
      if (server != nullptr && server->running()) return server;
    }
  }
  return nullptr;
}

Result<tablet::TabletServer*> LogBaseClient::ServerFor(const Route& route) {
  if (!ServerReachable(route.server_id)) {
    return Status::Unavailable("tablet server unreachable (partition)");
  }
  tablet::TabletServer* server = server_resolver_(route.server_id);
  if (server == nullptr || !server->running()) {
    // Stale cache (e.g. server died, tablets reassigned): refresh once.
    InvalidateCache();
    return Status::Unavailable("tablet server down; cache invalidated");
  }
  return server;
}

void LogBaseClient::InvalidateCache() {
  MutexLock l(cache_mu_);
  location_cache_.clear();
  schema_cache_.clear();
}

Status LogBaseClient::NormalizeServerStatus(const Status& s) {
  // "Unknown tablet" from a running server means our route is stale: the
  // tablet moved (adopted after a crash) and a restarted server fenced it
  // off. Re-resolve through the master and retry.
  if (s.IsNotFound() && s.ToString().find("unknown tablet") !=
                            std::string::npos) {
    InvalidateCache();
    return Status::Unavailable("stale tablet route; cache invalidated");
  }
  // A sealed tablet is mid-migration: the write will succeed at the new
  // owner once the assignment flips, so drop the route and let the retry
  // policy's backoff cover the handover window.
  if (s.IsUnavailable() && s.ToString().find("tablet sealed") !=
                               std::string::npos) {
    InvalidateCache();
    return Status::Unavailable("tablet migrating; cache invalidated");
  }
  return s;
}

// ---------------------------------------------------------------------------
// Writes.
// ---------------------------------------------------------------------------

Status LogBaseClient::PutBatchAttempt(const std::string& table,
                                      const WriteBatch& batch,
                                      log::AckMode ack) {
  // Coalesce consecutive same-tablet puts into one server-side batch so the
  // group-commit queue sees multi-record submissions. A delete or a tablet
  // switch flushes the run first, preserving insertion order.
  Route run_route;
  std::vector<std::pair<std::string, std::string>> run_kvs;
  auto flush_run = [&]() -> Status {
    if (run_kvs.empty()) return Status::OK();
    auto server = ServerFor(run_route);
    if (!server.ok()) return server.status();
    uint64_t bytes = 0;
    for (const auto& [k, v] : run_kvs) bytes += k.size() + v.size();
    ChargeRpc(run_route.server_id, bytes + 64, 32);
    Status s = NormalizeServerStatus(
        (*server)->PutBatch(run_route.tablet_uid, run_kvs, ack));
    run_kvs.clear();
    return s;
  };
  for (const WriteBatch::Op& op : batch.ops()) {
    auto route = Resolve(table, op.column_group, Slice(op.key));
    if (!route.ok()) return route.status();
    if (op.is_delete) {
      LOGBASE_RETURN_NOT_OK(flush_run());
      auto server = ServerFor(*route);
      if (!server.ok()) return server.status();
      ChargeRpc(route->server_id, op.key.size() + 64, 32);
      LOGBASE_RETURN_NOT_OK(NormalizeServerStatus(
          (*server)->Delete(route->tablet_uid, Slice(op.key), ack)));
      continue;
    }
    if (!run_kvs.empty() && route->tablet_uid != run_route.tablet_uid) {
      LOGBASE_RETURN_NOT_OK(flush_run());
    }
    run_route = *route;
    run_kvs.emplace_back(op.key, op.value);
  }
  return flush_run();
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

bool IsNoReplicaServed(const Status& s) {
  return s.IsNotFound() &&
         s.ToString().find("no replica served") != std::string::npos;
}

/// The server-side snapshot of a read: ReadOptions spells "latest" as 0,
/// servers as index::kLatest. The only place that translates the two.
uint64_t SnapshotOf(const ReadOptions& options) {
  return options.as_of == 0 ? index::kLatest : options.as_of;
}

}  // namespace

Result<tablet::ReadValue> LogBaseClient::ReplicaGet(const Route& route,
                                                    const Slice& key,
                                                    const ReadOptions& options,
                                                    uint64_t* snapshot_ts) {
  if (!replica_resolver_ || route.replicas.empty()) {
    return Status::NotFound("no replica served");
  }
  // Deterministic rotation by (key, client node) spreads one tablet's reads
  // across its replicas without coordination or randomness. The hash needs
  // real avalanche: `start % replicas` keeps only the low bits, and a plain
  // polynomial hash of short keys leaves those correlated with the key's
  // last digits (all reads pile onto one replica).
  uint64_t h = static_cast<uint64_t>(node_) ^ 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < key.size(); i++) {
    h = (h ^ static_cast<unsigned char>(key.data()[i])) * 0x100000001B3ull;
  }
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  size_t start = static_cast<size_t>(h);
  static obs::Counter* redirects =
      obs::MetricsRegistry::Global().counter("client.replica.redirects");
  for (size_t i = 0; i < route.replicas.size(); i++) {
    int replica_id = route.replicas[(start + i) % route.replicas.size()];
    replica::ReplicaServer* rep = replica_resolver_(replica_id);
    if (rep == nullptr || !rep->running()) continue;
    if (!ServerReachable(rep->node())) continue;
    auto read = rep->Get(route.tablet_uid, key, SnapshotOf(options),
                         options.max_staleness_us, snapshot_ts);
    if (read.ok()) {
      ChargeRpc(rep->node(), key.size() + 64, read->value.size() + 32);
      redirects->Add();
      return read;
    }
    if (read.status().IsNotFound()) {
      if (read.status().ToString().find("unknown replica tablet") !=
          std::string::npos) {
        // The attachment was torn down under us (the tablet migrated or
        // split): the route is stale — invalidate exactly like an
        // unknown-tablet primary response and try the next candidate.
        InvalidateCache();
        continue;
      }
      // The key is absent at the replica's snapshot. Authoritative under
      // allow_stale: the snapshot is prefix-consistent by construction.
      ChargeRpc(rep->node(), key.size() + 64, 32);
      redirects->Add();
      return read.status();
    }
    // Unavailable (staleness exceeded, re-seeding, crashed mid-flight):
    // try the next replica, then the primary.
  }
  static obs::Counter* fallbacks =
      obs::MetricsRegistry::Global().counter("client.replica.fallbacks");
  fallbacks->Add();
  return Status::NotFound("no replica served");
}

Result<ReadResult> LogBaseClient::Get(const std::string& table,
                                      uint32_t column_group, const Slice& key,
                                      const ReadOptions& options) {
  obs::Span span("client.get");
  qos::TenantScope tenant(&tenant_);
  return retry_.Run<ReadResult>("client.get", [&]() -> Result<ReadResult> {
    auto route = Resolve(table, column_group, key);
    if (!route.ok()) return route.status();

    ReadResult result;
    if (options.allow_stale && !options.all_versions) {
      uint64_t snap = 0;
      auto read = ReplicaGet(*route, key, options, &snap);
      if (read.ok()) {
        result.snapshot_ts = snap;
        result.rows.push_back(tablet::ReadRow{
            key.ToString(), options.with_timestamp ? read->timestamp : 0,
            std::move(read->value)});
        return result;
      }
      if (!IsNoReplicaServed(read.status())) return read.status();
      // Every candidate declined — same attempt continues on the primary.
    }

    auto server = ServerFor(*route);
    if (!server.ok()) return server.status();
    if (options.all_versions) {
      auto rows = (*server)->GetVersions(route->tablet_uid, key);
      if (!rows.ok()) return NormalizeServerStatus(rows.status());
      uint64_t bytes = 0;
      for (const auto& row : *rows) bytes += row.key.size() + row.value.size();
      ChargeRpc(route->server_id, key.size() + 64, bytes + 32);
      result.rows = std::move(*rows);
      return result;
    }

    auto read =
        (*server)->Get(route->tablet_uid, key, SnapshotOf(options));
    if (!read.ok()) return NormalizeServerStatus(read.status());
    ChargeRpc(route->server_id, key.size() + 64, read->value.size() + 32);
    result.rows.push_back(tablet::ReadRow{
        key.ToString(), options.with_timestamp ? read->timestamp : 0,
        std::move(read->value)});
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
    const master::TabletLocation& location, const Slice& wire_plan,
    const query::ExecOptions& exec, const QueryOptions& options,
    bool* from_replica) {
  const tablet::TabletDescriptor& d = location.descriptor;
  // Transient per-tablet failures (server restarting, replica mid-reseed)
  // retry here without restarting the whole scatter; when the budget runs
  // out the failure bubbles up and the outer whole-query retry re-plans
  // against the then-current layout (stale routes have already invalidated
  // the cache through NormalizeServerStatus).
  fault::RetryOptions per_tablet = retry_.options();
  per_tablet.max_attempts = std::min(per_tablet.max_attempts, 3);
  fault::RetryPolicy policy(per_tablet);
  return policy.Run<query::TabletResult>(
      "client.query_tablet", [&]() -> Result<query::TabletResult> {
        // Replica-preferring routing, like ReplicaGet: rotate by (tablet,
        // client node) so one tablet's queries spread across its replicas,
        // fall back to the primary when every candidate declines.
        if (options.read.allow_stale && replica_resolver_ &&
            !location.replicas.empty()) {
          uint64_t h = static_cast<uint64_t>(node_) ^ 0x9E3779B97F4A7C15ull;
          const std::string uid = d.uid();
          for (char c : uid) {
            h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
          }
          h ^= h >> 33;
          size_t start = static_cast<size_t>(h);
          static obs::Counter* redirects = obs::MetricsRegistry::Global()
              .counter("client.replica.redirects");
          for (size_t i = 0; i < location.replicas.size(); i++) {
            int replica_id =
                location.replicas[(start + i) % location.replicas.size()];
            replica::ReplicaServer* rep = replica_resolver_(replica_id);
            if (rep == nullptr || !rep->running()) continue;
            if (!ServerReachable(rep->node())) continue;
            auto part = rep->ExecuteScan(
                uid, wire_plan, options.read.max_staleness_us, exec);
            if (part.ok()) {
              ChargeRpc(rep->node(), wire_plan.size() + 64,
                        part->stats.bytes_shipped + 32);
              redirects->Add();
              *from_replica = true;
              return part;
            }
            if (part.status().IsNotFound() &&
                part.status().ToString().find("unknown replica tablet") !=
                    std::string::npos) {
              // Torn down under us (migration/split): stale route, same as
              // an unknown-tablet primary response; try the next candidate.
              InvalidateCache();
              continue;
            }
            // Staleness exceeded / re-seeding / crashed mid-flight: next
            // candidate, then the primary.
          }
          static obs::Counter* fallbacks = obs::MetricsRegistry::Global()
              .counter("client.replica.fallbacks");
          fallbacks->Add();
        }
        if (!ServerReachable(location.server_id)) {
          return Status::Unavailable("tablet server unreachable (partition)");
        }
        tablet::TabletServer* server = server_resolver_(location.server_id);
        if (server == nullptr || !server->running()) {
          InvalidateCache();
          return Status::Unavailable("tablet server down; cache invalidated");
        }
        auto part = server->ExecuteScan(d.uid(), wire_plan, exec);
        if (!part.ok()) return NormalizeServerStatus(part.status());
        ChargeRpc(location.server_id, wire_plan.size() + 64,
                  part->stats.bytes_shipped + 32);
        return part;
      });
}

Result<QueryResult> LogBaseClient::Query(const std::string& table,
                                         uint32_t column_group,
                                         const query::QueryPlan& plan,
                                         const QueryOptions& options) {
  obs::Span span("client.query");
  qos::TenantScope tenant(&tenant_);
  // Encoded once; the same bytes ship to every server (and are what the
  // network model charges for each request).
  const std::string wire_plan = plan.Encode();
  query::ExecOptions exec;
  exec.as_of = SnapshotOf(options.read);
  exec.batch_rows = options.batch_rows == 0 ? 256 : options.batch_rows;

  // Retried as a unit: a tablet that exhausts its per-tablet budget
  // restarts the whole query against the (possibly reassigned) layout.
  return retry_.Run<QueryResult>(
      "client.query", [&]() -> Result<QueryResult> {
        auto master = ActiveMaster();
        if (!master.ok()) return master.status();
        auto locations = (*master)->LocateAll(table, column_group);
        if (!locations.ok()) return locations.status();

        // Tablets overlapping the plan's range, in key order. LocateAll is
        // key-ordered and tablet ranges are disjoint, so appending
        // per-tablet batches in this order yields global key order.
        std::vector<const master::TabletLocation*> targets;
        for (const master::TabletLocation& location : *locations) {
          const tablet::TabletDescriptor& d = location.descriptor;
          if (!plan.end_key.empty() && !d.start_key.empty() &&
              Slice(d.start_key).compare(Slice(plan.end_key)) >= 0) {
            continue;
          }
          if (!plan.start_key.empty() && !d.end_key.empty() &&
              Slice(d.end_key).compare(Slice(plan.start_key)) <= 0) {
            continue;
          }
          targets.push_back(&location);
        }

        // Partition-parallel scatter in virtual time: up to `max_fanout`
        // sub-queries overlap. Each runs in a child clock starting at the
        // fan-out point while slots are free, else at the earliest running
        // sub-query's completion; the caller advances to the last
        // completion — elapsed time is the critical path, not the sum.
        sim::SimContext* ctx = sim::SimContext::Current();
        const sim::VirtualTime base = ctx != nullptr ? ctx->now() : 0;
        const size_t fanout = std::max<size_t>(1, options.max_fanout);
        std::priority_queue<sim::VirtualTime, std::vector<sim::VirtualTime>,
                            std::greater<sim::VirtualTime>>
            slots;
        sim::VirtualTime finish = base;

        QueryResult out;
        query::TabletResult acc;
        for (const master::TabletLocation* location : targets) {
          sim::VirtualTime start = base;
          if (ctx != nullptr && slots.size() >= fanout) {
            start = slots.top();
            slots.pop();
          }
          sim::SimContext child(start);
          bool from_replica = false;
          auto part = [&]() -> Result<query::TabletResult> {
            sim::SimContext::Scope scope(ctx != nullptr ? &child : nullptr);
            return QueryTablet(*location, Slice(wire_plan), exec, options,
                               &from_replica);
          }();
          if (ctx != nullptr) {
            slots.push(child.now());
            finish = std::max(finish, child.now());
          }
          if (!part.ok()) {
            // The failed sub-query's elapsed time still happened.
            if (ctx != nullptr) ctx->AdvanceTo(finish);
            return part.status();
          }
          out.tablets_queried++;
          if (from_replica) out.tablets_from_replica++;
          out.rows_scanned += part->stats.rows_scanned;
          out.rows_returned += part->stats.rows_returned;
          out.bytes_shipped += part->stats.bytes_shipped;
          query::MergeInto(&acc, std::move(*part));
        }
        if (ctx != nullptr) ctx->AdvanceTo(finish);
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
  return txn_->Read(txn, route->tablet_uid, key);
}

Status LogBaseClient::TxnWriteImpl(txn::Transaction* txn,
                                   const std::string& table,
                                   uint32_t column_group, const Slice& key,
                                   const Slice& value) {
  auto route = Resolve(table, column_group, key);
  if (!route.ok()) return route.status();
  return txn_->Write(txn, route->tablet_uid, key, value);
}

Status LogBaseClient::TxnDeleteImpl(txn::Transaction* txn,
                                    const std::string& table,
                                    uint32_t column_group, const Slice& key) {
  auto route = Resolve(table, column_group, key);
  if (!route.ok()) return route.status();
  return txn_->Delete(txn, route->tablet_uid, key);
}

Status LogBaseClient::CommitImpl(txn::Transaction* txn, log::AckMode ack) {
  qos::TenantScope tenant(&tenant_);
  return txn_->Commit(txn, ack);
}

void LogBaseClient::AbortImpl(txn::Transaction* txn) { txn_->Abort(txn); }

}  // namespace logbase::client
