#include "src/fault/nemesis.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <set>

#include "src/client/client.h"
#include "src/cluster/mini_cluster.h"
#include "src/qos/admission.h"
#include "src/sim/sim_context.h"
#include "src/util/crc32c.h"
#include "src/util/logging.h"
#include "src/util/random.h"

namespace logbase::fault {

namespace {

constexpr const char* kTable = "chaos";
/// Virtual time added per round (drives the fault schedule forward).
constexpr sim::VirtualTime kRoundAdvanceUs = 2500;
/// Snapshot samples to take for the I2 check.
constexpr size_t kSnapshotSamples = 24;
/// With replicas: percentage of workload reads issued stale-tolerant
/// (allow_stale, routed to replicas with primary fallback).
constexpr uint64_t kStaleReadPercent = 40;
// A transaction pair: two keys always written together with the same
// sequence number, so a partial commit is observable as a mismatch. One pair
// sits in one tablet range (between key0000 and key0001), the one-server
// commit; the other spans the first and the last tablet, which boot on
// different servers, the cross-server commit.
struct TxnPair {
  std::string a;
  std::string b;
  std::set<uint64_t> acked;  // sequence numbers of acknowledged commits
};

std::string KeyName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%04d", i);
  return buf;
}

// The hostile tenant's key space ('h' < 'k' keeps it inside the first
// tablet's range, so its traffic hammers one tablet like a real noisy
// neighbor would).
constexpr const char* kHostileTenant = "hostile";
constexpr int kHostileKeys = 16;
/// Burst (ops) granted to the hostile tenant's bucket.
constexpr double kHostileBurstOps = 4.0;

std::string HostileKeyName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "hst%04d", i);
  return buf;
}

std::string EncodeSeq(uint64_t seq) { return "v" + std::to_string(seq); }

bool DecodeSeq(const std::string& value, uint64_t* seq) {
  if (value.size() < 2 || value[0] != 'v') return false;
  uint64_t out = 0;
  for (size_t i = 1; i < value.size(); i++) {
    if (value[i] < '0' || value[i] > '9') return false;
    out = out * 10 + static_cast<uint64_t>(value[i] - '0');
  }
  *seq = out;
  return true;
}

struct SnapshotSample {
  std::string key;
  uint64_t timestamp = 0;
  std::string value;
};

uint32_t FoldDigest(uint32_t crc, const std::string& s) {
  return crc32c::Extend(crc, s.data(), s.size());
}

}  // namespace

std::string NemesisReport::ToString() const {
  std::string out;
  out += "nemesis: " + std::to_string(faults_fired) + " faults, " +
         std::to_string(ops_acked) + "/" + std::to_string(ops_attempted) +
         " ops acked (" + std::to_string(cross_server_commits_acked) +
         " cross-server commits), digest=" + std::to_string(table_digest) +
         "\n";
  if (ops_hostile_attempted > 0) {
    out += "  qos: " + std::to_string(ops_shed) + "/" +
           std::to_string(ops_hostile_attempted) + " hostile writes shed\n";
  }
  if (stale_reads_served > 0 || stale_read_fallbacks > 0) {
    out += "  stale reads: " + std::to_string(stale_reads_served) +
           " replica-served, " + std::to_string(stale_read_fallbacks) +
           " fell back to primary\n";
  }
  for (const std::string& e : schedule) out += "  fault " + e + "\n";
  for (const std::string& v : violations) out += "  VIOLATION " + v + "\n";
  return out;
}

Result<NemesisReport> RunNemesis(const NemesisOptions& options,
                                 const FaultPlan& plan) {
  sim::ScopedClock clock;

  cluster::MiniClusterOptions copts;
  copts.num_nodes = options.num_nodes;
  copts.num_masters = options.num_masters;
  copts.balancer.seed = options.seed;
  // The chaos workload is light (one op per round); a low activation floor
  // lets the balancer actually act during the run.
  copts.balancer.min_total_score = 4.0;
  copts.num_replicas = options.num_replicas;
  const bool qos_on = options.qos_hostile_ops_per_sec > 0.0;
  if (qos_on) {
    copts.server_template.admission.enabled = true;
    copts.replica_template.admission.enabled = true;
  }
  cluster::MiniCluster cluster(copts);
  LOGBASE_RETURN_NOT_OK(cluster.Start());

  master::Master* boot_master = cluster.active_master();
  if (boot_master == nullptr) {
    return Status::Unavailable("nemesis: no active master at boot");
  }
  std::vector<std::string> splits = {KeyName(options.keys / 3),
                                     KeyName(2 * options.keys / 3)};
  auto schema = boot_master->CreateTable(kTable, {"v"}, {{"v"}}, splits);
  if (!schema.ok()) return schema.status();
  std::array<TxnPair, 2> pairs = {
      TxnPair{"key0000-txa", "key0000-txb", {}},
      TxnPair{KeyName(0) + "-txc", KeyName(options.keys - 1) + "-txd", {}}};
  {
    std::map<std::string, int> owner;
    for (const auto& [uid, location] : boot_master->AssignmentsSnapshot()) {
      if (location.descriptor.column_group != 0) continue;
      for (const std::string& key : {pairs[1].a, pairs[1].b}) {
        if (location.descriptor.Contains(Slice(key))) {
          owner[key] = location.server_id;
        }
      }
    }
    if (owner.size() != 2 || owner[pairs[1].a] == owner[pairs[1].b]) {
      return Status::InvalidArgument(
          "nemesis: the cross-server pair does not span two servers");
    }
  }

  // Attach every group-0 tablet to every replica (AddReplica skips replicas
  // already serving the tablet, so R calls saturate a fleet of R).
  if (options.num_replicas > 0) {
    for (const auto& [uid, location] : boot_master->AssignmentsSnapshot()) {
      if (location.descriptor.column_group != 0) continue;
      for (int r = 0; r < options.num_replicas; r++) {
        auto added = boot_master->AddReplica(uid);
        if (!added.ok()) return added.status();
      }
    }
  }

  // The hostile tenant's quota, persisted through the master so every
  // server's admission controller reads it from /meta/quota (I7).
  if (qos_on) {
    qos::QuotaSpec quota;
    quota.tenant = kHostileTenant;
    quota.ops_per_sec = options.qos_hostile_ops_per_sec;
    quota.ops_burst = kHostileBurstOps;
    LOGBASE_RETURN_NOT_OK(boot_master->SetQuota(quota));
  }

  FaultInjector injector(ClusterTargets(&cluster), plan, options.seed);

  auto client = cluster.NewClient(1 % options.num_nodes);
  RetryOptions retry = options.retry;
  if (retry.seed == 0) retry.seed = options.seed;
  client->set_retry_options(retry);

  // The hostile client writes fail-fast (one attempt, no backoff): a shed
  // write is rejected by admission before any server state is touched, so
  // it must never surface in the table — which I7 verifies after heal.
  std::unique_ptr<client::LogBaseClient> hostile;
  if (qos_on) {
    hostile = cluster.NewClient(2 % options.num_nodes);
    hostile->set_tenant({kHostileTenant, qos::Priority::kLow});
    RetryOptions hostile_retry = retry;
    hostile_retry.max_attempts = 1;
    hostile->set_retry_options(hostile_retry);
  }

  NemesisReport report;
  Random rnd(options.seed);
  uint64_t seq = 0;
  std::map<std::string, uint64_t> max_acked;
  std::map<std::string, std::set<uint64_t>> attempted;
  std::set<uint64_t> shed_seqs;  // hostile seqs rejected by admission (I7)
  std::vector<SnapshotSample> samples;
  std::vector<SnapshotSample> stale_samples;  // replica-served reads (I6)

  // -- Workload, with the fault schedule firing as virtual time passes ----
  for (int round = 0; round < options.rounds; round++) {
    clock.Advance(kRoundAdvanceUs);
    auto fired = injector.AdvanceTo(clock.now());
    if (!fired.ok()) return fired.status();
    report.faults_fired += *fired;

    master::Master* active = cluster.active_master();
    if (active != nullptr) {
      // Failure handling races the fault schedule; failures here (say, the
      // adoption target just crashed too) are retried next round.
      (void)active->DetectAndHandleFailures();
      if (options.ddl_every > 0 && round > 0 &&
          round % options.ddl_every == 0) {
        (void)active->AddColumnGroup(kTable,
                                     {"x" + std::to_string(round)});
      }
    }
    if (options.enable_balancer && options.balance_every > 0 && round > 0 &&
        round % options.balance_every == 0) {
      // Balancer actions race the fault schedule by design; a tick that
      // fails (target crashed mid-migration, leadership lost) rolls back or
      // is reconciled at the next promotion, which I5 verifies after heal.
      (void)cluster.balancer()->Tick();
    }
    if (options.num_replicas > 0) {
      // Deterministic replica chaos: crash replica 0 mid-run, restart it a
      // tenth of the run later (rebuild from checkpoint + log tail).
      if (round == options.rounds / 2) {
        cluster.CrashReplica(0);
      } else if (round == options.rounds / 2 + options.rounds / 10) {
        (void)cluster.RestartReplica(0);  // needs an active master; retried
                                          // implicitly via the top-up below
      }
      // Best-effort: a tailer whose source is mid-crash errors this round
      // and catches up on a later one.
      (void)cluster.TickReplicas();
      // Top-up: re-attach tablets whose replica sets were torn down by
      // migrations/splits/failures racing the schedule.
      if (round > 0 && round % 25 == 0 && active != nullptr) {
        for (const auto& [uid, location] : active->AssignmentsSnapshot()) {
          if (location.descriptor.column_group != 0) continue;
          int missing = options.num_replicas -
                        static_cast<int>(location.replicas.size());
          for (int r = 0; r < missing; r++) {
            if (!active->AddReplica(uid).ok()) break;
          }
        }
      }
    }

    // One hostile write per round, over quota by construction. A shed is
    // identified by the retry-after hint only admission attaches — any
    // other failure (crash mid-op) is in-doubt and claims nothing.
    if (qos_on) {
      seq++;
      std::string hkey = HostileKeyName(round % kHostileKeys);
      attempted[hkey].insert(seq);
      report.ops_hostile_attempted++;
      Status s = hostile->Put(kTable, 0, hkey, EncodeSeq(seq), {});
      if (s.ok()) {
        max_acked[hkey] = std::max(max_acked[hkey], seq);
      } else if (s.retry_after_us() > 0) {
        report.ops_shed++;
        shed_seqs.insert(seq);
      }
    }

    uint64_t dice = rnd.Uniform(100);
    if (dice < 50) {  // blind write
      seq++;
      std::string key = KeyName(static_cast<int>(
          rnd.Uniform(static_cast<uint64_t>(options.keys))));
      attempted[key].insert(seq);
      report.ops_attempted++;
      Status s = client->Put(kTable, 0, key, EncodeSeq(seq), {});
      if (s.ok()) {
        report.ops_acked++;
        max_acked[key] = std::max(max_acked[key], seq);
      }
    } else if (dice < 80) {  // read (and maybe keep a snapshot sample)
      std::string key = KeyName(static_cast<int>(
          rnd.Uniform(static_cast<uint64_t>(options.keys))));
      report.ops_attempted++;
      client::ReadOptions ro;
      if (options.num_replicas > 0 && rnd.Uniform(100) < kStaleReadPercent) {
        ro.allow_stale = true;
        // Generous bound: replicas tick every round, so only a crashed or
        // badly lagging replica trips it (and the read falls back).
        ro.max_staleness_us = 20 * kRoundAdvanceUs;
      }
      auto r = client->Get(kTable, 0, key, ro);
      if (r.ok()) {
        report.ops_acked++;
        if (ro.allow_stale) {
          if (r->snapshot_ts != 0) {
            report.stale_reads_served++;
          } else {
            report.stale_read_fallbacks++;
          }
        }
        if (r->found()) {
          uint64_t got = 0;
          if (!DecodeSeq(r->value(), &got) ||
              attempted[key].count(got) == 0) {
            report.violations.push_back("I1: read returned value '" +
                                        r->value() + "' never written to " +
                                        key);
          }
          if (r->snapshot_ts != 0) {
            // A replica answered. The version it served can't be newer than
            // the snapshot it claims, and the (key, version, value) triple
            // is re-checked against the primary's history after heal (I6).
            if (r->timestamp() > r->snapshot_ts) {
              report.violations.push_back(
                  "I6: replica served " + key + " version " +
                  std::to_string(r->timestamp()) + " above its snapshot " +
                  std::to_string(r->snapshot_ts));
            }
            if (stale_samples.size() < 64) {
              stale_samples.push_back({key, r->timestamp(), r->value()});
            }
          }
          if (r->timestamp() != 0 && r->snapshot_ts == 0 &&
              samples.size() < kSnapshotSamples &&
              rnd.Bernoulli(0.4)) {
            samples.push_back({key, r->timestamp(), r->value()});
          }
        }
      }
    } else {  // transaction writing a pair atomically
      TxnPair& pair = pairs[dice < 90 ? 0 : 1];
      seq++;
      attempted[pair.a].insert(seq);
      attempted[pair.b].insert(seq);
      report.ops_attempted++;
      client::Txn txn = client->BeginTxn();
      Status s = txn.Write(kTable, 0, pair.a, EncodeSeq(seq));
      if (s.ok()) s = txn.Write(kTable, 0, pair.b, EncodeSeq(seq));
      if (s.ok()) {
        s = txn.Commit();
      } else {
        txn.Abort();
      }
      if (s.ok()) {
        report.ops_acked++;
        pair.acked.insert(seq);
        if (&pair == &pairs[1]) report.cross_server_commits_acked++;
        max_acked[pair.a] = std::max(max_acked[pair.a], seq);
        max_acked[pair.b] = std::max(max_acked[pair.b], seq);
      }
    }
  }

  if (options.enable_balancer) {
    const balance::BalancerStats bstats = cluster.balancer()->stats();
    report.balancer_migrations = static_cast<int>(bstats.migrations);
    report.balancer_splits = static_cast<int>(bstats.splits);
  }

  // -- Quiescence: deliver the rest of the plan, then heal ----------------
  auto fired = injector.FireAll();
  if (!fired.ok()) return fired.status();
  report.faults_fired += *fired;
  injector.HealNetwork();
  injector.ClearDiskFaults();

  for (int i : injector.CrashedMasters()) {
    LOGBASE_RETURN_NOT_OK(cluster.RestartMaster(i));
  }
  // Crashed (process-level) servers come back; killed machines stay dead —
  // their tablets are adopted below and their blocks re-replicated.
  for (int node : injector.CrashedServers()) {
    if (!injector.IsNodeDead(node)) {
      LOGBASE_RETURN_NOT_OK(cluster.RestartServer(node));
    }
  }

  master::Master* active = cluster.active_master();
  if (active == nullptr) {
    report.violations.push_back("I4: no master became active after heal");
  } else {
    for (int i = 0; i < 4; i++) {
      auto handled = active->DetectAndHandleFailures();
      if (!handled.ok()) {
        report.violations.push_back("I4: failure handling failed: " +
                                    handled.status().ToString());
        break;
      }
      if (*handled == 0) break;
    }
  }

  auto healed = cluster.dfs()->HealUnderReplicated();
  if (!healed.ok()) {
    report.violations.push_back("I3: under-replication sweep failed: " +
                                healed.status().ToString());
  }

  // Replicas are soft state: bring any stopped one back (re-seeding through
  // the active master) and let every tailer catch up to the log end, so the
  // I6 re-reads below run against fully synced replicas too.
  if (options.num_replicas > 0) {
    for (int i = 0; i < cluster.num_replicas(); i++) {
      if (!cluster.replica(i)->running()) {
        LOGBASE_RETURN_NOT_OK(cluster.RestartReplica(i));
      }
    }
    LOGBASE_RETURN_NOT_OK(cluster.TickReplicas());
  }

  report.schedule = injector.DeliveredLog();

  // -- I4: exactly one active master, and it serves metadata --------------
  int active_masters = 0;
  for (int i = 0; i < cluster.num_masters(); i++) {
    if (cluster.masters(i)->IsActiveMaster()) active_masters++;
  }
  if (active_masters != 1) {
    report.violations.push_back(
        "I4: " + std::to_string(active_masters) +
        " active masters after heal (want exactly 1)");
  }
  if (active != nullptr && !active->GetTable(kTable).ok()) {
    report.violations.push_back(
        "I4: active master lost the table metadata");
  }

  // -- I5: ownership integrity after migrations/splits raced the faults ---
  if (active != nullptr) {
    auto assignments = active->AssignmentsSnapshot();
    std::vector<int> live = active->LiveServers();
    for (const auto& [uid, location] : assignments) {
      if (std::find(live.begin(), live.end(), location.server_id) ==
          live.end()) {
        report.violations.push_back(
            "I5: tablet " + uid + " assigned to dead server " +
            std::to_string(location.server_id));
        continue;
      }
      tablet::TabletServer* owner = cluster.server(location.server_id);
      if (owner == nullptr || !owner->running()) {
        report.violations.push_back(
            "I5: tablet " + uid + " assigned to non-running server " +
            std::to_string(location.server_id));
        continue;
      }
      tablet::Tablet* hosted = owner->FindTablet(uid);
      if (hosted == nullptr) {
        report.violations.push_back("I5: tablet " + uid +
                                    " not hosted by its owner " +
                                    std::to_string(location.server_id));
      } else if (hosted->sealed()) {
        report.violations.push_back("I5: tablet " + uid +
                                    " still sealed after heal");
      }
      for (int node = 0; node < cluster.num_nodes(); node++) {
        if (node == location.server_id) continue;
        tablet::TabletServer* other = cluster.server(node);
        if (other == nullptr || !other->running()) continue;
        if (other->FindTablet(uid) != nullptr) {
          report.violations.push_back(
              "I5: tablet " + uid + " hosted by both server " +
              std::to_string(location.server_id) + " and server " +
              std::to_string(node));
        }
      }
    }
    for (int node = 0; node < cluster.num_nodes(); node++) {
      tablet::TabletServer* server = cluster.server(node);
      if (server == nullptr || !server->running()) continue;
      for (const tablet::TabletDescriptor& d : server->Tablets()) {
        if (assignments.count(d.uid()) == 0) {
          report.violations.push_back(
              "I5: server " + std::to_string(node) +
              " hosts unassigned tablet " + d.uid());
        }
      }
    }
  }

  // -- I1: no acknowledged write lost -------------------------------------
  auto checker = cluster.NewClient(0);
  std::vector<std::string> all_keys;
  for (int i = 0; i < options.keys; i++) all_keys.push_back(KeyName(i));
  for (const TxnPair& pair : pairs) {
    all_keys.push_back(pair.a);
    all_keys.push_back(pair.b);
  }
  // Hostile keys ride the I1 sweep too: admitted + acked hostile writes are
  // as durable as anyone else's, throttled or not.
  if (qos_on) {
    for (int i = 0; i < kHostileKeys; i++) {
      all_keys.push_back(HostileKeyName(i));
    }
  }

  std::map<std::string, uint64_t> final_seq;
  for (const std::string& key : all_keys) {
    bool ever_acked = max_acked.count(key) > 0;
    auto r = checker->Get(kTable, 0, key, client::ReadOptions{});
    if (!r.ok()) {
      if (ever_acked || !attempted[key].empty()) {
        report.violations.push_back("I1: " + key + " unreadable after heal: " +
                                    r.status().ToString());
      }
      continue;
    }
    if (!r->found()) {
      if (ever_acked) {
        report.violations.push_back("I1: acked write to " + key +
                                    " lost (no value survives)");
      }
      continue;
    }
    uint64_t got = 0;
    if (!DecodeSeq(r->value(), &got)) {
      report.violations.push_back("I1: " + key + " holds corrupt value '" +
                                  r->value() + "'");
      continue;
    }
    final_seq[key] = got;
    if (attempted[key].count(got) == 0) {
      report.violations.push_back("I1: " + key + " holds seq " +
                                  std::to_string(got) + " never written");
    }
    if (ever_acked && got < max_acked[key]) {
      report.violations.push_back(
          "I1: " + key + " regressed to seq " + std::to_string(got) +
          " below acked seq " + std::to_string(max_acked[key]));
    }
  }
  // Atomic pairs: a mismatch is only legal when one side is an in-doubt
  // (unacknowledged) commit attempt.
  for (const TxnPair& pair : pairs) {
    if (final_seq.count(pair.a) == 0 || final_seq.count(pair.b) == 0) {
      continue;
    }
    uint64_t a = final_seq[pair.a];
    uint64_t b = final_seq[pair.b];
    if (a != b && pair.acked.count(a) > 0 && pair.acked.count(b) > 0) {
      report.violations.push_back(
          "I1: txn pair " + pair.a + "/" + pair.b +
          " split between acked commits " + std::to_string(a) + " and " +
          std::to_string(b));
    }
  }

  // -- I2: snapshot reads are stable --------------------------------------
  for (const SnapshotSample& sample : samples) {
    client::ReadOptions ro;
    ro.as_of = sample.timestamp;
    auto r = checker->Get(kTable, 0, sample.key, ro);
    if (!r.ok() || !r->found() || r->value() != sample.value) {
      report.violations.push_back(
          "I2: as-of read of " + sample.key + "@" +
          std::to_string(sample.timestamp) + " changed: saw '" +
          sample.value + "', now " +
          (r.ok() ? (r->found() ? "'" + r->value() + "'" : "<missing>")
                  : r.status().ToString()));
    }
  }

  // -- I6: replica-served reads were prefix-consistent snapshots ----------
  // Every (key, version, value) a replica served during the run must match
  // the primary's as-of read at that version — the replica's snapshot was a
  // prefix of the primary's history, and surviving history never diverges
  // from what was served (including across the replica-0 crash/rebuild).
  for (const SnapshotSample& sample : stale_samples) {
    client::ReadOptions ro;
    ro.as_of = sample.timestamp;
    auto r = checker->Get(kTable, 0, sample.key, ro);
    if (!r.ok() || !r->found() || r->value() != sample.value) {
      report.violations.push_back(
          "I6: replica-served read of " + sample.key + "@" +
          std::to_string(sample.timestamp) + " diverges from primary: saw '" +
          sample.value + "', primary has " +
          (r.ok() ? (r->found() ? "'" + r->value() + "'" : "<missing>")
                  : r.status().ToString()));
    }
  }

  // -- I7: shed writes never reached the table ----------------------------
  // A shed is an admission rejection before any tablet/log state was
  // touched, so its sequence number must not appear in *any* surviving
  // version of the key — partial application would show up here even if a
  // later write papered over the latest version.
  if (qos_on) {
    for (int i = 0; i < kHostileKeys; i++) {
      std::string key = HostileKeyName(i);
      client::ReadOptions ro;
      ro.all_versions = true;
      auto r = checker->Get(kTable, 0, key, ro);
      if (!r.ok()) continue;  // unreadable keys are I1's problem
      for (const tablet::ReadRow& row : r->rows) {
        uint64_t got = 0;
        if (!DecodeSeq(row.value, &got)) continue;
        if (shed_seqs.count(got) > 0) {
          report.violations.push_back(
              "I7: shed write seq " + std::to_string(got) +
              " surfaced in " + key + " (admission rejected it)");
        }
      }
    }
  }

  // -- I3: replication factor restored ------------------------------------
  {
    dfs::Dfs* d = cluster.dfs();
    std::vector<bool> alive = d->AliveNodes();
    int live = static_cast<int>(std::count(alive.begin(), alive.end(), true));
    int want = std::min(d->options().replication, live);
    auto files = d->name_node()->List("");
    if (!files.ok()) {
      report.violations.push_back("I3: cannot list DFS files: " +
                                  files.status().ToString());
    } else {
      for (const std::string& path : *files) {
        auto blocks = d->name_node()->GetBlocks(path);
        if (!blocks.ok()) continue;
        for (const dfs::BlockInfo& block : *blocks) {
          int holding = 0;
          int anywhere = 0;
          for (int node = 0; node < d->num_nodes(); node++) {
            if (!d->data_node(node)->HasBlock(block.id)) continue;
            anywhere++;
            if (alive[node]) holding++;
          }
          // Allocated-but-never-written tail blocks hold no bytes yet.
          if (block.size == 0 && anywhere == 0) continue;
          if (holding < want) {
            report.violations.push_back(
                "I3: block " + std::to_string(block.id) + " of " + path +
                " has " + std::to_string(holding) + " live replicas (want " +
                std::to_string(want) + ")");
          }
        }
      }
    }
  }

  // -- Replay digest over the final table contents ------------------------
  uint32_t crc = 0;
  for (const std::string& key : all_keys) {
    client::ReadOptions ro;
    ro.all_versions = true;
    auto r = checker->Get(kTable, 0, key, ro);
    if (!r.ok()) {
      crc = FoldDigest(crc, key + "=<" + r.status().ToString() + ">");
      continue;
    }
    for (const tablet::ReadRow& row : r->rows) {
      crc = FoldDigest(crc, key);
      crc = FoldDigest(crc, "@" + std::to_string(row.timestamp) + "=");
      crc = FoldDigest(crc, row.value);
    }
  }
  report.table_digest = crc;

  LOGBASE_LOG(kInfo, "nemesis done: %d faults, %d/%d ops, %zu violations",
              report.faults_fired, report.ops_acked, report.ops_attempted,
              report.violations.size());
  return report;
}

}  // namespace logbase::fault
