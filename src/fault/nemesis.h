// The nemesis: runs a client workload against a MiniCluster while a
// FaultInjector fires a deterministic FaultPlan, then heals the cluster and
// checks safety invariants over the survivors:
//
//   I1 (durability)   — no acknowledged write is lost: every key's final
//                       value carries a sequence number >= the highest
//                       acknowledged one, and was actually attempted.
//   I2 (snapshots)    — historical reads are stable: samples taken during
//                       the run re-read identically via as-of reads.
//   I3 (replication)  — after the under-replication sweep every DFS block
//                       has min(replication, live nodes) live replicas, each
//                       actually holding the bytes.
//   I4 (election)     — exactly one running master is active, and it serves
//                       metadata (the failover actually completed).
//   I5 (ownership)    — every assigned tablet has exactly one live owner
//                       that hosts it unsealed, and no running server hosts
//                       a tablet it is not assigned (no orphans or dual
//                       owners after migrations/splits race the faults).
//   I6 (replica reads) — every replica-served read is a prefix-consistent
//                       snapshot of the primary's history: re-reading the
//                       key as-of the served version on the primary yields
//                       the same value, even after replica crashes — a
//                       replica never serves above its watermark and never
//                       invents or loses an acknowledged write.
//   I7 (QoS)          — quota enforcement stays deterministic and safe under
//                       faults: a shed write (admission rejected it with a
//                       retry-after hint, no retries) never appears in the
//                       table — not even partially — while admitted, acked
//                       writes from the throttled tenant survive like any
//                       other (covered by the I1 sweep). The shed count is
//                       part of the replay contract: equal across replays
//                       of the same (plan, seed).
//
// Everything runs single-threaded on the virtual clock, so the same
// (plan, seed) pair replays bit-identically — the report carries a digest
// of the final table contents to prove it.

#ifndef LOGBASE_FAULT_NEMESIS_H_
#define LOGBASE_FAULT_NEMESIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/fault/fault_injector.h"
#include "src/fault/retry_policy.h"
#include "src/util/result.h"

namespace logbase::fault {

struct NemesisOptions {
  int num_nodes = 5;
  int num_masters = 2;
  /// Seeds the workload's key/op choices and the client's retry jitter.
  uint64_t seed = 1;
  /// Workload rounds; each runs one client operation.
  int rounds = 300;
  /// Distinct keys in the workload (small so keys collide across faults).
  int keys = 48;
  /// Attempt an AddColumnGroup every this many rounds (0 disables DDL).
  int ddl_every = 97;
  /// Run the elastic balancer (migrations + splits) during the chaos run.
  /// Its operations race the fault schedule, exercising crash recovery of
  /// the migration/split protocols; I5 then checks ownership integrity.
  bool enable_balancer = false;
  /// Balancer tick cadence in rounds (when enabled).
  int balance_every = 20;
  /// Read-replica servers to run (0 disables the I6 machinery). Every
  /// group-0 tablet is attached to every replica; replica 0 is crashed at
  /// rounds/2 and restarted a tenth of the run later, exercising soft-state
  /// rebuild under the fault schedule.
  int num_replicas = 0;
  /// Multi-tenant QoS chaos (I7): when > 0, enables admission control on
  /// every tablet server, installs an op/sec quota of this rate for tenant
  /// "hostile", and runs a second client under that tenant issuing one
  /// fail-fast write per round (no retries). Writes above the quota are
  /// shed at the front door; I7 then checks that no shed write ever
  /// reached the table. 0 disables the machinery.
  double qos_hostile_ops_per_sec = 0.0;
  RetryOptions retry;
};

struct NemesisReport {
  /// Fired fault events in delivery order — equal across replays.
  std::vector<std::string> schedule;
  /// crc32c over the final table contents (all keys, all versions) —
  /// equal across replays of the same (plan, seed).
  uint32_t table_digest = 0;
  std::vector<std::string> violations;
  int ops_attempted = 0;
  int ops_acked = 0;
  int faults_fired = 0;
  /// Successful balancer operations during the run (0 unless
  /// `enable_balancer` was set). Deterministic per (plan, seed).
  int balancer_migrations = 0;
  int balancer_splits = 0;
  /// Stale-tolerant reads a replica actually served / that fell back to the
  /// primary (0 unless `num_replicas` was set). Deterministic per
  /// (plan, seed).
  int stale_reads_served = 0;
  int stale_read_fallbacks = 0;
  /// Hostile-tenant writes attempted / shed by admission control (0 unless
  /// `qos_hostile_ops_per_sec` was set). Deterministic per (plan, seed) —
  /// the I7 replay contract includes the shed count.
  int ops_hostile_attempted = 0;
  int ops_shed = 0;

  bool ok() const { return violations.empty(); }
  std::string ToString() const;
};

/// Builds a cluster, runs the workload with `plan` injected, heals, checks
/// the four invariants. An error Result means the harness itself failed
/// (could not boot or heal the cluster) — invariant failures are reported
/// in NemesisReport::violations, not as errors.
Result<NemesisReport> RunNemesis(const NemesisOptions& options,
                                 const FaultPlan& plan);

}  // namespace logbase::fault

#endif  // LOGBASE_FAULT_NEMESIS_H_
