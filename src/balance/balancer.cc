#include "src/balance/balancer.h"

#include <cmath>
#include <vector>

#include "src/obs/metrics.h"

namespace logbase::balance {

namespace {

/// Act when the hottest server's smoothed score exceeds this multiple of
/// the cluster mean.
constexpr double kImbalanceRatio = 1.5;
/// Split instead of migrating when one tablet alone carries more than this
/// fraction of its server's score (moving it whole would only move the hot
/// spot).
constexpr double kSplitFraction = 0.6;
/// EWMA weight of the newest report window.
constexpr double kSmoothingAlpha = 0.6;

obs::Counter* BalanceCounter(const char* name) {
  return obs::MetricsRegistry::Global().counter(name);
}
}  // namespace

Balancer::Balancer(std::function<master::Master*()> master_resolver,
                   BalancerOptions options)
    : master_resolver_(std::move(master_resolver)),
      options_(options),
      rnd_(options.seed) {}

BalancerStats Balancer::stats() const {
  MutexLock l(mu_);
  return stats_;
}

Status Balancer::Tick() {
  MutexLock l(mu_);
  master::Master* m = master_resolver_();
  if (m == nullptr || !m->IsActiveMaster()) return Status::OK();
  stats_.ticks++;
  BalanceCounter("balance.tick")->Add();

  auto assignments = m->AssignmentsSnapshot();
  std::vector<int> live = m->LiveServers();

  // Drain every live server's load window. The servers aggregate per-tablet
  // op/byte counters between ticks; CollectLoadReport hands over the delta.
  std::map<std::string, double> fresh;  // uid -> this window's score
  for (int id : live) {
    tablet::TabletServer* server = m->RunningServer(id);
    if (server == nullptr) continue;
    LoadReport report = server->CollectLoadReport();
    for (const TabletLoad& t : report.tablets) {
      fresh[t.uid] += t.Score();
    }
  }

  // EWMA fold: smooth reported windows in, decay silent tablets toward
  // zero, forget tablets that are no longer assigned (migrated history or
  // closed split parents).
  for (auto it = tablet_score_.begin(); it != tablet_score_.end();) {
    if (assignments.count(it->first) == 0) {
      it = tablet_score_.erase(it);
      continue;
    }
    auto f = fresh.find(it->first);
    double window = f == fresh.end() ? 0.0 : f->second;
    it->second =
        kSmoothingAlpha * window + (1.0 - kSmoothingAlpha) * it->second;
    ++it;
  }
  for (const auto& [uid, score] : fresh) {
    if (tablet_score_.count(uid) == 0 && assignments.count(uid) > 0) {
      tablet_score_[uid] = score;
    }
  }

  // Per-server smoothed score + tablet count over live servers.
  std::map<int, double> server_score;
  std::map<int, int> server_tablets;
  for (int id : live) {
    server_score[id] = 0.0;
    server_tablets[id] = 0;
  }
  for (const auto& [uid, location] : assignments) {
    auto it = server_score.find(location.server_id);
    if (it == server_score.end()) continue;  // dead owner; failover pending
    server_tablets[location.server_id]++;
    auto score = tablet_score_.find(uid);
    if (score != tablet_score_.end()) it->second += score->second;
  }

  // Feed the master's placement tie-break (CreateTable, failover scatter).
  {
    std::map<int, double> hint = server_score;
    m->set_load_hint([hint](int id) {
      auto it = hint.find(id);
      return it == hint.end() ? 0.0 : it->second;
    });
  }

  if (server_score.size() < 2) return Status::OK();
  double total = 0.0;
  for (const auto& [id, score] : server_score) total += score;
  if (total < options_.min_total_score) return Status::OK();
  const double mean = total / static_cast<double>(server_score.size());

  int hot = -1;
  double hot_score = -1.0;
  for (const auto& [id, score] : server_score) {
    if (score > hot_score) {
      hot = id;
      hot_score = score;
    }
  }
  if (hot_score <= kImbalanceRatio * mean) return Status::OK();

  // Coldest server: lowest score, then fewest tablets; exact ties broken by
  // the seeded generator so an idle fleet doesn't pile onto the lowest id.
  std::vector<int> coldest;
  double cold_score = 0.0;
  for (const auto& [id, score] : server_score) {
    if (id == hot) continue;
    if (coldest.empty() || score < cold_score ||
        (score == cold_score &&
         server_tablets[id] < server_tablets[coldest.front()])) {
      coldest.assign(1, id);
      cold_score = score;
    } else if (score == cold_score &&
               server_tablets[id] == server_tablets[coldest.front()]) {
      coldest.push_back(id);
    }
  }
  if (coldest.empty()) return Status::OK();
  const int cold =
      coldest[static_cast<size_t>(rnd_.Uniform(coldest.size()))];

  // The hot server's tablets, and its single hottest one.
  std::string top_uid;
  double top_score = -1.0;
  std::vector<std::pair<std::string, double>> hot_tablets;
  for (const auto& [uid, location] : assignments) {
    if (location.server_id != hot) continue;
    auto it = tablet_score_.find(uid);
    double score = it == tablet_score_.end() ? 0.0 : it->second;
    hot_tablets.emplace_back(uid, score);
    if (score > top_score) {
      top_uid = uid;
      top_score = score;
    }
  }
  if (hot_tablets.empty()) return Status::OK();

  if (options_.enable_splits && top_score > kSplitFraction * hot_score) {
    // One tablet dominates its server: migrating it whole only moves the
    // hot spot, so split it and hand the right half to the coldest server.
    tablet::TabletServer* owner = m->RunningServer(hot);
    if (owner != nullptr) {
      auto key = owner->SuggestSplitKey(top_uid);
      if (key.ok()) {
        Status s = m->SplitTablet(top_uid, *key, cold);
        if (s.ok()) {
          stats_.splits++;
          BalanceCounter("balance.split")->Add();
          return Status::OK();
        }
        stats_.failures++;
        return s;
      }
    }
    // No interior split key (single hot row): fall through to migration.
  }

  // Migrate the tablet whose score lands closest to half the hot-cold gap —
  // enough to matter, not enough to flip the imbalance around.
  const double want = (hot_score - cold_score) / 2.0;
  std::string pick;
  double pick_delta = 0.0;
  for (const auto& [uid, score] : hot_tablets) {
    double delta = std::abs(score - want);
    if (pick.empty() || delta < pick_delta) {
      pick = uid;
      pick_delta = delta;
    }
  }
  Status s = m->MigrateTablet(pick, cold);
  if (s.ok()) {
    stats_.migrations++;
    BalanceCounter("balance.migration")->Add();
    return Status::OK();
  }
  stats_.failures++;
  return s;
}

}  // namespace logbase::balance
