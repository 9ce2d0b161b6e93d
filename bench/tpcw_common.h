// Shared TPC-W experiment (Figures 15/16, paper §4.4): a webshop on a
// LogBase cluster. Read-only transactions query one product from the item
// table; update transactions read the customer's shopping cart and write an
// order. Cart and order keys share the customer prefix, so update
// transactions stay single-server (entity-group clustering, §3.2).

#ifndef LOGBASE_BENCH_TPCW_COMMON_H_
#define LOGBASE_BENCH_TPCW_COMMON_H_

#include "bench/common.h"
#include "bench/mixed_common.h"
#include "src/sstable/bloom_filter.h"
#include "src/txn/transaction_manager.h"
#include "src/workload/tpcw.h"

namespace logbase::bench {

struct TpcwResult {
  double latency_ms = 0;
  double tps = 0;
  uint64_t aborted = 0;
};

inline TpcwResult RunTpcw(int nodes, workload::TpcwMix mix,
                          uint64_t txns_per_client) {
  const uint64_t items_per_node = ClusterRecordsPerNode();
  const uint64_t customers_per_node = ClusterRecordsPerNode();

  LogBaseCluster fixture(nodes);
  // Two tables per server: items and customer data (carts + orders).
  std::vector<std::string> item_uid(nodes), cust_uid(nodes);
  for (int i = 0; i < nodes; i++) {
    tablet::TabletDescriptor item;
    item.table_id = 2;
    item.table_name = "item";
    item.range_id = i;
    item_uid[i] = item.uid();
    if (!fixture.servers[i]->OpenTablet(item).ok()) std::abort();
    tablet::TabletDescriptor cust;
    cust.table_id = 3;
    cust.table_name = "customer";
    cust.range_id = i;
    cust_uid[i] = cust.uid();
    if (!fixture.servers[i]->OpenTablet(cust).ok()) std::abort();
  }
  auto route = [nodes](const Slice& key) {
    return static_cast<int>(sstable::BloomHash(key) % nodes);
  };
  // Customer routing by prefix so cart+orders co-locate.
  auto route_customer = [&](const std::string& key) {
    return route(Slice(key.data(), 14));  // "cust%010llu"
  };

  workload::TpcwOptions topts;
  topts.item_count = items_per_node * nodes;
  topts.customer_count = customers_per_node * nodes;
  workload::TpcwWorkload generator(topts);

  // Bulk load items and carts.
  {
    Random rnd(11);
    std::vector<std::vector<std::pair<std::string, std::string>>> item_batches(
        nodes), cust_batches(nodes);
    auto flush_batches = [&](auto& batches, const std::vector<std::string>&
                                                 uids) {
      for (int i = 0; i < nodes; i++) {
        if (batches[i].empty()) continue;
        core::TabletServerEngine engine(fixture.servers[i].get(), "LogBase");
        if (!engine.PutBatch(uids[i], batches[i]).ok()) std::abort();
        batches[i].clear();
      }
    };
    for (uint64_t i = 0; i < topts.item_count; i++) {
      std::string key = generator.ItemKey(i);
      item_batches[route(Slice(key))].emplace_back(std::move(key),
                                                   generator.MakeValue(&rnd));
      if (i % 5000 == 4999) flush_batches(item_batches, item_uid);
    }
    flush_batches(item_batches, item_uid);
    for (uint64_t c = 0; c < topts.customer_count; c++) {
      std::string key = generator.CartKey(c);
      cust_batches[route_customer(key)].emplace_back(
          std::move(key), generator.MakeValue(&rnd));
      if (c % 5000 == 4999) flush_batches(cust_batches, cust_uid);
    }
    flush_batches(cust_batches, cust_uid);
  }

  // One transaction client actor per node, closed loop: a step is one
  // transaction.
  const sim::VirtualTime start =
      QuiesceTime(fixture.dfs.get(), fixture.network.get());
  std::vector<std::unique_ptr<txn::TransactionManager>> managers;
  for (int c = 0; c < nodes; c++) {
    managers.push_back(std::make_unique<txn::TransactionManager>(
        &fixture.coord, c, [&fixture](const std::string& uid) {
          for (auto& server : fixture.servers) {
            if (server->FindTablet(uid) != nullptr) return server.get();
          }
          return static_cast<tablet::TabletServer*>(nullptr);
        }));
  }

  TpcwResult result;
  Histogram latency;
  sim::Scheduler sched;
  for (int c = 0; c < nodes; c++) {
    sched.Add(start, [&, c, rng = Random(300 + c),
                      done = uint64_t{0}](sim::SimContext& ctx) mutable {
      if (done++ == txns_per_client) return false;
      txn::TransactionManager* manager = managers[c].get();
      workload::TpcwWorkload::Txn spec = generator.NextTxn(&rng, mix);
      sim::VirtualTime begin = ctx.now();
      auto txn = manager->Begin();
      Status outcome = Status::OK();
      if (spec.update) {
        int node = route_customer(spec.cart_key);
        auto cart =
            manager->Read(txn.get(), cust_uid[node], Slice(spec.cart_key));
        if (cart.ok() || cart.status().IsNotFound()) {
          Status w = manager->Write(txn.get(), cust_uid[node],
                                    Slice(spec.order_key),
                                    Slice(spec.order_value));
          outcome = w.ok() ? manager->Commit(txn.get()) : w;
        } else {
          outcome = cart.status();
        }
      } else {
        int node = route(Slice(spec.item_key));
        auto item =
            manager->Read(txn.get(), item_uid[node], Slice(spec.item_key));
        outcome = item.ok() || item.status().IsNotFound()
                      ? manager->Commit(txn.get())
                      : item.status();
      }
      if (!outcome.ok()) {
        manager->Abort(txn.get());
        result.aborted++;
      }
      latency.Add(static_cast<double>(ctx.now() - begin));
      return true;
    });
  }
  const double makespan = static_cast<double>(sched.Run() - start) / 1e6;
  result.latency_ms = latency.Average() / 1000.0;
  result.tps = makespan > 0
                   ? static_cast<double>(txns_per_client) * nodes / makespan
                   : 0;
  return result;
}

}  // namespace logbase::bench

#endif  // LOGBASE_BENCH_TPCW_COMMON_H_
