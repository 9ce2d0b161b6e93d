#include "src/workload/driver.h"

#include "src/sim/scheduler.h"
#include "src/sstable/bloom_filter.h"

namespace logbase::workload {

std::function<int(const Slice&)> HashRouter(int num_nodes) {
  return [num_nodes](const Slice& key) {
    return static_cast<int>(sstable::BloomHash(key) % num_nodes);
  };
}

namespace {

/// Fills the makespan-derived fields once every client is done.
void Finish(sim::VirtualTime start, sim::VirtualTime end,
            DriverResult* result) {
  result->virtual_seconds = static_cast<double>(end - start) / 1e6;
  if (result->virtual_seconds > 0) {
    result->throughput_ops_per_sec =
        result->total_ops / result->virtual_seconds;
  }
}

}  // namespace

DriverResult ClosedLoopDriver::Load(const EngineCluster& cluster,
                                    sim::VirtualTime start,
                                    const YcsbWorkload& workload,
                                    uint64_t records_per_node,
                                    size_t batch_size) {
  const int nodes = static_cast<int>(cluster.engines.size());
  const uint64_t total_records = records_per_node * nodes;
  DriverResult result;

  using Batch = std::vector<std::pair<std::string, std::string>>;
  auto send_batch = [&](int loader, int target, Batch* batch) {
    uint64_t bytes = 0;
    for (const auto& [k, v] : *batch) bytes += k.size() + v.size();
    sim::ChargeRpc(cluster.network, loader, target, bytes, 0);
    Status s = cluster.engines[target]->PutBatch(cluster.tablet_uid(target),
                                                 *batch);
    if (!s.ok()) result.failed_ops++;
    result.total_ops += batch->size();
    batch->clear();
  };

  // One loader actor per node, each owning a stride of the record ordinals.
  // A step generates records until one destination bucket fills and ships
  // it; once the input is exhausted, the loader drains its partial buckets
  // and retires.
  sim::Scheduler sched;
  for (int l = 0; l < nodes; l++) {
    sched.Add(start, [&, l, next_index = static_cast<uint64_t>(l),
                      pending = std::vector<Batch>(nodes),
                      value_rnd = Random(991 + l)](sim::SimContext&) mutable {
      while (next_index < total_records) {
        std::string key = workload.KeyAt(next_index);
        next_index += nodes;
        int target = cluster.route(Slice(key));
        pending[target].emplace_back(std::move(key),
                                     workload.MakeValue(&value_rnd));
        if (pending[target].size() >= batch_size) {
          send_batch(l, target, &pending[target]);
          return true;
        }
      }
      for (int target = 0; target < nodes; target++) {
        if (!pending[target].empty()) send_batch(l, target, &pending[target]);
      }
      return false;
    });
  }
  Finish(start, sched.Run(), &result);
  return result;
}

DriverResult ClosedLoopDriver::RunYcsb(const EngineCluster& cluster,
                                       sim::VirtualTime start,
                                       YcsbWorkload* workload,
                                       uint64_t ops_per_client,
                                       uint64_t seed) {
  const int nodes = static_cast<int>(cluster.engines.size());
  DriverResult result;

  // One closed-loop client actor per node: a step is one op.
  sim::Scheduler sched;
  for (int c = 0; c < nodes; c++) {
    sched.Add(start, [&, c, rng = Random(seed * 7919 + c),
                      done = uint64_t{0}](sim::SimContext& ctx) mutable {
      if (done++ == ops_per_client) return false;
      YcsbWorkload::Op op = workload->NextOp(&rng);
      int target = cluster.route(Slice(op.key));
      sim::VirtualTime op_start = ctx.now();
      if (op.type == YcsbWorkload::OpType::kUpdate) {
        sim::ChargeRpc(cluster.network, c, target,
                       op.key.size() + op.value.size(), 0);
        Status s = cluster.engines[target]->Put(cluster.tablet_uid(target),
                                                Slice(op.key),
                                                Slice(op.value));
        if (!s.ok()) {
          result.failed_ops++;
        } else {
          result.update_latency_us.Add(
              static_cast<double>(ctx.now() - op_start));
        }
      } else {
        auto read = cluster.engines[target]->Get(cluster.tablet_uid(target),
                                                 Slice(op.key));
        sim::ChargeRpc(cluster.network, c, target, op.key.size(),
                       read.ok() ? read->value.size() : 0);
        if (read.ok()) {
          result.read_latency_us.Add(
              static_cast<double>(ctx.now() - op_start));
        } else {
          result.failed_ops++;
        }
      }
      result.total_ops++;
      return true;
    });
  }
  Finish(start, sched.Run(), &result);
  return result;
}

}  // namespace logbase::workload
