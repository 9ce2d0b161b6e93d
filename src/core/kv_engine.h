// Engine-neutral facade over one storage server, letting the workload
// drivers and benchmarks run identical op streams against LogBase, the
// HBase baseline and LRS.

#ifndef LOGBASE_CORE_KV_ENGINE_H_
#define LOGBASE_CORE_KV_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/baselines/hbase/hbase_server.h"
#include "src/query/plan.h"
#include "src/tablet/tablet_server.h"

namespace logbase::core {

class KvEngine {
 public:
  virtual ~KvEngine() = default;

  virtual Status Put(const std::string& tablet_uid, const Slice& key,
                     const Slice& value) = 0;
  virtual Status PutBatch(
      const std::string& tablet_uid,
      const std::vector<std::pair<std::string, std::string>>& kvs) = 0;
  virtual Result<tablet::ReadValue> Get(const std::string& tablet_uid,
                                        const Slice& key) = 0;
  virtual Status Delete(const std::string& tablet_uid, const Slice& key) = 0;
  virtual Result<std::vector<tablet::ReadRow>> Scan(
      const std::string& tablet_uid, const Slice& start_key,
      const Slice& end_key) = 0;
  virtual const char* Name() const = 0;
};

/// LogBase (and LRS, which is a TabletServer with the LSM index).
class TabletServerEngine : public KvEngine {
 public:
  explicit TabletServerEngine(tablet::TabletServer* server, const char* name)
      : server_(server), name_(name) {}

  Status Put(const std::string& uid, const Slice& key,
             const Slice& value) override {
    return server_->Put(uid, key, value);
  }
  Status PutBatch(const std::string& uid,
                  const std::vector<std::pair<std::string, std::string>>& kvs)
      override {
    std::vector<tablet::WriteOp> ops;
    ops.reserve(kvs.size());
    for (const auto& [key, value] : kvs) ops.push_back({uid, key, value});
    auto batch = server_->Submit(std::move(ops));
    if (!batch.ok()) return batch.status();
    LOGBASE_RETURN_NOT_OK(server_->Wait(&*batch));
    return server_->Publish(*batch);
  }
  Result<tablet::ReadValue> Get(const std::string& uid,
                                const Slice& key) override {
    return server_->Get(uid, key);
  }
  Status Delete(const std::string& uid, const Slice& key) override {
    return server_->Delete(uid, key);
  }
  /// A match-all ExecuteScan: the server's one range read.
  Result<std::vector<tablet::ReadRow>> Scan(const std::string& uid,
                                            const Slice& start,
                                            const Slice& end) override {
    query::QueryPlan plan;
    plan.start_key = start.ToString();
    plan.end_key = end.ToString();
    auto result = server_->ExecuteScan(uid, plan);
    if (!result.ok()) return result.status();
    return tablet::RowsFromBatches(result->batches);
  }
  const char* Name() const override { return name_; }

  tablet::TabletServer* server() { return server_; }

 private:
  tablet::TabletServer* server_;
  const char* name_;
};

class HBaseEngine : public KvEngine {
 public:
  explicit HBaseEngine(baselines::hbase::HBaseServer* server)
      : server_(server) {}

  Status Put(const std::string& uid, const Slice& key,
             const Slice& value) override {
    return server_->Put(uid, key, value);
  }
  Status PutBatch(const std::string& uid,
                  const std::vector<std::pair<std::string, std::string>>& kvs)
      override {
    return server_->PutBatch(uid, kvs);
  }
  Result<tablet::ReadValue> Get(const std::string& uid,
                                const Slice& key) override {
    return server_->Get(uid, key);
  }
  Status Delete(const std::string& uid, const Slice& key) override {
    return server_->Delete(uid, key);
  }
  Result<std::vector<tablet::ReadRow>> Scan(const std::string& uid,
                                            const Slice& start,
                                            const Slice& end) override {
    return server_->Scan(uid, start, end);
  }
  const char* Name() const override { return "HBase"; }

  baselines::hbase::HBaseServer* server() { return server_; }

 private:
  baselines::hbase::HBaseServer* server_;
};

}  // namespace logbase::core

#endif  // LOGBASE_CORE_KV_ENGINE_H_
