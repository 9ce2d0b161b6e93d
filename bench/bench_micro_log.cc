// Micro ablation — group commit (§3.7.2): virtual time per record when the
// log persists commit/log records in batches of 1..512 instead of
// individually. Also reports raw wall-clock append throughput.

#include "bench/common.h"
#include "src/log/log_writer.h"

using namespace logbase;
using namespace logbase::bench;

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Micro: group commit",
              "Per-record log persistence cost vs batch size (§3.7.2)");
  const uint64_t kRecords = 20000;
  std::printf("%10s %16s %18s\n", "batch", "us/record", "records/sec");
  for (size_t batch_size : {1ull, 8ull, 64ull, 256ull, 512ull}) {
    dfs::DfsOptions dfs_options;
    dfs_options.num_nodes = 3;
    dfs::Dfs dfs(dfs_options);
    dfs::DfsFileSystem fs(&dfs, 0);
    log::LogWriter writer(&fs, "/log", 0);
    if (!writer.Open().ok()) return 1;

    Random rnd(9);
    double seconds = TimedRun(QuiesceTime(&dfs), [&] {
      std::vector<log::LogRecord> batch;
      std::vector<log::LogPtr> ptrs;
      for (uint64_t i = 0; i < kRecords; i++) {
        log::LogRecord record;
        record.type = log::LogRecordType::kData;
        record.key.table_id = 1;
        record.row.primary_key = "key" + std::to_string(i);
        record.row.timestamp = i + 1;
        record.value = std::string(1024, 'v');
        batch.push_back(std::move(record));
        if (batch.size() >= batch_size) {
          if (!writer.AppendBatch(&batch, &ptrs).ok()) std::abort();
          batch.clear();
        }
      }
      if (!batch.empty() && !writer.AppendBatch(&batch, &ptrs).ok()) {
        std::abort();
      }
    });
    std::printf("%10zu %16.1f %18.0f\n", batch_size,
                seconds * 1e6 / kRecords, kRecords / seconds);
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "processing commit and log records in batches instead of individual "
      "log writes reduces the log persistence cost and improves write "
      "throughput (§3.7.2) — each batch pays the replication round-trip "
      "once.");
  return 0;
}
