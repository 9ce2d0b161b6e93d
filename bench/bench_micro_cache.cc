// Micro ablation — read-buffer replacement strategies (§3.6.2): the paper
// makes the replacement policy pluggable with LRU as the default; this
// bench compares LRU vs FIFO hit rates under zipfian and scan-heavy traces,
// and prints the Belady-OPT hit rate of each trace as the headroom any
// replacement policy could still claim. Exits 1 if a policy beats OPT.

#include <iterator>
#include <limits>
#include <set>
#include <vector>

#include "bench/common.h"
#include "src/tablet/read_buffer.h"

using namespace logbase;
using namespace logbase::bench;

namespace {

constexpr uint64_t kKeys = 10000;
constexpr size_t kCapacity = 2 << 20;  // holds ~2K of 10K records
constexpr size_t kValueBytes = 1024;

std::string Key(uint64_t id) { return "key" + std::to_string(id); }

/// The key ids a trace reads, in order.
std::vector<uint64_t> MakeTrace(bool scan_heavy) {
  ZipfianGenerator zipf(kKeys, 0.99);
  Random rnd(17);
  uint64_t scan_cursor = 0;
  std::vector<uint64_t> trace;
  for (int i = 0; i < 60000; i++) {
    if (scan_heavy && i % 4 == 0) {
      // Periodic sequential sweeps pollute the buffer.
      trace.push_back(scan_cursor++ % kKeys);
    } else {
      trace.push_back(zipf.Next(&rnd));
    }
  }
  return trace;
}

double RunTrace(std::unique_ptr<tablet::ReplacementPolicy> policy,
                const std::vector<uint64_t>& trace) {
  tablet::ReadBuffer buffer(kCapacity, std::move(policy));
  const std::string value(kValueBytes, 'v');
  for (uint64_t id : trace) {
    const std::string key = Key(id);
    tablet::CachedRecord rec;
    if (!buffer.Get(key, &rec)) {
      buffer.Put(key, tablet::CachedRecord{1, value});
    }
  }
  return static_cast<double>(buffer.hits()) /
         static_cast<double>(buffer.hits() + buffer.misses());
}

/// Belady's OPT: keep the records read again soonest, dropping the one
/// whose next read is farthest off (the one just read included). It gets
/// as many slots as the buffer holds of the smallest record, so no policy
/// on the same buffer can hit more often.
double OptHitRate(const std::vector<uint64_t>& trace) {
  const size_t slots = kCapacity / (Key(0).size() + kValueBytes);
  constexpr size_t kNever = std::numeric_limits<size_t>::max();
  std::vector<size_t> next_use(trace.size());
  std::vector<size_t> seen_at(kKeys, kNever);
  for (size_t i = trace.size(); i-- > 0;) {
    next_use[i] = seen_at[trace[i]];
    seen_at[trace[i]] = i;
  }
  std::set<std::pair<size_t, uint64_t>> cached;  // (next use, key id)
  uint64_t hits = 0;
  for (size_t i = 0; i < trace.size(); i++) {
    // A cached record is keyed by its next use, which is now.
    if (cached.erase({i, trace[i]}) > 0) hits++;
    cached.insert({next_use[i], trace[i]});
    if (cached.size() > slots) cached.erase(std::prev(cached.end()));
  }
  return static_cast<double>(hits) / static_cast<double>(trace.size());
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Micro: read buffer",
              "Replacement strategy hit rates (§3.6.2 pluggable policy)");
  const std::vector<uint64_t> zipfian = MakeTrace(false);
  const std::vector<uint64_t> scan = MakeTrace(true);
  const double opt[2] = {OptHitRate(zipfian), OptHitRate(scan)};
  std::printf("%-10s %18s %20s\n", "policy", "zipfian hit-rate",
              "zipfian+scan hit-rate");
  bool beats_opt = false;
  auto row = [&](const char* name, double z, double s) {
    std::printf("%-10s %17.1f%% %19.1f%%\n", name, z * 100, s * 100);
    beats_opt |= z > opt[0] || s > opt[1];
  };
  row("lru", RunTrace(tablet::MakeLruPolicy(), zipfian),
      RunTrace(tablet::MakeLruPolicy(), scan));
  row("fifo", RunTrace(tablet::MakeFifoPolicy(), zipfian),
      RunTrace(tablet::MakeFifoPolicy(), scan));
  row("opt", opt[0], opt[1]);
  PrintComponentBreakdown();
  PrintPaperClaim(
      "the read buffer's replacement strategy is an abstracted interface "
      "(LRU by default) so applications can plug in policies fitting their "
      "access patterns (§3.6.2); LRU keeps the zipfian hot set resident "
      "better than FIFO.");
  if (beats_opt) {
    std::fprintf(stderr, "FAIL: a policy beat Belady-OPT's hit rate\n");
    return 1;
  }
  return 0;
}
