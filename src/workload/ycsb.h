// YCSB core workload generator (paper §4.1/§4.3): 1 KB records, keys drawn
// from a zipfian distribution (coefficient 1.0 in the paper's setup,
// scattered over a 2e9 key domain), read/update mixes of 95%/75% update.

#ifndef LOGBASE_WORKLOAD_YCSB_H_
#define LOGBASE_WORKLOAD_YCSB_H_

#include <cstdint>
#include <string>

#include "src/util/random.h"

namespace logbase::workload {

struct YcsbOptions {
  /// Records loaded per run (the paper: 1M per node, scaled down here; the
  /// bench binaries print their scale).
  uint64_t record_count = 10000;
  size_t value_bytes = 1024;
  double update_proportion = 0.95;  // remainder are reads
};

class YcsbWorkload {
 public:
  explicit YcsbWorkload(YcsbOptions options, uint64_t seed = 42);

  enum class OpType { kRead, kUpdate };
  struct Op {
    OpType type;
    std::string key;
    std::string value;  // for updates
  };

  /// The i-th record's key (used for loading and for op generation).
  std::string KeyAt(uint64_t index) const;

  /// A value of `value_bytes` pseudo-random bytes.
  std::string MakeValue(Random* rnd) const;

  /// Draws the next operation (zipfian key choice over loaded records).
  Op NextOp(Random* rnd);

  const YcsbOptions& options() const { return options_; }

 private:
  const YcsbOptions options_;
  ScrambledZipfianGenerator key_chooser_;
};

}  // namespace logbase::workload

#endif  // LOGBASE_WORKLOAD_YCSB_H_
