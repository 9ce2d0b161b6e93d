#include "src/workload/ycsb.h"

#include <cstdio>

namespace logbase::workload {

namespace {
constexpr double kZipfConstant = 0.99;
/// Keys take values from this domain (paper: max key 2e9).
constexpr uint64_t kKeyDomain = 2000000000ull;
}  // namespace

YcsbWorkload::YcsbWorkload(YcsbOptions options, uint64_t seed)
    : options_(options),
      key_chooser_(options.record_count, kZipfConstant) {
  (void)seed;
}

std::string YcsbWorkload::KeyAt(uint64_t index) const {
  // YCSB scatters keys over the domain by hashing the ordinal so adjacent
  // loads do not produce adjacent keys.
  uint64_t hashed = index * 0x9e3779b97f4a7c15ull;
  hashed ^= hashed >> 29;
  hashed %= kKeyDomain;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "user%012llu",
                static_cast<unsigned long long>(hashed));
  return buf;
}

std::string YcsbWorkload::MakeValue(Random* rnd) const {
  std::string value;
  value.reserve(options_.value_bytes);
  while (value.size() + 8 <= options_.value_bytes) {
    uint64_t word = rnd->Next();
    value.append(reinterpret_cast<const char*>(&word), 8);
  }
  value.resize(options_.value_bytes, 'x');
  return value;
}

YcsbWorkload::Op YcsbWorkload::NextOp(Random* rnd) {
  Op op;
  uint64_t index = key_chooser_.Next(rnd);
  op.key = KeyAt(index);
  if (rnd->Bernoulli(options_.update_proportion)) {
    op.type = OpType::kUpdate;
    op.value = MakeValue(rnd);
  } else {
    op.type = OpType::kRead;
  }
  return op;
}

}  // namespace logbase::workload
