// The LogBase benchmark: command line, repetitions, pooling and reporting.
//
//   logbase_perfbench --workload <point_read|ingest_recover|htap_transfer>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     [--spans-dir <dir>]
//   logbase_perfbench --self-test [--seed <n>]
//
// A run measures one workload. Each repetition (boot + load + warm-up +
// measured phase on a fresh cluster) runs in a process of its own, on one of
// kParts input streams derived from --seed. Repetitions continue, cycling
// through the parts, until --seconds of host time have passed and every part
// has run once. Virtual-clock metrics pool the parts' samples and are
// bit-identical for a seed; a part that runs twice must repeat itself bit for
// bit. Host metrics are medians over repetitions, except host_ops_s (the
// fastest repetition). --trace 1 pairs each
// untraced repetition with a traced one and reports per-layer metrics
// instead of end-to-end ones. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A failed correctness check prints its name and exits with status 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Independent input streams per seed; their samples are pooled.
constexpr int kParts = 4;
/// Stop starting repetitions after this long, whatever --seconds says.
constexpr double kMaxRunSeconds = 100;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  int part = -1;  // >= 0: run one repetition of this part and serialize it
  bool traced_rep = false;
  std::string spans_dir;
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <point_read|ingest_recover|htap_transfer> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]\n"
               "       %s --self-test [--seed <n>]\n",
               argv0, argv0);
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) Usage(argv[0]);
    std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--spans-dir") {
      a.spans_dir = v;
    } else if (flag == "--part") {
      a.part = std::atoi(v.c_str());
    } else if (flag == "--traced") {
      a.traced_rep = v == "1";
    } else {
      Usage(argv[0]);
    }
  }
  const auto& names = WorkloadNames();
  if (!a.self_test &&
      std::find(names.begin(), names.end(), a.workload) == names.end()) {
    Usage(argv[0]);
  }
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Why each workload exists (mirrors BENCHMARK.json).
const char* Why(const std::string& workload) {
  if (workload == "point_read") {
    return "read path: routing, index probe, read buffer, log read, DFS pread, "
           "disk seek; zipfian Gets on data ~4x the read buffers while writes "
           "and recovery idle";
  }
  if (workload == "ingest_recover") {
    return "write path: PutBatch coalescing, group commit, quorum DFS "
           "replication, then checkpoint and crash recovery; the read path "
           "idles";
  }
  return "MVOCC transfers, some across two servers, beside pushed-down SUM "
         "and filter queries half served by a read replica: the query, txn "
         "and replica layers";
}

// ---------------------------------------------------------------------------
// Per-layer metrics: name, unit, the end-to-end metric each should
// move and on which workload, and the workloads that exercise it at all.
// ---------------------------------------------------------------------------

struct LayerMetric {
  const char* name;
  const char* unit;
  const char* target;  // end-to-end metric and workload it should move
  const char* scope;   // workloads where the layer does work
};

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> metrics = {
      {"sim.disk.util_max", "ratio", "throughput_ops_s on all", "all"},
      {"sim.disk.util_mean", "ratio", "throughput_ops_s on all", "all"},
      {"sim.nic_tx.util_max", "ratio", "throughput_ops_s on all", "all"},
      {"sim.nic_rx.util_max", "ratio", "throughput_ops_s on all", "all"},
      {"log.batch_records", "count",
       "write_p99_us, throughput_ops_s on ingest_recover", "all"},
      {"log.append_us.avg", "us",
       "write_p99_us, throughput_ops_s on ingest_recover", "all"},
      {"log.append_us.p99", "us",
       "write_p99_us, throughput_ops_s on ingest_recover", "all"},
      {"log.quorum_wait_us.avg", "us",
       "write_p99_us, throughput_ops_s on ingest_recover", "all"},
      {"log.read_us.avg", "us",
       "get_p99_us on point_read; scan_p50_us on htap_transfer",
       "point_read (read-buffer misses)"},
      {"dfs.write_amp", "ratio",
       "write_p50_us, space_amp on ingest_recover", "all"},
      {"dfs.pread_per_get", "count", "get_p99_us on point_read",
       "point_read (the only workload with Gets)"},
      {"dfs.pread_us.avg", "us", "get_p99_us on point_read", "all"},
      {"dfs.pread_bytes_per_get", "bytes", "get_p99_us on point_read",
       "point_read (the only workload with Gets)"},
      {"tablet.read_buffer.hit_ratio", "ratio",
       "get_p50_us on point_read; scan_p50_us on htap_transfer",
       "point_read, htap_transfer"},
      {"tablet.checkpoint_us", "us", "recovery_s on ingest_recover",
       "ingest_recover (the only workload that checkpoints)"},
      {"tablet.recovery.redo_records", "count",
       "recovery_s on ingest_recover",
       "ingest_recover (the only workload that crashes a server)"},
      {"tablet.recovery.redo_bytes", "bytes",
       "recovery_s on ingest_recover",
       "ingest_recover (the only workload that crashes a server)"},
      {"tablet.recovery.checkpoint_entries", "count",
       "recovery_s on ingest_recover",
       "ingest_recover (the only workload that crashes a server)"},
      {"index.probe_us.avg", "us", "get_p50_us on point_read",
       "point_read, htap_transfer (reads probe the index)"},
      {"index.probe_depth.avg", "count", "get_p50_us on point_read",
       "point_read, htap_transfer (reads probe the index)"},
      {"query.rows_scanned_per_returned", "ratio",
       "scan_p50_us on htap_transfer",
       "htap_transfer (the only workload with queries)"},
      {"query.bytes_shipped_per_query", "bytes",
       "scan_p50_us on htap_transfer",
       "htap_transfer (the only workload with queries)"},
      {"txn.commit_ratio", "ratio",
       "txn_p99_us, error_rate on htap_transfer",
       "htap_transfer (the only workload with transactions)"},
      {"txn.validation_failures", "count",
       "txn_p99_us, error_rate on htap_transfer",
       "htap_transfer (the only workload with transactions)"},
      {"txn.lock_failures", "count",
       "txn_p99_us, error_rate on htap_transfer",
       "htap_transfer; commits run within one scheduler step, so write "
       "locks never meet"},
      {"txn.commit_us.avg", "us",
       "txn_p99_us, error_rate on htap_transfer",
       "htap_transfer (the only workload with transactions)"},
      {"replica.served_share", "ratio",
       "scan_p99_us, txn_p99_us on htap_transfer",
       "htap_transfer (the only workload with replicas)"},
      {"replica.fallbacks", "count",
       "scan_p99_us, txn_p99_us on htap_transfer",
       "htap_transfer (the only workload with replicas)"},
      {"replica.watermark_lag_us", "us",
       "scan_p99_us, txn_p99_us on htap_transfer",
       "htap_transfer (the only workload with replicas)"},
      {"replica.tick_us", "us",
       "scan_p99_us, txn_p99_us on htap_transfer",
       "htap_transfer (the only workload with replicas)"},
      {"host.ns_per_op.get", "ns", "host_ops_s on point_read",
       "point_read (the only workload with Gets)"},
      {"host.ns_per_op.write", "ns", "host_ops_s on ingest_recover",
       "point_read, ingest_recover"},
      {"host.ns_per_op.scan", "ns", "host_ops_s on htap_transfer",
       "htap_transfer (the only workload with queries)"},
      {"host.ns_per_op.txn", "ns", "host_ops_s on htap_transfer",
       "htap_transfer (the only workload with transactions)"},
      {"host.ns_per_op.growth", "ratio", "host_ops_s on all", "all"},
      {"host.recovery_s", "s",
       "setup_s, host_ops_s on ingest_recover",
       "ingest_recover (the only workload that crashes a server)"},
      {"host.checkpoint_s", "s",
       "setup_s, host_ops_s on ingest_recover",
       "ingest_recover (the only workload that checkpoints)"},
      {"host.tracing_overhead", "ratio", "none (cost of tracing)",
       "all"},
      {"trace.self_host_us_per_op.client", "us",
       "host_ops_s on all", "all"},
      {"trace.self_host_us_per_op.bench", "us",
       "host_ops_s on all (benchmark-side work)", "all"},
  };
  return metrics;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The input stream of one part of a seed.
uint64_t PartSeed(uint64_t seed, int part) {
  return seed * kParts + static_cast<uint64_t>(part);
}

/// Compares two repetitions of one part; names the first mismatch.
void CheckSame(const RepResult& a, const RepResult& b, uint64_t seed, int part,
               std::vector<std::string>* failures) {
  auto fail = [&](const std::string& what, double x, double y) {
    failures->push_back("check determinism failed: " + what + " reads " +
                        Num(x) + " then " + Num(y) +
                        " in repetitions of seed " +
                        std::to_string(seed) + " part " + std::to_string(part));
  };
  auto same_map = [&](const std::map<std::string, double>& x,
                      const std::map<std::string, double>& y) {
    for (const auto& [name, v] : x) {
      auto it = y.find(name);
      if (it == y.end() || it->second != v) {
        fail(name, v, it == y.end() ? 0 : it->second);
        return false;
      }
    }
    if (x.size() != y.size()) {
      fail("metric count", static_cast<double>(x.size()),
           static_cast<double>(y.size()));
      return false;
    }
    return true;
  };
  if (a.span_us != b.span_us) return fail("span_us", a.span_us, b.span_us);
  if (a.calls != b.calls || a.call_errors != b.call_errors) {
    return fail("call errors", static_cast<double>(a.call_errors),
                static_cast<double>(b.call_errors));
  }
  for (const auto& [kind, values] : a.latency) {
    auto it = b.latency.find(kind);
    if (it == b.latency.end() || it->second != values) {
      return fail(kind + " latency samples", static_cast<double>(values.size()),
                  it == b.latency.end()
                      ? 0
                      : static_cast<double>(it->second.size()));
    }
  }
  for (const auto& [name, m] : a.virt) {
    auto it = b.virt.find(name);
    if (it == b.virt.end() || it->second.value != m.value) {
      return fail(name, m.value, it == b.virt.end() ? 0 : it->second.value);
    }
  }
  if (!same_map(a.layers, b.layers) || !same_map(a.props, b.props) ||
      !same_map(a.fingerprint, b.fingerprint)) {
    return;
  }
  if (a.bottleneck != b.bottleneck) fail("bottleneck resource", 0, 1);
}

/// Runs one repetition in a fresh process of this program, so heap layout
/// (and anything in the program that orders by address) starts the same
/// every time, and reads its result back through a pipe.
RepResult SpawnRep(const std::string& workload, uint64_t seed, int part,
                   bool traced, const std::string& spans_dir) {
  RepResult rep;
  char exe[4096];
  ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    rep.failures.push_back("check rep_process failed: cannot locate self");
    return rep;
  }
  exe[n] = '\0';
  std::string cmd = std::string("'") + exe + "' --workload " + workload +
                    " --seed " + std::to_string(seed) + " --part " +
                    std::to_string(part) + " --traced " + (traced ? "1" : "0");
  if (traced && !spans_dir.empty()) cmd += " --spans-dir '" + spans_dir + "'";
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    rep.failures.push_back("check rep_process failed: cannot start " + cmd);
    return rep;
  }
  std::string text;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    text.append(buf, got);
  }
  const int status = pclose(pipe);
  if (!ParseRep(text, &rep) || status != 0) {
    rep.failures.push_back("check rep_process failed: repetition exited with "
                           "status " + std::to_string(status));
  }
  return rep;
}

struct Rep {
  int part;
  bool traced;
  RepResult result;
};

struct RunSummary {
  std::vector<Rep> reps;
  std::vector<std::string> failures;
};

/// Repeats the workload: untraced runs cycle through the parts; traced runs
/// pair each untraced repetition with a traced one of the same part.
RunSummary Repeat(const Args& args) {
  RunSummary s;
  const int64_t start = HostNs();
  const int min_reps = args.trace ? 2 : kParts;
  std::map<int, size_t> first_of_part;
  for (int i = 0;; i++) {
    const double elapsed = static_cast<double>(HostNs() - start) / 1e9;
    if (i >= min_reps &&
        (elapsed >= args.seconds || elapsed >= kMaxRunSeconds)) {
      break;
    }
    const bool traced = args.trace && i % 2 == 1;
    const int part = (args.trace ? i / 2 : i) % kParts;
    RepResult rep = SpawnRep(args.workload, args.seed, part, traced,
                             args.spans_dir);
    std::printf("  rep %2d part %d%s  setup %.3f s  measured %.3f s host  "
                "%.0f ops/s host  rss %.1f MB\n",
                i, part, traced ? " traced" : "       ", rep.setup_s,
                rep.phase_host_s,
                rep.phase_host_s > 0
                    ? static_cast<double>(rep.attempted) / rep.phase_host_s
                    : 0,
                rep.rss_mb);
    std::fflush(stdout);
    auto first = first_of_part.find(part);
    if (first != first_of_part.end()) {
      CheckSame(s.reps[first->second].result, rep, args.seed, part,
                &s.failures);
    } else {
      first_of_part[part] = s.reps.size();
    }
    for (const std::string& f : rep.failures) s.failures.push_back(f);
    s.reps.push_back(Rep{part, traced, std::move(rep)});
    if (!s.failures.empty()) break;
  }
  return s;
}

/// Virtual end-to-end metrics pooled over the distinct parts that ran.
std::map<std::string, Metric> Pool(const RunSummary& s) {
  std::map<std::string, Metric> out;
  std::map<std::string, std::vector<double>> latency;
  std::map<std::string, std::vector<double>> other;
  std::map<std::string, std::string> other_unit;
  double span_us = 0, completed = 0, calls = 0, errors = 0;
  std::vector<bool> seen(kParts, false);
  for (const Rep& rep : s.reps) {
    if (seen[rep.part]) continue;
    seen[rep.part] = true;
    const RepResult& r = rep.result;
    for (const auto& [kind, values] : r.latency) {
      auto& pooled = latency[kind];
      pooled.insert(pooled.end(), values.begin(), values.end());
    }
    for (const auto& [name, m] : r.virt) {
      other[name].push_back(m.value);
      other_unit[name] = m.unit;
    }
    span_us += r.span_us;
    completed += static_cast<double>(r.completed);
    calls += static_cast<double>(r.calls);
    errors += static_cast<double>(r.call_errors);
  }
  out["throughput_ops_s"] =
      Metric{span_us > 0 ? completed / (span_us / 1e6) : 0, "1/s", 0};
  out["error_rate"] = Metric{calls > 0 ? errors / calls : 0, "ratio",
                             static_cast<uint64_t>(calls)};
  for (const auto& [kind, values] : latency) {
    Samples samples(values);
    out[kind + "_mean_us"] = Metric{samples.Mean(), "us", samples.size()};
    for (double p : {50.0, 99.0}) {
      if (!samples.Supports(p)) continue;
      out[kind + (p == 50.0 ? "_p50_us" : "_p99_us")] =
          Metric{samples.Percentile(p), "us", samples.size()};
    }
  }
  for (const auto& [name, values] : other) {
    double sum = 0;
    for (double v : values) sum += v;
    out[name] = Metric{sum / static_cast<double>(values.size()),
                       other_unit[name], 0};
  }
  return out;
}

void PrintEndToEnd(const std::map<std::string, Metric>& virt, int parts,
                   double host_ops_s, double setup_s, double rss_mb,
                   size_t reps) {
  std::printf("-- end-to-end, virtual clock (pooled over %d parts; "
              "bit-identical for a seed) --\n", parts);
  for (const auto& [name, m] : virt) {
    std::printf("  %-22s %14.3f %-6s", name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) {
      std::printf(" n=%llu", static_cast<unsigned long long>(m.samples));
    }
    std::printf("\n");
  }
  std::printf("  (a percentile prints only with >= 10 samples beyond it)\n");
  std::printf("-- end-to-end, host clock (%zu repetitions) --\n", reps);
  std::printf("  %-22s %14.1f 1/s (fastest repetition)\n", "host_ops_s",
              host_ops_s);
  std::printf("  %-22s %14.3f s (median)\n", "setup_s", setup_s);
  std::printf("  %-22s %14.1f MB (median)\n", "peak_rss_mb", rss_mb);
}

int Main(const Args& args) {
  std::printf("workload %s  seed %llu  (%s)\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              Why(args.workload));
  RunSummary s = Repeat(args);

  std::vector<double> setup, host_ops, untraced_s, traced_s, rss;
  std::map<std::string, std::vector<double>> host_layers;
  uint64_t attempted = 0, failed = 0;
  std::vector<bool> parts_seen(kParts, false);
  for (const Rep& rep : s.reps) {
    const RepResult& r = rep.result;
    setup.push_back(r.setup_s);
    attempted += r.attempted;
    failed += r.failed;
    parts_seen[rep.part] = true;
    (rep.traced ? traced_s : untraced_s).push_back(r.phase_host_s);
    if (rep.traced) continue;
    host_ops.push_back(r.phase_host_s > 0
                           ? static_cast<double>(r.attempted) / r.phase_host_s
                           : 0);
    rss.push_back(r.rss_mb);
    for (const auto& [name, v] : r.host) host_layers[name].push_back(v);
  }
  const int parts = static_cast<int>(
      std::count(parts_seen.begin(), parts_seen.end(), true));
  // A neighbour's load on a shared machine only ever slows a repetition
  // down, so the fastest repetition is the steadiest host-speed estimate.
  const double host_ops_s =
      host_ops.empty()
          ? 0
          : *std::max_element(host_ops.begin(), host_ops.end());
  const double setup_s = Median(setup);
  const double rss_mb = Median(rss);
  const std::map<std::string, Metric> virt = Pool(s);
  const RepResult& first = s.reps.front().result;

  std::map<std::string, double> metrics;
  std::map<std::string, std::string> units;
  if (!args.trace) {
    PrintEndToEnd(virt, parts, host_ops_s, setup_s, rss_mb, s.reps.size());
    std::printf("-- input properties (part 0) --\n");
    for (const auto& [name, v] : first.props) {
      std::printf("  %-34s %.4f\n", name.c_str(), v);
    }
    std::printf("  bottleneck resource (part 0): %s\n",
                first.bottleneck.c_str());
    const std::string kind = HeadlineLatency(args.workload);
    std::printf("  lat_mean_us / lat_p99_us below are the %s latency\n",
                kind.c_str());
    auto headline = [&](const std::string& name, const char* as) {
      auto it = virt.find(name);
      if (it == virt.end()) {
        s.failures.push_back("check samples failed: " + name +
                             " has fewer than 10 samples beyond it");
        return;
      }
      metrics[as] = it->second.value;
      units[as] = it->second.unit;
    };
    headline("throughput_ops_s", "throughput_ops_s");
    headline(kind + "_mean_us", "lat_mean_us");
    headline(kind + "_p99_us", "lat_p99_us");
    metrics["host_ops_s"] = host_ops_s;
    units["host_ops_s"] = "1/s";
    metrics["peak_rss_mb"] = rss_mb;
    units["peak_rss_mb"] = "MB";
    metrics["setup_s"] = setup_s;
    units["setup_s"] = "s";
  } else {
    std::map<std::string, double> values = first.layers;
    for (const auto& [name, v] : host_layers) values[name] = Median(v);
    values["host.tracing_overhead"] =
        Median(untraced_s) > 0 ? Median(traced_s) / Median(untraced_s) : 0;
    const RepResult* traced = nullptr;
    for (const Rep& rep : s.reps) {
      if (rep.traced) traced = &rep.result;
    }
    const std::map<std::string, Tracer::LayerSelf> self =
        traced != nullptr ? traced->self_time
                          : std::map<std::string, Tracer::LayerSelf>{};
    const double ops =
        traced != nullptr
            ? static_cast<double>(std::max<uint64_t>(1, traced->attempted))
            : 1;
    for (const char* layer : {"client", "bench"}) {
      auto it = self.find(layer);
      values[std::string("trace.self_host_us_per_op.") + layer] =
          it != self.end() ? it->second.host_ns / 1e3 / ops : 0;
    }
    std::printf("-- per-layer (virtual: part 0, identical traced and "
                "untraced; host: median of untraced repetitions) --\n");
    for (const LayerMetric& m : LayerMetrics()) {
      const double v = values[m.name];
      std::printf("  %-36s %14.4f %-6s -> %s", m.name, v, m.unit, m.target);
      if (v == 0) std::printf("  [0: exercised on %s]", m.scope);
      std::printf("\n");
      metrics[m.name] = v;
      units[m.name] = m.unit;
    }
    std::printf("  bottleneck resource: %s\n", first.bottleneck.c_str());
    std::printf("-- traced repetition: self time per layer (spans around "
                "each call the benchmark makes into a module) --\n");
    std::printf("  %-8s %10s %16s %16s %14s\n", "layer", "spans",
                "virtual_self_us", "host_self_ms", "host_us/op");
    for (const auto& [layer, l] : self) {
      std::printf("  %-8s %10llu %16.0f %16.3f %14.3f\n", layer.c_str(),
                  static_cast<unsigned long long>(l.spans), l.virtual_us,
                  l.host_ns / 1e6, l.host_ns / 1e3 / ops);
    }
    std::printf("  measured phase: untraced %.4f s host, traced %.4f s "
                "(host.tracing_overhead %.3f)\n",
                Median(untraced_s), Median(traced_s),
                values["host.tracing_overhead"]);
    std::printf("-- end-to-end of the same repetitions, for comparison "
                "(host metrics include traced repetitions' set-up) --\n");
    PrintEndToEnd(virt, parts, host_ops_s, setup_s, rss_mb, s.reps.size());
    if (!args.spans_dir.empty()) {
      std::printf("  spans of the last traced repetition: %s/spans-%s-seed%llu"
                  "-part%d.jsonl\n",
                  args.spans_dir.c_str(), args.workload.c_str(),
                  static_cast<unsigned long long>(args.seed),
                  s.reps.back().part);
    }
  }

  const bool correct = s.failures.empty();
  for (const std::string& f : s.failures) {
    std::printf("%s\n", f.c_str());
    std::fprintf(stderr, "%s\n", f.c_str());
  }
  std::printf("checks: %s\n", correct ? "all passed" : "FAILED");
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool comma = false;
  for (const auto& [name, v] : metrics) {
    json += std::string(comma ? ", " : "") + "\"" + name + "\": {\"value\": " +
            Num(v) + ", \"unit\": \"" + units[name] + "\"}";
    comma = true;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

/// One repetition of one part, in this process; prints the serialized result.
int RunRep(const Args& args) {
  Tracer tracer;
  RepResult rep = RunWorkload(args.workload, PartSeed(args.seed, args.part),
                              args.traced_rep ? &tracer : nullptr);
  rep.rss_mb = PeakRssMb();
  if (args.traced_rep) {
    rep.self_time = tracer.SelfTimeByLayer();
    if (!args.spans_dir.empty()) {
      const std::string path = args.spans_dir + "/spans-" + args.workload +
                               "-seed" + std::to_string(args.seed) + "-part" +
                               std::to_string(args.part) + ".jsonl";
      if (!tracer.WriteJsonl(path)) {
        rep.failures.push_back("check spans_written failed: " + path);
      }
    }
  }
  std::fputs(SerializeRep(rep).c_str(), stdout);
  return 0;
}

/// The same seed twice must give bit-identical virtual metrics and layer
/// counts, and a second seed must pass every check.
int SelfTest(const Args& args) {
  bool ok = true;
  for (const std::string& workload : WorkloadNames()) {
    std::vector<std::string> failures;
    RepResult a = SpawnRep(workload, args.seed, 0, false, "");
    RepResult b = SpawnRep(workload, args.seed, 0, false, "");
    RepResult c = SpawnRep(workload, args.seed + 1, 0, false, "");
    CheckSame(a, b, args.seed, 0, &failures);
    for (const RepResult* r : {&a, &b, &c}) {
      failures.insert(failures.end(), r->failures.begin(), r->failures.end());
    }
    std::printf("self-test %-15s seeds %llu, %llu, %llu: %s\n",
                workload.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(args.seed + 1),
                failures.empty() ? "passed" : "FAILED");
    for (const std::string& f : failures) std::printf("  %s\n", f.c_str());
    ok = ok && failures.empty();
  }
  std::printf("self-test: %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::Parse(argc, argv);
  if (args.part >= 0) return perfbench::RunRep(args);
  if (args.self_test) return perfbench::SelfTest(args);
  return perfbench::Main(args);
}
