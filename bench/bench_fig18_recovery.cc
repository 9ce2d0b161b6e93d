// Figure 18 — Recovery time for a failed tablet server holding 600-900MB
// (scaled), with a checkpoint taken at 500MB vs without any checkpoint.
// With a checkpoint, restart reloads the server's checkpoint file and redoes
// only the log tail; without, it scans the entire log.

#include "bench/common.h"

#include "src/fault/fault_injector.h"

using namespace logbase;
using namespace logbase::bench;

namespace {

double RecoverAfterLoading(uint64_t checkpoint_at_records,
                           uint64_t total_records, bool with_checkpoint,
                           tablet::RecoveryStats* stats) {
  workload::YcsbOptions wopts;
  wopts.record_count = total_records;
  wopts.value_bytes = 1024;
  workload::YcsbWorkload workload(wopts);

  MicroLogBase fixture;
  core::TabletServerEngine engine(fixture.server.get(), "LogBase");
  SequentialLoad(&engine, fixture.uid, workload, checkpoint_at_records,
                 fixture.dfs.get());
  if (with_checkpoint) {
    if (!fixture.server->Checkpoint().ok()) std::abort();
  }
  // Keep loading past the checkpoint up to the crash point.
  Random rnd(77);
  {
    sim::ScopedClock load_clock(QuiesceTime(fixture.dfs.get()));
    for (uint64_t i = checkpoint_at_records; i < total_records; i++) {
      if (!engine.Put(fixture.uid, Slice(workload.KeyAt(i)),
                      Slice(workload.MakeValue(&rnd)))
               .ok()) {
        std::abort();
      }
    }

    // Deliver the crash through the fault engine — the same injection point
    // the chaos suite drives — rather than poking the server directly.
    fault::FaultTargets targets;
    targets.num_nodes = 1;
    targets.crash_server = [&](int) { fixture.server->Crash(); };
    fault::FaultPlan plan;
    plan.Crash(load_clock.now() + 1, 0);
    fault::FaultInjector injector(targets, plan);
    load_clock.Advance(2);
    if (!injector.AdvanceTo(load_clock.now()).ok()) std::abort();
  }
  if (fixture.server->running()) std::abort();
  return TimedRun(QuiesceTime(fixture.dfs.get()), [&] {
    if (!fixture.server->Start(stats).ok()) std::abort();
  });
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  PrintHeader("Figure 18",
              "Recovery time (s): checkpoint at 500MB vs no checkpoint");
  BenchResult result("fig18_recovery");
  const uint64_t checkpoint_at = Scaled(500ull << 10);  // records (1KB each)
  std::printf("%12s %12s %16s %18s\n", "data(paper)", "data(run)",
              "with ckpt(s)", "without ckpt(s)");
  bool checkpoint_faster = true;
  for (uint64_t paper_mb : {600ull, 700ull, 800ull, 900ull}) {
    uint64_t total = Scaled(paper_mb << 10);
    tablet::RecoveryStats with_stats, without_stats;
    double with_s =
        RecoverAfterLoading(checkpoint_at, total, true, &with_stats);
    double without_s =
        RecoverAfterLoading(checkpoint_at, total, false, &without_stats);
    if (!with_stats.loaded_checkpoint || without_stats.loaded_checkpoint) {
      std::abort();
    }
    if (with_s >= without_s) checkpoint_faster = false;
    std::printf("%10lluMB %10lluMB %16.3f %18.3f\n",
                static_cast<unsigned long long>(paper_mb),
                static_cast<unsigned long long>(total >> 10), with_s,
                without_s);
    result.AddRow("sizes", std::to_string(paper_mb) + "MB",
                  {{"records", static_cast<double>(total)},
                   {"with_checkpoint_s", with_s},
                   {"without_checkpoint_s", without_s}});
  }
  PrintComponentBreakdown();
  PrintPaperClaim(
      "recovery with a checkpoint is significantly faster: reload the "
      "persisted index files and scan only the log segments after the "
      "checkpoint, instead of scanning the entire log (Fig. 18).");
  result.Set("checkpoint_faster", checkpoint_faster ? 1 : 0);
  result.WriteFile();
  std::printf("check: recovery with a checkpoint faster at every size: %s\n",
              checkpoint_faster ? "PASS" : "FAIL");
  return checkpoint_faster ? 0 : 1;
}
