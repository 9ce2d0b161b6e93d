// Tests for the virtual-time simulation substrate: FCFS resources, the disk
// cost model's sequential/random classification, the network model,
// ambient context plumbing, the actor scheduler, and fan-out branches.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/costs.h"
#include "src/sim/disk_model.h"
#include "src/sim/fanout.h"
#include "src/sim/network_model.h"
#include "src/sim/resource.h"
#include "src/sim/scheduler.h"
#include "src/sim/sim_context.h"
#include "src/util/random.h"

namespace logbase::sim {
namespace {

TEST(SimContextTest, NoAmbientContextByDefault) {
  EXPECT_EQ(SimContext::Current(), nullptr);
  ChargeCpu(100);  // must be a harmless no-op
  EXPECT_EQ(CurrentVirtualTime(), 0);
}

TEST(SimContextTest, ScopeInstallsAndRestores) {
  SimContext ctx(5);
  {
    SimContext::Scope scope(&ctx);
    EXPECT_EQ(SimContext::Current(), &ctx);
    ChargeCpu(10);
    EXPECT_EQ(CurrentVirtualTime(), 15);
  }
  EXPECT_EQ(SimContext::Current(), nullptr);
}

TEST(SimContextTest, ScopesNest) {
  SimContext outer, inner;
  SimContext::Scope a(&outer);
  {
    SimContext::Scope b(&inner);
    EXPECT_EQ(SimContext::Current(), &inner);
  }
  EXPECT_EQ(SimContext::Current(), &outer);
}

TEST(SimContextTest, AdvanceToNeverMovesBackward) {
  SimContext ctx(100);
  ctx.AdvanceTo(50);
  EXPECT_EQ(ctx.now(), 100);
  ctx.AdvanceTo(150);
  EXPECT_EQ(ctx.now(), 150);
}

TEST(ResourceTest, FcfsSerializesRequests) {
  Resource r("disk");
  // Two requests arriving at t=0: the second queues behind the first.
  EXPECT_EQ(r.Acquire(0, 10), 10);
  EXPECT_EQ(r.Acquire(0, 10), 20);
  // A request arriving after the queue drained starts immediately.
  EXPECT_EQ(r.Acquire(100, 5), 105);
  EXPECT_EQ(r.total_busy_us(), 25);
}

TEST(ResourceTest, FillsIdleGapsBeforeFutureReservations) {
  Resource r("nic");
  // A multi-hop chain parks work in the resource's future; the idle gap
  // before it stays usable.
  EXPECT_EQ(r.Acquire(1000, 10), 1010);
  // An earlier-time request arriving later slips into the idle gap instead
  // of queueing behind the future reservation.
  EXPECT_EQ(r.Acquire(0, 100), 100);
  // A request too big for the remaining gap queues at the tail.
  EXPECT_EQ(r.Acquire(0, 901), 1911);
  // The rest of the gap still serves fitting requests.
  EXPECT_EQ(r.Acquire(200, 300), 500);
  EXPECT_EQ(r.total_busy_us(), 1311);
}

// Reference model: the first-fit scan Resource::Acquire used before its
// gap lookup, walking every gap from the oldest, with the same tail-only
// kMaxGaps eviction.
struct LinearFirstFit {
  static constexpr size_t kMaxGaps = 64;
  VirtualTime free_at = 0;
  VirtualTime total_busy = 0;
  size_t evictions = 0;
  std::map<VirtualTime, VirtualTime> gaps;

  VirtualTime Acquire(VirtualTime now, VirtualTime service_us) {
    total_busy += service_us;
    for (auto it = gaps.begin(); it != gaps.end(); ++it) {
      VirtualTime begin = std::max(it->first, now);
      if (begin + service_us > it->second) continue;
      VirtualTime gap_start = it->first;
      VirtualTime gap_end = it->second;
      gaps.erase(it);
      if (begin > gap_start) gaps[gap_start] = begin;
      if (begin + service_us < gap_end) gaps[begin + service_us] = gap_end;
      return begin + service_us;
    }
    VirtualTime begin = std::max(now, free_at);
    if (begin > free_at) {
      gaps[free_at] = begin;
      if (gaps.size() > kMaxGaps) {
        gaps.erase(gaps.begin());
        evictions++;
      }
    }
    free_at = begin + service_us;
    return free_at;
  }
};

TEST(ResourceTest, GapLookupMatchesLinearFirstFit) {
  Random rnd(20120827);
  Resource r("disk");
  LinearFirstFit ref;
  size_t peak_gaps = 0;
  int boundary_hits = 0;
  auto uniform = [&rnd](VirtualTime n) {
    return static_cast<VirtualTime>(rnd.Uniform(static_cast<uint64_t>(n)));
  };
  for (int i = 0; i < 200000; i++) {
    VirtualTime now;
    VirtualTime service = uniform(4) == 0 ? 0 : 1 + uniform(40);
    // Splits outnumber exact fills, so past a few hundred gaps a call fills
    // one gap exactly; that keeps the reference scan affordable.
    const bool shrink = ref.gaps.size() > 256;
    const VirtualTime mode = shrink ? 0 : uniform(10);
    if (mode < 4 && !ref.gaps.empty()) {
      // Aim at an existing gap: arrive exactly at its start or end, or
      // inside it, half the time with a request that exactly fills the
      // rest of the gap.
      auto it = ref.gaps.upper_bound(uniform(ref.free_at));
      if (it != ref.gaps.begin()) --it;
      const auto [start, end] = *it;
      switch (shrink ? 0 : uniform(4)) {
        case 0: now = start; break;
        case 1: now = end; break;
        default: now = start + uniform(end - start); break;
      }
      if (shrink || uniform(2) == 0) service = end - now;
      boundary_hits++;
    } else if (mode < 6) {
      // A future-start reservation past the tail opens a new gap.
      now = ref.free_at + uniform(400);
    } else {
      // Out-of-order arrivals behind the tail.
      now = std::max<VirtualTime>(0, ref.free_at - uniform(3000));
    }
    ASSERT_EQ(r.Acquire(now, service), ref.Acquire(now, service))
        << "call " << i << " now=" << now << " service=" << service;
    ASSERT_EQ(r.free_at(), ref.free_at) << "call " << i;
    ASSERT_EQ(r.total_busy_us(), ref.total_busy) << "call " << i;
    ASSERT_EQ(r.idle_gaps(), ref.gaps.size()) << "call " << i;
    peak_gaps = std::max(peak_gaps, ref.gaps.size());
  }
  // The stream must have grown the list past the cap, so tail reservations
  // evicted gaps, and aimed many arrivals at gap boundaries.
  EXPECT_GT(peak_gaps, LinearFirstFit::kMaxGaps);
  EXPECT_GT(boundary_hits, 10000);
  // Resource evicts by advancing a head index and erases the evicted prefix
  // once it outgrows the live gaps. More evictions than the list ever held
  // live means that compaction ran, and the lookups above stayed exact
  // across it.
  EXPECT_GT(ref.evictions, peak_gaps);
}

TEST(ResourceTest, SplitsGrowGapListPastCap) {
  Resource r("disk");
  // One far-future reservation leaves the idle gap [0, 10000).
  EXPECT_EQ(r.Acquire(10000, 1), 10001);
  EXPECT_EQ(r.idle_gaps(), 1u);
  // Each request lands mid-gap and splits it in two. Splits do not consult
  // the 64-gap cap, so the list keeps every gap.
  for (VirtualTime i = 0; i < 100; i++) {
    EXPECT_EQ(r.Acquire(i * 100 + 50, 10), i * 100 + 60);
  }
  EXPECT_EQ(r.idle_gaps(), 101u);
  // The oldest gap [0, 50) survived and still serves an exact fit.
  EXPECT_EQ(r.Acquire(0, 50), 50);
  EXPECT_EQ(r.idle_gaps(), 100u);
  // A tail reservation that opens a gap trims only the oldest one, [60, 150):
  // a request that would have fit there now lands in [160, 250).
  EXPECT_EQ(r.Acquire(20000, 1), 20001);
  EXPECT_EQ(r.idle_gaps(), 100u);
  EXPECT_EQ(r.Acquire(60, 10), 170);
}

TEST(SchedulerTest, SmallestClockStepsFirst) {
  Scheduler sched;
  std::vector<std::pair<int, VirtualTime>> steps;
  // Actor 0 takes 30us per step, actor 1 starts late and takes 10us.
  sched.Add(0, [&, n = 0](SimContext& ctx) mutable {
    steps.emplace_back(0, ctx.now());
    ctx.Advance(30);
    return ++n < 3;
  });
  sched.Add(25, [&, n = 0](SimContext& ctx) mutable {
    steps.emplace_back(1, ctx.now());
    ctx.Advance(10);
    return ++n < 3;
  });
  sched.Run();
  const std::vector<std::pair<int, VirtualTime>> want = {
      {0, 0}, {1, 25}, {0, 30}, {1, 35}, {1, 45}, {0, 60}};
  EXPECT_EQ(steps, want);
}

TEST(SchedulerTest, TiesStepInAddOrder) {
  Scheduler sched;
  std::vector<int> order;
  // All four start at 100 and every step takes 10us, so each round of
  // steps is one four-way tie.
  for (int id = 0; id < 4; id++) {
    sched.Add(100, [&, id, n = 0](SimContext& ctx) mutable {
      order.push_back(id);
      ctx.Advance(10);
      return ++n < 2;
    });
  }
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(SchedulerTest, ActorAddedInsideAStepRunsFromTheNextStep) {
  Scheduler sched;
  std::vector<std::pair<char, VirtualTime>> steps;
  sched.Add(0, [&, n = 0](SimContext& ctx) mutable {
    steps.emplace_back('a', ctx.now());
    EXPECT_EQ(sched.now(), ctx.now());
    if (n == 0) {
      // Same start as this actor's next step: the tie goes to 'a', the
      // older actor.
      sched.Add(ctx.now() + 10, [&](SimContext& child) {
        steps.emplace_back('b', child.now());
        EXPECT_EQ(SimContext::Current(), &child);
        return false;
      });
      EXPECT_EQ(steps.size(), 1u);  // not stepped inside the adding step
    }
    ctx.Advance(10);
    return ++n < 2;
  });
  sched.Run();
  const std::vector<std::pair<char, VirtualTime>> want = {
      {'a', 0}, {'a', 10}, {'b', 10}};
  EXPECT_EQ(steps, want);
}

TEST(SchedulerTest, FalseRetiresTheActor) {
  Scheduler sched;
  int a_steps = 0;
  int b_steps = 0;
  sched.Add(0, [&](SimContext& ctx) {
    a_steps++;
    ctx.Advance(1);
    return false;  // retired after one step, though its clock is smallest
  });
  sched.Add(5, [&](SimContext& ctx) {
    ctx.Advance(1);
    return ++b_steps < 4;
  });
  // Run returns the latest clock an actor retired at: b's, after 4 steps.
  EXPECT_EQ(sched.Run(), 9);
  EXPECT_EQ(a_steps, 1);
  EXPECT_EQ(b_steps, 4);
}

TEST(FanoutTest, BranchPastTheWidthStartsAtEarliestCompletion) {
  SimContext ctx(100);
  SimContext::Scope scope(&ctx);
  Fanout fanout(/*width=*/4);
  std::vector<VirtualTime> starts;
  // Four branches fill the slots; the one taking 10us frees its slot first.
  for (VirtualTime took : {40, 10, 30, 20, 5}) {
    fanout.Run([&] {
      starts.push_back(CurrentVirtualTime());
      ChargeCpu(took);
    });
  }
  EXPECT_EQ(starts, (std::vector<VirtualTime>{100, 100, 100, 100, 110}));
  EXPECT_EQ(ctx.now(), 100);  // nothing moves the caller before Join
}

TEST(FanoutTest, JoinMovesToTheLastCompletion) {
  SimContext ctx(100);
  SimContext::Scope scope(&ctx);
  Fanout fanout;
  std::vector<VirtualTime> starts;
  for (VirtualTime took : {40, 70, 10, 25, 60}) {
    fanout.Run([&] {
      starts.push_back(CurrentVirtualTime());
      ChargeCpu(took);
    });
  }
  // Unbounded: every branch starts at the fan-out point.
  EXPECT_EQ(starts, (std::vector<VirtualTime>(5, 100)));
  fanout.Join();
  EXPECT_EQ(ctx.now(), 170);
  EXPECT_EQ(SimContext::Current(), &ctx);
}

TEST(FanoutTest, NoAmbientClockOnlyRunsTheBranches) {
  Fanout fanout(/*width=*/1);
  int ran = 0;
  for (int i = 0; i < 3; i++) {
    int value = fanout.Run([&] {
      EXPECT_EQ(SimContext::Current(), nullptr);
      ChargeCpu(50);
      return ++ran;
    });
    EXPECT_EQ(value, ran);
  }
  fanout.Join();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(CurrentVirtualTime(), 0);
}

TEST(FanoutTest, FailedBranchTimeIsKept) {
  SimContext ctx(0);
  SimContext::Scope scope(&ctx);
  Fanout fanout;
  EXPECT_TRUE(fanout.Run([] {
    ChargeCpu(30);
    return true;
  }));
  // The caller stops issuing at the failure; the 80us it took still count.
  EXPECT_FALSE(fanout.Run([] {
    ChargeCpu(80);
    return false;
  }));
  fanout.Join();
  EXPECT_EQ(ctx.now(), 80);
}

TEST(DiskModelTest, SequentialAvoidsSeek) {
  DiskParams params;
  DiskModel disk("d", params);
  SimContext ctx;
  SimContext::Scope scope(&ctx);

  disk.Access(/*locus=*/1, /*offset=*/0, /*n=*/1000);
  VirtualTime first = ctx.now();
  // Contiguous continuation: no positioning cost.
  disk.Access(1, 1000, 1000);
  VirtualTime second = ctx.now() - first;
  EXPECT_GT(first, second);
  EXPECT_GE(first, params.seek_us);
  EXPECT_LT(second, params.seek_us);
}

TEST(DiskModelTest, RandomAccessPaysSeek) {
  DiskParams params;
  DiskModel disk("d", params);
  SimContext ctx;
  SimContext::Scope scope(&ctx);
  disk.Access(1, 0, 100);
  VirtualTime after_first = ctx.now();
  disk.Access(1, 500000, 100);  // jump within the same locus
  EXPECT_GE(ctx.now() - after_first, params.seek_us);
}

TEST(DiskModelTest, DifferentLocusPaysSeek) {
  DiskModel disk("d");
  SimContext ctx;
  SimContext::Scope scope(&ctx);
  disk.Access(1, 0, 100);
  VirtualTime t1 = ctx.now();
  disk.Access(2, 100, 100);  // different file
  EXPECT_GE(ctx.now() - t1, disk.params().seek_us);
}

TEST(DiskModelTest, AppendsDoNotEvictAnotherFilesReadStream) {
  DiskModel disk("d");
  SimContext ctx;
  SimContext::Scope scope(&ctx);
  disk.Access(/*locus=*/1, /*offset=*/0, /*n=*/100);  // a tail reader
  // A writer appends to another file on the same disk, many more times
  // than the model tracks streams. Each append continues one stream.
  for (uint64_t i = 0; i < 100; i++) {
    disk.Access(2, i * 100, 100, /*is_write=*/true);
  }
  EXPECT_LT(disk.AccessCost(2, 10000, 100, true), disk.params().seek_us);
  // The reader's stream is still live: its next read is sequential.
  VirtualTime before = ctx.now();
  disk.Access(1, 100, 100);
  EXPECT_LT(ctx.now() - before, disk.params().seek_us);
}

TEST(DiskModelTest, TransferScalesWithBytes) {
  DiskModel disk("d");
  VirtualTime small = disk.AccessCost(9, 0, 4 << 10);
  DiskModel disk2("d2");
  VirtualTime large = disk2.AccessCost(9, 0, 64 << 20);
  EXPECT_GT(large, small);
  // 64 MiB at 100 MB/s is ~0.67 s of transfer plus one positioning delay.
  EXPECT_NEAR(static_cast<double>(large), 671088.0 + 12150.0, 15000.0);
}

TEST(DiskModelTest, NoContextNoCharge) {
  DiskModel disk("d");
  disk.Access(1, 0, 1 << 20);  // must not crash without a context
  EXPECT_EQ(disk.resource()->total_busy_us(), 0);
}

TEST(NetworkModelTest, LoopbackIsCheap) {
  NetworkModel net(2);
  SimContext ctx;
  SimContext::Scope scope(&ctx);
  net.Transfer(0, 0, 1 << 20);
  EXPECT_EQ(ctx.now(), net.params().loopback_us);
}

TEST(NetworkModelTest, RemoteTransferPaysOverheadAndBandwidth) {
  NetworkModel net(2);
  SimContext ctx;
  SimContext::Scope scope(&ctx);
  net.Transfer(0, 1, 117);  // ~1 us of wire time at 117 MB/s
  EXPECT_GE(ctx.now(), net.params().rpc_overhead_us);
  VirtualTime small = ctx.now();
  net.Transfer(0, 1, 117 * 1000000);  // ~1 s of wire time
  EXPECT_GT(ctx.now() - small, 1000000);
}

TEST(NetworkModelTest, NicContentionQueues) {
  NetworkModel net(3);
  SimContext a, b;
  {
    SimContext::Scope scope(&a);
    net.Transfer(0, 1, 117 * 100000);  // ~100 ms on node 0's NIC
  }
  {
    SimContext::Scope scope(&b);
    net.Transfer(0, 2, 117);  // queues behind the big send on NIC 0
  }
  EXPECT_GT(b.now(), 100000);
}

TEST(CostsTest, ConstantsAreSmallRelativeToIo) {
  EXPECT_LT(costs::kIndexLookupUs, 10);
  EXPECT_LT(costs::kCacheProbeUs, 10);
  DiskModel disk("d");
  EXPECT_GT(disk.params().seek_us, 100 * costs::kIndexLookupUs);
}

}  // namespace
}  // namespace logbase::sim
