// Tests for the coordination service: znode semantics, sessions/ephemerals,
// master election, distributed locks, timestamp oracle.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/coord/coordination_service.h"
#include "src/coord/lock_manager.h"
#include "src/coord/master_election.h"
#include "src/coord/znode_tree.h"
#include "src/sim/network_model.h"
#include "src/sim/sim_context.h"

namespace logbase::coord {
namespace {

TEST(ZnodeTreeTest, CreateGetSetDelete) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  auto path = tree.Create(s, "/a", "v1", CreateMode::kPersistent);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/a");
  EXPECT_EQ(*tree.Get("/a"), "v1");
  ASSERT_TRUE(tree.Set("/a", "v2").ok());
  EXPECT_EQ(*tree.Get("/a"), "v2");
  ASSERT_TRUE(tree.Delete("/a").ok());
  EXPECT_FALSE(tree.Exists("/a"));
}

TEST(ZnodeTreeTest, CreateRequiresParent) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  EXPECT_TRUE(tree.Create(s, "/a/b", "", CreateMode::kPersistent)
                  .status()
                  .IsNotFound());
  ASSERT_TRUE(tree.Create(s, "/a", "", CreateMode::kPersistent).ok());
  EXPECT_TRUE(tree.Create(s, "/a/b", "", CreateMode::kPersistent).ok());
}

TEST(ZnodeTreeTest, CreateRejectsDuplicates) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/dup", "", CreateMode::kPersistent).ok());
  EXPECT_FALSE(tree.Create(s, "/dup", "", CreateMode::kPersistent).ok());
}

TEST(ZnodeTreeTest, DeleteRefusesNodeWithChildren) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/p", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(tree.Create(s, "/p/c", "", CreateMode::kPersistent).ok());
  EXPECT_FALSE(tree.Delete("/p").ok());
  ASSERT_TRUE(tree.Delete("/p/c").ok());
  EXPECT_TRUE(tree.Delete("/p").ok());
}

TEST(ZnodeTreeTest, SequentialNodesGetIncreasingSuffixes) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/q", "", CreateMode::kPersistent).ok());
  auto a = tree.Create(s, "/q/n_", "", CreateMode::kPersistentSequential);
  auto b = tree.Create(s, "/q/n_", "", CreateMode::kPersistentSequential);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(*a, *b);
  EXPECT_NE(*a, "/q/n_");
}

TEST(ZnodeTreeTest, GetChildrenSorted) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/d", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(tree.Create(s, "/d/c", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(tree.Create(s, "/d/a", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(tree.Create(s, "/d/b", "", CreateMode::kPersistent).ok());
  // Grandchildren are not listed.
  ASSERT_TRUE(tree.Create(s, "/d/a/x", "", CreateMode::kPersistent).ok());
  auto children = tree.GetChildren("/d");
  ASSERT_TRUE(children.ok());
  EXPECT_EQ(*children, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(ZnodeTreeTest, SessionCloseRemovesEphemerals) {
  ZnodeTree tree;
  SessionId s1 = tree.CreateSession();
  SessionId s2 = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s1, "/e1", "", CreateMode::kEphemeral).ok());
  ASSERT_TRUE(tree.Create(s2, "/e2", "", CreateMode::kEphemeral).ok());
  ASSERT_TRUE(tree.Create(s1, "/p", "", CreateMode::kPersistent).ok());
  tree.CloseSession(s1);
  EXPECT_FALSE(tree.Exists("/e1"));
  EXPECT_TRUE(tree.Exists("/e2"));
  EXPECT_TRUE(tree.Exists("/p"));  // persistent survives its creator
  EXPECT_FALSE(tree.SessionAlive(s1));
  EXPECT_TRUE(tree.SessionAlive(s2));
}

TEST(ZnodeTreeTest, EphemeralCreateWithDeadSessionFails) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  tree.CloseSession(s);
  EXPECT_FALSE(tree.Create(s, "/e", "", CreateMode::kEphemeral).ok());
}

TEST(CoordinationServiceTest, TimestampsAreUniqueAndMonotonic) {
  CoordinationService coord;
  uint64_t prev = 0;
  for (int i = 0; i < 1000; i++) {
    uint64_t ts = coord.ReserveTimestamps(0, 1);
    EXPECT_GT(ts, prev);
    prev = ts;
  }
  EXPECT_EQ(coord.LatestTimestamp(), prev);
}

TEST(CoordinationServiceTest, ReservedRangesDoNotOverlap) {
  CoordinationService coord;
  uint64_t a = coord.ReserveTimestamps(0, 100);
  uint64_t b = coord.ReserveTimestamps(1, 100);
  EXPECT_GE(b, a + 100);
  EXPECT_GT(coord.ReserveTimestamps(0, 1), b + 99);
}

TEST(CoordinationServiceTest, RoundTripChargesVirtualTime) {
  sim::NetworkModel net(2);
  CoordinationService coord(&net, 0);
  sim::SimContext ctx;
  sim::SimContext::Scope scope(&ctx);
  coord.ReserveTimestamps(1, 1);
  EXPECT_GT(ctx.now(), 0);
}

TEST(MasterElectionTest, FirstCandidateWins) {
  CoordinationService coord;
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  MasterElection m1(&coord, s1, "master-1", 0);
  MasterElection m2(&coord, s2, "master-2", 1);
  ASSERT_TRUE(m1.Campaign().ok());
  ASSERT_TRUE(m2.Campaign().ok());
  EXPECT_TRUE(m1.IsLeader());
  EXPECT_FALSE(m2.IsLeader());
  EXPECT_EQ(*m1.Leader(), "master-1");
}

TEST(MasterElectionTest, FailoverOnSessionDeath) {
  CoordinationService coord;
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  MasterElection m1(&coord, s1, "master-1", 0);
  MasterElection m2(&coord, s2, "master-2", 1);
  ASSERT_TRUE(m1.Campaign().ok());
  ASSERT_TRUE(m2.Campaign().ok());
  coord.CloseSession(s1);  // active master dies
  EXPECT_TRUE(m2.IsLeader());
  EXPECT_EQ(*m2.Leader(), "master-2");
}

TEST(MasterElectionTest, ResignHandsOver) {
  CoordinationService coord;
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  MasterElection m1(&coord, s1, "a", 0);
  MasterElection m2(&coord, s2, "b", 1);
  ASSERT_TRUE(m1.Campaign().ok());
  ASSERT_TRUE(m2.Campaign().ok());
  m1.Resign();
  EXPECT_FALSE(m1.IsLeader());
  EXPECT_TRUE(m2.IsLeader());
}

TEST(LockManagerTest, MutualExclusion) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  EXPECT_TRUE(locks.TryLock(s1, {"key1"}, "txn-1", 0));
  EXPECT_FALSE(locks.TryLock(s2, {"key1"}, "txn-2", 1));
  EXPECT_EQ(*locks.Holder("key1"), "txn-1");
  locks.Unlock({"key1"}, "txn-1", 0);
  EXPECT_TRUE(locks.TryLock(s2, {"key1"}, "txn-2", 1));
}

TEST(LockManagerTest, ReentrantForSameOwner) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s = coord.CreateSession(0);
  EXPECT_TRUE(locks.TryLock(s, {"k"}, "txn-9", 0));
  EXPECT_TRUE(locks.TryLock(s, {"k"}, "txn-9", 0));
}

TEST(LockManagerTest, UnlockByNonOwnerIsIgnored) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s = coord.CreateSession(0);
  EXPECT_TRUE(locks.TryLock(s, {"k"}, "owner", 0));
  locks.Unlock({"k"}, "impostor", 0);
  EXPECT_EQ(*locks.Holder("k"), "owner");
}

TEST(LockManagerTest, SessionDeathReleasesLocks) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  EXPECT_TRUE(locks.TryLock(s1, {"k"}, "txn-1", 0));
  coord.CloseSession(s1);  // crashed transaction holder
  EXPECT_TRUE(locks.TryLock(s2, {"k"}, "txn-2", 1));
}

TEST(LockManagerTest, OverlappingSetTakesNothing) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  ASSERT_TRUE(locks.TryLock(s1, {"b"}, "txn-1", 0));
  // One key of the set is held by another owner: no lock node is created.
  EXPECT_FALSE(locks.TryLock(s2, {"a", "b", "c"}, "txn-2", 1));
  EXPECT_TRUE(locks.Holder("a").status().IsNotFound());
  EXPECT_TRUE(locks.Holder("c").status().IsNotFound());
  EXPECT_EQ(*locks.Holder("b"), "txn-1");
  EXPECT_EQ(coord.znodes()->GetChildren("/locks")->size(), 1u);
  // Once the holder releases, the whole set is taken at once.
  locks.Unlock({"b"}, "txn-1", 0);
  EXPECT_TRUE(locks.TryLock(s2, {"a", "b", "c"}, "txn-2", 1));
  for (const char* key : {"a", "b", "c"}) {
    EXPECT_EQ(*locks.Holder(key), "txn-2");
  }
}

TEST(LockManagerTest, FailedSetDrawsNoTimestamp) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s1 = coord.CreateSession(0);
  SessionId s2 = coord.CreateSession(1);
  std::optional<uint64_t> first = locks.TryLock(s1, {"b"}, "txn-1", 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(coord.LatestTimestamp(), *first);
  // An overlapping set is refused and draws nothing.
  EXPECT_FALSE(locks.TryLock(s2, {"a", "b"}, "txn-2", 1).has_value());
  EXPECT_EQ(coord.LatestTimestamp(), *first);
  // Once the set is taken, its stamp is the next in the global order.
  locks.Unlock({"b"}, "txn-1", 0);
  std::optional<uint64_t> second = locks.TryLock(s2, {"a", "b"}, "txn-2", 1);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, *first + 1);
  EXPECT_EQ(coord.LatestTimestamp(), *second);
}

TEST(LockManagerTest, SetIsReentrantForSameOwner) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s = coord.CreateSession(0);
  ASSERT_TRUE(locks.TryLock(s, {"a"}, "txn-3", 0));
  // A set overlapping what the owner holds takes the rest.
  EXPECT_TRUE(locks.TryLock(s, {"a", "b", "a"}, "txn-3", 0));
  EXPECT_EQ(*locks.Holder("b"), "txn-3");
  // Unlock releases only what the owner holds.
  ASSERT_TRUE(locks.TryLock(s, {"c"}, "txn-4", 0));
  locks.Unlock({"a", "b", "c"}, "txn-3", 0);
  EXPECT_TRUE(locks.Holder("a").status().IsNotFound());
  EXPECT_TRUE(locks.Holder("b").status().IsNotFound());
  EXPECT_EQ(*locks.Holder("c"), "txn-4");
}

TEST(LockManagerTest, OneRoundTripPerCallWhateverTheSetSize) {
  sim::NetworkModel net(2);
  CoordinationService coord(&net, /*host_node=*/1);
  LockManager locks(&coord);
  SessionId s = coord.CreateSession(0);
  sim::SimContext ctx(1000);
  sim::SimContext::Scope scope(&ctx);
  auto elapsed = [&ctx](const std::function<void()>& call) {
    sim::VirtualTime start = ctx.now();
    call();
    return ctx.now() - start;
  };
  const sim::VirtualTime round_trip =
      elapsed([&] { coord.ChargeRoundTrip(0); });
  EXPECT_GE(round_trip, sim::costs::kCoordinationUs);
  std::vector<std::string> eight;
  for (int i = 0; i < 8; i++) eight.push_back("k" + std::to_string(i));
  EXPECT_EQ(elapsed([&] { EXPECT_TRUE(locks.TryLock(s, {"x"}, "o", 0)); }),
            round_trip);
  EXPECT_EQ(elapsed([&] { EXPECT_TRUE(locks.TryLock(s, eight, "o", 0)); }),
            round_trip);
  EXPECT_EQ(elapsed([&] { locks.Unlock(eight, "o", 0); }), round_trip);
  // A refused set costs the same round trip.
  EXPECT_EQ(elapsed([&] { EXPECT_FALSE(locks.TryLock(s, {"x"}, "p", 0)); }),
            round_trip);
}

TEST(ZnodeTreeTest, CreateAllIsAllOrNothing) {
  ZnodeTree tree;
  SessionId s = tree.CreateSession();
  ASSERT_TRUE(tree.Create(s, "/d", "", CreateMode::kPersistent).ok());
  ASSERT_TRUE(tree.Create(s, "/d/b", "other", CreateMode::kPersistent).ok());
  EXPECT_FALSE(tree.CreateAll(s, {"/d/a", "/d/b"}, "me",
                              CreateMode::kEphemeral).ok());
  EXPECT_FALSE(tree.CreateAll(s, {"/d/a", "/missing/c"}, "me",
                              CreateMode::kEphemeral).ok());
  EXPECT_FALSE(tree.Exists("/d/a"));
  ASSERT_TRUE(tree.CreateAll(s, {"/d/a", "/d/c"}, "me",
                             CreateMode::kEphemeral).ok());
  EXPECT_EQ(*tree.Get("/d/a"), "me");
  // DeleteAll removes only the nodes holding the given data.
  tree.DeleteAll({"/d/a", "/d/b", "/d/c", "/d/none"}, "me");
  EXPECT_EQ(*tree.GetChildren("/d"), std::vector<std::string>{"b"});
  // The created nodes are ephemeral: they die with the session.
  ASSERT_TRUE(tree.CreateAll(s, {"/d/e"}, "me", CreateMode::kEphemeral).ok());
  tree.CloseSession(s);
  EXPECT_FALSE(tree.Exists("/d/e"));
}

TEST(LockManagerTest, BinaryKeysAreEscaped) {
  CoordinationService coord;
  LockManager locks(&coord);
  SessionId s = coord.CreateSession(0);
  std::string weird("a/b\0c", 5);
  EXPECT_TRUE(locks.TryLock(s, {weird}, "o", 0));
  EXPECT_FALSE(locks.TryLock(s, {weird}, "other", 0));
}

}  // namespace
}  // namespace logbase::coord
