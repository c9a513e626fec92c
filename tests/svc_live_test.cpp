// End-to-end tests of the anonsvc live stack: real loopback sockets, one
// event-loop thread per node, blocking clients.  Wall-clock timing is
// inherently nondeterministic — these tests assert protocol outcomes
// (agreement, validity, quorum completion, watchdog degradation), never
// durations.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>

#include "svc/client.hpp"
#include "svc/daemon.hpp"

namespace anon {
namespace {

using namespace std::chrono_literals;

constexpr auto kOpTimeout = 10s;  // generous: CI machines stall threads

LiveClusterOptions base_options(std::size_t n, std::uint64_t seed) {
  LiveClusterOptions opt;
  opt.n = n;
  opt.seed = seed;
  opt.period = 2ms;
  opt.max_rounds = 5000;
  return opt;
}

TEST(SvcLive, ThreeNodesDecideAndAgree) {
  LiveClusterOptions opt = base_options(3, 11);
  opt.proposals = {Value(10), Value(20), Value(30)};
  LiveCluster cluster(opt);
  ASSERT_TRUE(cluster.start()) << cluster.error();

  std::vector<Value> decisions;
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    SvcClient client;
    ASSERT_TRUE(client.connect(cluster.client_port(i))) << client.error();
    const auto r = client.decision(kOpTimeout);
    ASSERT_TRUE(r.ok()) << "node " << i << ": " << client.error();
    ASSERT_EQ(r.values.size(), 1u);
    decisions.push_back(r.values[0]);
  }
  cluster.stop_all();
  cluster.join();

  // Agreement + validity.
  for (const Value& d : decisions) {
    EXPECT_EQ(d, decisions[0]);
    EXPECT_TRUE(std::find(opt.proposals.begin(), opt.proposals.end(), d) !=
                opt.proposals.end());
  }
  // Post-run observations line up with what the clients saw.
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    ASSERT_TRUE(cluster.node(i).decision().has_value());
    EXPECT_EQ(*cluster.node(i).decision(), decisions[0]);
    EXPECT_GE(cluster.node(i).rounds_executed(), 4u);
  }
}

TEST(SvcLive, TcpMeshDecides) {
  LiveClusterOptions opt = base_options(3, 12);
  opt.socket = SvcSocketKind::kTcp;
  opt.proposals = {Value(5), Value(6), Value(7)};
  LiveCluster cluster(opt);
  ASSERT_TRUE(cluster.start()) << cluster.error();

  std::vector<Value> decisions;
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    SvcClient client;
    ASSERT_TRUE(client.connect(cluster.client_port(i))) << client.error();
    const auto r = client.decision(kOpTimeout);
    ASSERT_TRUE(r.ok()) << "node " << i << ": " << client.error();
    decisions.push_back(r.values.at(0));
  }
  cluster.stop_all();
  cluster.join();
  for (const Value& d : decisions) EXPECT_EQ(d, decisions[0]);
}

TEST(SvcLive, WeakSetAddsBecomeVisible) {
  LiveCluster cluster(base_options(3, 13));
  ASSERT_TRUE(cluster.start()) << cluster.error();

  // One client per node, each adding a distinct value; add blocks until
  // the value reaches WRITTEN, so after it returns every node proposed it.
  std::vector<std::unique_ptr<SvcClient>> clients;
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    clients.push_back(std::make_unique<SvcClient>());
    ASSERT_TRUE(clients.back()->connect(cluster.client_port(i)));
  }
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const auto r = clients[i]->ws_add(100 + static_cast<std::int64_t>(i),
                                      kOpTimeout);
    ASSERT_TRUE(r.ok()) << "add via node " << i;
  }
  // get() is non-blocking and returns PROPOSED ⊇ WRITTEN.  A completed add
  // is in WRITTEN at the adder; a laggard node may still have the carrying
  // frame in its inbox (live rounds are not lockstep), so visibility is
  // *eventual*: poll until every value shows up everywhere.
  const auto visible_deadline = std::chrono::steady_clock::now() + 5s;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    for (;;) {
      const auto r = clients[i]->ws_get(kOpTimeout);
      ASSERT_TRUE(r.ok());
      std::size_t present = 0;
      for (std::int64_t v = 100; v < 103; ++v)
        if (std::find(r.values.begin(), r.values.end(), Value(v)) !=
            r.values.end())
          ++present;
      if (present == 3) break;
      if (std::chrono::steady_clock::now() >= visible_deadline) {
        ADD_FAILURE() << "only " << present << " of 3 added values visible "
                      << "at node " << i;
        break;
      }
      std::this_thread::sleep_for(2ms);
    }
  }
  cluster.stop_all();
  cluster.join();
}

// The add-visibility certificate needs a frame from every peer; the
// node's own looped-back frame must not stand in for one.  Node 2 is
// silent from the start, so an add at node 0 can never be certified and
// resolves as a timeout when the rounds run out.  Both transports: UDP
// attributes the own frame, TCP inbound does not.
class SvcLiveWsAdd : public ::testing::TestWithParam<SvcSocketKind> {};

TEST_P(SvcLiveWsAdd, AddDoesNotConfirmWithASilentPeer) {
  LiveClusterOptions opt = base_options(3, 19);
  opt.socket = GetParam();
  opt.max_rounds = 40;
  opt.crash_at = {0, 0, 1};
  LiveCluster cluster(opt);
  ASSERT_TRUE(cluster.start()) << cluster.error();
  SvcClient client;
  ASSERT_TRUE(client.connect(cluster.client_port(0)));
  const auto r = client.ws_add(7, kOpTimeout);
  EXPECT_TRUE(r.transport_ok) << client.error();
  EXPECT_EQ(r.status, SvcStatus::kTimeout)
      << "the add confirmed without node 2's frame";
  cluster.stop_all();
  cluster.join();
  EXPECT_GE(cluster.node(0).rounds_executed(), opt.max_rounds);
}

TEST_P(SvcLiveWsAdd, AddConfirmsWhenEveryPeerSpeaks) {
  LiveClusterOptions opt = base_options(3, 20);
  opt.socket = GetParam();
  LiveCluster cluster(opt);
  ASSERT_TRUE(cluster.start()) << cluster.error();
  SvcClient client;
  ASSERT_TRUE(client.connect(cluster.client_port(1)));
  EXPECT_TRUE(client.ws_add(8, kOpTimeout).ok()) << client.error();
  cluster.stop_all();
  cluster.join();
}

INSTANTIATE_TEST_SUITE_P(Sockets, SvcLiveWsAdd,
                         ::testing::Values(SvcSocketKind::kUdp,
                                           SvcSocketKind::kTcp),
                         [](const auto& info) {
                           return info.param == SvcSocketKind::kUdp
                                      ? std::string("Udp")
                                      : std::string("Tcp");
                         });

TEST(SvcLive, AbdRegisterRegularity) {
  LiveCluster cluster(base_options(3, 14));
  ASSERT_TRUE(cluster.start()) << cluster.error();

  SvcClient writer, reader;
  ASSERT_TRUE(writer.connect(cluster.client_port(0)));
  ASSERT_TRUE(reader.connect(cluster.client_port(2)));

  // Fresh register reads ⊥ (no values).
  auto r = reader.reg_read(kOpTimeout);
  ASSERT_TRUE(r.ok()) << reader.error();
  EXPECT_TRUE(r.values.empty());

  ASSERT_TRUE(writer.reg_write(42, kOpTimeout).ok()) << writer.error();
  r = reader.reg_read(kOpTimeout);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], Value(42));

  // A later write through a different coordinator supersedes (its tag is
  // max_ts + 1 over a majority that stored 42).
  ASSERT_TRUE(reader.reg_write(7, kOpTimeout).ok());
  r = writer.reg_read(kOpTimeout);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], Value(7));
  cluster.stop_all();
  cluster.join();
}

TEST(SvcLive, SafetyHoldsUnderLossAndJitter) {
  // loss = 0.3 on every ingress frame + 1ms jitter: termination slows down
  // but agreement/validity must hold (relayed round batches re-carry every
  // value, so partitions long enough to decide alone are vanishingly rare
  // at n = 5).
  LiveClusterOptions opt = base_options(5, 15);
  opt.loss = 0.3;
  opt.max_jitter = 1ms;
  opt.proposals = {Value(1), Value(2), Value(3), Value(4), Value(5)};
  LiveCluster cluster(opt);
  ASSERT_TRUE(cluster.start()) << cluster.error();

  std::vector<Value> decisions;
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    SvcClient client;
    ASSERT_TRUE(client.connect(cluster.client_port(i)));
    const auto r = client.decision(kOpTimeout);
    ASSERT_TRUE(r.ok()) << "node " << i;
    decisions.push_back(r.values.at(0));
  }
  cluster.stop_all();
  cluster.join();
  for (const Value& d : decisions) {
    EXPECT_EQ(d, decisions[0]);
    EXPECT_TRUE(std::find(opt.proposals.begin(), opt.proposals.end(), d) !=
                opt.proposals.end());
  }
  // The loss coin actually fired.
  std::uint64_t drops = 0;
  for (std::size_t i = 0; i < cluster.n(); ++i)
    drops += cluster.node(i).fault_drops();
  EXPECT_GT(drops, 0u);
}

TEST(SvcLive, WatchdogDegradesToUndecidedTimeout) {
  // A watchdog deadline tighter than the earliest possible decision round
  // (ES cannot decide before round 4): the decision wait must degrade to a
  // kTimeout response — the live face of the sim's `undecided` outcome —
  // instead of hanging the client.
  LiveClusterOptions opt = base_options(3, 16);
  opt.watchdog_rounds = 2;
  opt.period = 5ms;
  opt.proposals = {Value(10), Value(20), Value(30)};
  LiveCluster cluster(opt);
  ASSERT_TRUE(cluster.start()) << cluster.error();

  SvcClient client;
  ASSERT_TRUE(client.connect(cluster.client_port(0)));
  const auto r = client.decision(kOpTimeout);
  EXPECT_TRUE(r.transport_ok);  // the node answered; no client-side timeout
  EXPECT_EQ(r.status, SvcStatus::kTimeout);
  cluster.stop_all();
  cluster.join();
}

TEST(SvcLive, CrashedMinorityStillServes) {
  // Node 2 goes silent at round 3; the surviving majority keeps deciding
  // and serving the ABD quorum (2 of 3).
  LiveClusterOptions opt = base_options(3, 17);
  opt.crash_at = {0, 0, 3};
  LiveCluster cluster(opt);
  ASSERT_TRUE(cluster.start()) << cluster.error();

  SvcClient client;
  ASSERT_TRUE(client.connect(cluster.client_port(0)));
  ASSERT_TRUE(client.decision(kOpTimeout).ok()) << client.error();
  ASSERT_TRUE(client.reg_write(9, kOpTimeout).ok()) << client.error();
  const auto r = client.reg_read(kOpTimeout);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.values[0], Value(9));
  cluster.stop_all();
  cluster.join();
}

TEST(SvcLive, StatusReportsRoundAndStabilization) {
  LiveCluster cluster(base_options(3, 18));
  ASSERT_TRUE(cluster.start()) << cluster.error();
  SvcClient client;
  ASSERT_TRUE(client.connect(cluster.client_port(1)));
  ASSERT_TRUE(client.decision(kOpTimeout).ok());
  const auto r = client.status(kOpTimeout);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.info, 4u);  // rounds advanced past the decision point
  ASSERT_EQ(r.values.size(), 1u);  // status carries the decision once known
  // Stabilization needs a streak of timely rounds; the first rounds race
  // thread startup, so give the idle mesh a grace window before stopping.
  std::this_thread::sleep_for(200ms);
  cluster.stop_all();
  cluster.join();
  // On an idle loopback the mesh stabilizes (5 consecutive timely rounds).
  bool any_stabilized = false;
  for (std::size_t i = 0; i < cluster.n(); ++i)
    any_stabilized |= cluster.node(i).stabilized();
  EXPECT_TRUE(any_stabilized);
}

}  // namespace
}  // namespace anon
