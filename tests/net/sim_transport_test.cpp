#include "dsjoin/net/sim_transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "dsjoin/common/rng.hpp"

namespace dsjoin::net {
namespace {

Frame make_frame(NodeId from, NodeId to, std::size_t payload_bytes = 16,
                 FrameKind kind = FrameKind::kTuple) {
  Frame f;
  f.from = from;
  f.to = to;
  f.kind = kind;
  f.payload.assign(payload_bytes, 0xaa);
  return f;
}

struct Delivery {
  Frame frame;
  SimTime at;
};

TEST(SimTransport, DeliversWithinLatencyBounds) {
  EventQueue q;
  WanProfile profile;
  profile.unlimited_bandwidth = true;  // isolate latency
  SimTransport transport(q, 2, profile, 1);
  std::vector<Delivery> deliveries;
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [&](Frame&& f) {
    deliveries.push_back(Delivery{std::move(f), q.now()});
  });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(transport.send(make_frame(0, 1)));
  }
  q.run_all();
  ASSERT_EQ(deliveries.size(), 200u);
  for (const auto& d : deliveries) {
    EXPECT_GE(d.at, 0.020 - 1e-9);
    EXPECT_LE(d.at, 0.100 + 1e-6);
  }
}

TEST(SimTransport, PerLinkFifoOrderPreserved) {
  EventQueue q;
  WanProfile profile;  // random latency could reorder without the FIFO floor
  profile.unlimited_bandwidth = true;
  SimTransport transport(q, 2, profile, 7);
  std::vector<std::uint32_t> received;
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [&](Frame&& f) {
    received.push_back(f.piggyback_bytes);  // used as a sequence number here
  });
  for (std::uint32_t i = 0; i < 500; ++i) {
    Frame f = make_frame(0, 1);
    f.piggyback_bytes = i;
    ASSERT_TRUE(transport.send(std::move(f)));
  }
  q.run_all();
  ASSERT_EQ(received.size(), 500u);
  for (std::uint32_t i = 0; i < 500; ++i) EXPECT_EQ(received[i], i);
}

TEST(SimTransport, BandwidthSerializationDelaysBulk) {
  EventQueue q;
  WanProfile profile;
  profile.latency_min_s = profile.latency_max_s = 0.0;
  profile.bandwidth_bps = 8000.0;  // 1 KB/s
  SimTransport transport(q, 2, profile, 3);
  SimTime last = 0.0;
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [&](Frame&&) { last = q.now(); });
  // Ten frames of 1016+16=1032... wire bytes: payload+16. Use 984+16=1000 B.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(transport.send(make_frame(0, 1, 984)));
  }
  q.run_all();
  // 10 KB at 1 KB/s -> ~10 s of serialization.
  EXPECT_NEAR(last, 10.0, 0.2);
}

TEST(SimTransport, PerNodeScopeSharesBandwidthAcrossPeers) {
  EventQueue q;
  WanProfile profile;
  profile.latency_min_s = profile.latency_max_s = 0.0;
  profile.bandwidth_bps = 8000.0;
  profile.scope = WanProfile::BandwidthScope::kPerNode;
  SimTransport transport(q, 3, profile, 3);
  SimTime last = 0.0;
  for (NodeId id = 0; id < 3; ++id) {
    transport.register_handler(id, [&](Frame&&) { last = q.now(); });
  }
  // 5 frames to each of two peers; shared NIC -> ~10 s total.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(transport.send(make_frame(0, 1, 984)));
    ASSERT_TRUE(transport.send(make_frame(0, 2, 984)));
  }
  q.run_all();
  EXPECT_NEAR(last, 10.0, 0.2);
}

TEST(SimTransport, PerLinkScopeParallelizesAcrossPeers) {
  EventQueue q;
  WanProfile profile;
  profile.latency_min_s = profile.latency_max_s = 0.0;
  profile.bandwidth_bps = 8000.0;
  profile.scope = WanProfile::BandwidthScope::kPerLink;
  SimTransport transport(q, 3, profile, 3);
  SimTime last = 0.0;
  for (NodeId id = 0; id < 3; ++id) {
    transport.register_handler(id, [&](Frame&&) { last = q.now(); });
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(transport.send(make_frame(0, 1, 984)));
    ASSERT_TRUE(transport.send(make_frame(0, 2, 984)));
  }
  q.run_all();
  // Independent links -> ~5 s each, concurrently.
  EXPECT_NEAR(last, 5.0, 0.2);
}

TEST(SimTransport, PauseBurstShapingMatchesAverageRate) {
  EventQueue q;
  WanProfile profile;
  profile.latency_min_s = profile.latency_max_s = 0.0;
  profile.pause_burst_shaping = true;  // 1 s pause per 90 kbit
  SimTransport transport(q, 2, profile, 3);
  SimTime last = 0.0;
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [&](Frame&&) { last = q.now(); });
  // 90 KB = 720 kbit -> 8 pauses -> ~8 s.
  for (int i = 0; i < 90; ++i) {
    ASSERT_TRUE(transport.send(make_frame(0, 1, 1000 - 16)));
  }
  q.run_all();
  EXPECT_NEAR(last, 8.0, 1.0);
}

TEST(SimTransport, SendBacklogReflectsQueuedBytes) {
  EventQueue q;
  WanProfile profile;
  profile.latency_min_s = profile.latency_max_s = 0.0;
  profile.bandwidth_bps = 8000.0;
  SimTransport transport(q, 2, profile, 3);
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [](Frame&&) {});
  EXPECT_DOUBLE_EQ(transport.send_backlog_seconds(0), 0.0);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(transport.send(make_frame(0, 1, 984)));
  }
  EXPECT_NEAR(transport.send_backlog_seconds(0), 10.0, 0.2);
  EXPECT_DOUBLE_EQ(transport.send_backlog_seconds(1), 0.0);
}

TEST(SimTransport, RejectsBadAddresses) {
  EventQueue q;
  SimTransport transport(q, 2, WanProfile::ideal(), 1);
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [](Frame&&) {});
  EXPECT_FALSE(transport.send(make_frame(0, 7)));
  EXPECT_FALSE(transport.send(make_frame(7, 0)));
  EXPECT_FALSE(transport.send(make_frame(1, 1)));  // loopback
}

TEST(SimTransport, RejectsUnregisteredDestination) {
  EventQueue q;
  SimTransport transport(q, 2, WanProfile::ideal(), 1);
  transport.register_handler(0, [](Frame&&) {});
  auto status = transport.send(make_frame(0, 1));
  ASSERT_FALSE(status);
  EXPECT_EQ(status.code(), common::ErrorCode::kFailedPrecondition);
}

TEST(SimTransport, CountsTrafficGloballyAndPerLink) {
  EventQueue q;
  SimTransport transport(q, 3, WanProfile::ideal(), 1);
  for (NodeId id = 0; id < 3; ++id) transport.register_handler(id, [](Frame&&) {});
  ASSERT_TRUE(transport.send(make_frame(0, 1, 100, FrameKind::kTuple)));
  ASSERT_TRUE(transport.send(make_frame(0, 1, 50, FrameKind::kSummary)));
  ASSERT_TRUE(transport.send(make_frame(1, 2, 10, FrameKind::kResult)));
  q.run_all();
  EXPECT_EQ(transport.stats().total_frames(), 3u);
  EXPECT_EQ(transport.stats().frames(FrameKind::kTuple), 1u);
  EXPECT_EQ(transport.stats().bytes(FrameKind::kTuple), 116u);
  EXPECT_EQ(transport.link_stats(0, 1).total_frames(), 2u);
  EXPECT_EQ(transport.link_stats(1, 2).total_frames(), 1u);
  EXPECT_EQ(transport.link_stats(2, 0).total_frames(), 0u);
}

TEST(SimTransport, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    EventQueue q;
    WanProfile profile;
    SimTransport transport(q, 2, profile, seed);
    std::vector<SimTime> times;
    transport.register_handler(0, [](Frame&&) {});
    transport.register_handler(1, [&](Frame&&) { times.push_back(q.now()); });
    for (int i = 0; i < 50; ++i) (void)transport.send(make_frame(0, 1));
    q.run_all();
    return times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// --- Delivery-order model ----------------------------------------------
//
// Reference: every event draws one sequence number at the moment it is
// scheduled (a timer) or committed (a frame that is not dropped; under an
// epoch, at end_epoch in slot order), and the queue runs events in
// (time, sequence) order. The model logs those draws in order, runs random
// traffic — exact-time ties between frames and timers, several frames per
// link per instant, replies sent from delivery handlers, drops and
// corruption — and checks the execution log against the reference order.

struct ModelFrameInfo {
  NodeId from;
  NodeId to;
  FrameKind kind;
  std::uint32_t piggyback_bytes;
};

// The frame id is stored three times, so a one-byte corruption cannot hide
// it (majority of the copies).
std::vector<std::uint8_t> id_payload(std::uint64_t id, std::size_t extra) {
  std::vector<std::uint8_t> bytes(24 + extra, 0x5a);
  for (int copy = 0; copy < 3; ++copy) std::memcpy(&bytes[8 * copy], &id, 8);
  return bytes;
}

std::uint64_t payload_id(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t copies[3];
  for (int copy = 0; copy < 3; ++copy) std::memcpy(&copies[copy], &bytes[8 * copy], 8);
  return copies[0] == copies[1] || copies[0] == copies[2] ? copies[0] : copies[1];
}

struct ModelRun {
  // Draw log: (is_frame, id) in sequence-draw order; frames never
  // delivered (dropped) are filtered out afterwards.
  std::vector<std::pair<bool, std::uint64_t>> draws;
  // Execution log: (virtual time, is_frame, id).
  std::vector<std::tuple<double, bool, std::uint64_t>> executed;
  std::vector<ModelFrameInfo> frames;  // by frame id
  std::size_t max_pending_excess = 0;  // pending beyond links + timers
};

ModelRun run_delivery_model(const WanProfile& profile, bool epochs,
                            std::uint64_t seed) {
  constexpr NodeId kNodes = 4;
  constexpr std::uint64_t kTimerBudget = 250;
  EventQueue q;
  SimTransport transport(q, kNodes, profile, seed);
  common::Xoshiro256 rng(seed * 7919 + 1);
  ModelRun run;
  std::uint64_t timers = 0;
  std::size_t timers_pending = 0;

  auto random_frame = [&](NodeId from) {
    NodeId to = static_cast<NodeId>(rng.next_below(kNodes - 1));
    if (to >= from) ++to;
    Frame frame;
    frame.from = from;
    frame.to = to;
    frame.kind = static_cast<FrameKind>(rng.next_below(3));
    frame.payload = id_payload(run.frames.size(), rng.next_below(200));
    frame.piggyback_bytes =
        frame.kind == FrameKind::kTuple ? static_cast<std::uint32_t>(rng.next_below(3))
                                        : 0;
    run.frames.push_back(
        ModelFrameInfo{frame.from, frame.to, frame.kind, frame.piggyback_bytes});
    return frame;
  };
  auto send_logged = [&](Frame frame) {
    const std::uint64_t id = run.frames.size() - 1;
    EXPECT_TRUE(transport.send(std::move(frame)).is_ok());
    run.draws.emplace_back(true, id);
  };

  std::function<void(double)> schedule_timer = [&](double when) {
    const std::uint64_t id = timers++;
    ++timers_pending;
    run.draws.emplace_back(false, id);
    q.schedule_at(when, [&, id] {
      --timers_pending;
      run.executed.emplace_back(q.now(), false, id);
      const std::size_t sends = rng.next_below(6);
      std::vector<std::uint64_t> committed;
      if (epochs) {
        // One slot per send; each sender's slots run in slot order, senders
        // interleaved (the parallel driver's strand contract).
        std::vector<NodeId> sender_of(sends);
        for (auto& sender : sender_of) sender = static_cast<NodeId>(rng.next_below(kNodes));
        std::vector<std::size_t> next(kNodes, 0);
        transport.begin_epoch(sends);
        std::vector<std::vector<std::uint64_t>> by_slot(sends);
        for (std::size_t done = 0; done < sends; ++done) {
          NodeId pick;
          std::size_t slot;
          do {
            pick = static_cast<NodeId>(rng.next_below(kNodes));
            slot = next[pick];
            while (slot < sends && sender_of[slot] != pick) ++slot;
          } while (slot >= sends);
          next[pick] = slot + 1;
          transport.bind_epoch_slot(slot, q.now());
          Frame frame = random_frame(pick);
          by_slot[slot].push_back(run.frames.size() - 1);
          EXPECT_TRUE(transport.send(std::move(frame)).is_ok());
        }
        const bool timers_first = rng.next_bool(0.5);
        if (!timers_first) {
          transport.end_epoch();
          for (const auto& slot : by_slot) {
            for (const std::uint64_t frame_id : slot) run.draws.emplace_back(true, frame_id);
          }
        }
        if (timers < kTimerBudget) schedule_timer(q.now() + profile.latency_min_s);
        if (timers_first) {
          transport.end_epoch();
          for (const auto& slot : by_slot) {
            for (const std::uint64_t frame_id : slot) run.draws.emplace_back(true, frame_id);
          }
        }
      } else {
        for (std::size_t k = 0; k < sends; ++k) {
          send_logged(random_frame(static_cast<NodeId>(rng.next_below(kNodes))));
        }
        if (timers < kTimerBudget) schedule_timer(q.now() + profile.latency_min_s);
      }
      if (timers < kTimerBudget && rng.next_bool(0.7)) {
        schedule_timer(q.now() + static_cast<double>(rng.next_below(3)) * 0.01);
      }
    });
  };

  for (NodeId node = 0; node < kNodes; ++node) {
    transport.register_handler(node, [&, node](Frame&& frame) {
      const std::uint64_t id = payload_id(frame.payload);
      run.executed.emplace_back(q.now(), true, id);
      const ModelFrameInfo& sent = run.frames.at(id);
      EXPECT_EQ(frame.from, sent.from);
      EXPECT_EQ(frame.to, node);
      EXPECT_EQ(frame.to, sent.to);
      EXPECT_EQ(frame.kind, sent.kind);
      EXPECT_EQ(frame.piggyback_bytes, sent.piggyback_bytes);
      // Replies from inside a delivery, possibly on the reverse link.
      if (run.frames.size() < 2000 && rng.next_bool(0.2)) {
        send_logged(random_frame(node));
      }
    });
  }

  for (int k = 0; k < 6; ++k) schedule_timer(0.0);
  const std::size_t links = kNodes * (kNodes - 1);
  while (q.run_one()) {
    if (q.pending() > links + timers_pending) {
      run.max_pending_excess =
          std::max(run.max_pending_excess, q.pending() - links - timers_pending);
    }
  }
  return run;
}

void expect_model_order(const ModelRun& run) {
  std::vector<bool> delivered(run.frames.size(), false);
  for (const auto& [when, is_frame, id] : run.executed) {
    if (!is_frame) continue;
    ASSERT_FALSE(delivered[id]) << "frame " << id << " delivered twice";
    delivered[id] = true;
  }
  std::vector<std::size_t> timer_seq;
  std::vector<std::size_t> frame_seq(run.frames.size(), SIZE_MAX);
  std::size_t seq = 0;
  for (const auto& [is_frame, id] : run.draws) {
    if (is_frame) {
      if (delivered[id]) frame_seq[id] = seq++;
    } else {
      if (timer_seq.size() <= id) timer_seq.resize(id + 1, SIZE_MAX);
      timer_seq[id] = seq++;
    }
  }
  for (std::size_t id = 0; id < run.frames.size(); ++id) {
    if (delivered[id]) {
      ASSERT_NE(frame_seq[id], SIZE_MAX) << id;
    }
  }
  ASSERT_GT(run.executed.size(), 100u);
  for (std::size_t i = 1; i < run.executed.size(); ++i) {
    const auto& [w0, f0, id0] = run.executed[i - 1];
    const auto& [w1, f1, id1] = run.executed[i];
    const std::size_t s0 = f0 ? frame_seq[id0] : timer_seq[id0];
    const std::size_t s1 = f1 ? frame_seq[id1] : timer_seq[id1];
    ASSERT_TRUE(std::make_pair(w0, s0) < std::make_pair(w1, s1))
        << "event " << i << " ran out of (time, sequence) order";
  }
  EXPECT_EQ(run.max_pending_excess, 0u) << "more than one queued event per link";
}

TEST(SimTransportModel, DeliveryOrderMatchesTimeSequenceReference) {
  struct Case {
    const char* name;
    WanProfile profile;
  };
  std::vector<Case> cases;
  {
    // Fixed latency, no shaping: frames tie exactly with timers and with
    // each other across links.
    WanProfile p = WanProfile::ideal();
    p.latency_min_s = p.latency_max_s = 0.02;
    cases.push_back({"fixed_latency_ties", p});
  }
  {
    WanProfile p;  // per-node scope, smooth shaping, random latency
    p.drop_probability = 0.1;
    p.corrupt_probability = 0.1;
    cases.push_back({"per_node_lossy", p});
  }
  {
    WanProfile p;
    p.scope = WanProfile::BandwidthScope::kPerLink;
    p.drop_probability = 0.05;
    cases.push_back({"per_link_lossy", p});
  }
  {
    WanProfile p;
    p.pause_burst_shaping = true;
    p.bandwidth_bps = 4000;
    p.corrupt_probability = 0.2;
    cases.push_back({"pause_burst", p});
  }
  for (const auto& c : cases) {
    for (const bool epochs : {false, true}) {
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        SCOPED_TRACE(std::string(c.name) + (epochs ? " epochs" : " serial") +
                     " seed " + std::to_string(seed));
        expect_model_order(run_delivery_model(c.profile, epochs, seed));
      }
    }
  }
}

TEST(SimTransportModel, EpochFlushMatchesSerialSends) {
  // The same sends issued serially and through an epoch (one slot each, in
  // slot order) deliver identically: same frames, same times, same order.
  auto run = [](bool epoch) {
    EventQueue q;
    WanProfile profile;
    profile.drop_probability = 0.1;
    SimTransport transport(q, 3, profile, 9);
    std::vector<std::pair<double, std::uint64_t>> log;
    for (NodeId n = 0; n < 3; ++n) {
      transport.register_handler(n, [&](Frame&& f) {
        log.emplace_back(q.now(), payload_id(f.payload));
      });
    }
    q.schedule_at(1.0, [&] {
      if (epoch) transport.begin_epoch(30);
      for (std::uint64_t i = 0; i < 30; ++i) {
        if (epoch) transport.bind_epoch_slot(i, q.now());
        Frame f;
        f.from = static_cast<NodeId>(i % 3);
        f.to = static_cast<NodeId>((i + 1 + i / 3 % 2) % 3);
        f.payload = id_payload(i, i);
        EXPECT_TRUE(transport.send(std::move(f)).is_ok());
      }
      if (epoch) transport.end_epoch();
    });
    q.run_all();
    return log;
  };
  const auto serial = run(false);
  EXPECT_GT(serial.size(), 10u);
  EXPECT_EQ(serial, run(true));
}

}  // namespace
}  // namespace dsjoin::net
