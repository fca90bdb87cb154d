#include "dsjoin/runtime/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <string>

#include "dsjoin/common/log.hpp"
#include "dsjoin/runtime/schedule.hpp"

namespace dsjoin::runtime {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

NodeDaemon::~NodeDaemon() { stop_threads(); }

common::Status NodeDaemon::run() {
  // Bind the data listener first so HELLO can advertise a real port.
  auto listener = net::tcp_listen(0, 64);
  if (!listener) return listener.status();
  auto port = net::bound_port(listener.value().get());
  if (!port) return port.status();

  auto control_fd = net::tcp_connect_retry(options_.coordinator,
                                           options_.connect_timeout_s);
  if (!control_fd) return control_fd.status();
  net::MsgSocket control(std::move(control_fd).value());

  HelloMsg hello;
  hello.data_endpoint = net::Endpoint{"127.0.0.1", port.value()};
  {
    const auto encoded = hello.encode();
    auto status = control.send_msg(
        static_cast<std::uint8_t>(ControlType::kHello), encoded);
    if (!status.is_ok()) return status;
  }

  ConfigMsg assignment;
  if (auto status = handshake(control, &assignment); !status.is_ok()) {
    return status;
  }
  node_id_ = assignment.node_id;
  nodes_ = assignment.config.nodes;
  config_ = assignment.config;
  heartbeat_period_s_ = assignment.heartbeat_period_s;
  if (node_id_ >= nodes_ || assignment.peers.size() != nodes_) {
    return common::Status(common::ErrorCode::kInvalidArgument,
                          "coordinator sent an inconsistent assignment");
  }
  DSJOIN_LOG_INFO("daemon: admitted as node %u of %u", node_id_, nodes_);

  MeshOptions mesh_options;
  mesh_options.connect_timeout_s = assignment.mesh_timeout_s;
  mesh_options.coalesce.max_frames = config_.coalesce_frames;
  mesh_options.coalesce.max_bytes = config_.coalesce_bytes;
  mesh_options.coalesce.linger_s = config_.coalesce_linger_s;
  mesh_ = std::make_unique<MeshTransport>(node_id_, nodes_,
                                          std::move(listener).value(),
                                          assignment.peers, mesh_options);
  mesh_->set_batch_handler([this](std::vector<net::Frame>&& frames) {
    QueueItem item;
    item.frames = std::move(frames);
    enqueue(std::move(item));
  });
  mesh_->set_peer_down([this](net::NodeId peer) {
    QueueItem item;
    item.peer_down = true;
    item.peer = peer;
    enqueue(std::move(item));
  });
  host_ = std::make_unique<core::NodeHost>(config_, node_id_, *mesh_);
  host_->set_peer_death_hook(
      [this](net::NodeId peer) { mesh_->mark_peer_dead(peer); });
  if (host_->node().uses_summaries()) {
    host_->enable_summary_watermarks();
  }

  if (auto status = mesh_->connect_mesh(); !status.is_ok()) return status;
  dispatcher_ = std::thread([this] { dispatcher_loop(); });

  DaemonState state = DaemonState::kMeshed;
  send_heartbeat(control, state);
  auto last_beat = Clock::now();
  bool reported = false;

  for (;;) {
    auto message = control.recv_msg(0.05);
    if (!message) {
      if (message.status().code() == common::ErrorCode::kDataLoss) {
        stop_threads();
        return common::Status(common::ErrorCode::kUnavailable,
                              "coordinator connection lost");
      }
      // Timeout: nothing from the coordinator right now.
    } else {
      switch (static_cast<ControlType>(message.value().type)) {
        case ControlType::kStart:
          if (state == DaemonState::kMeshed) {
            state = DaemonState::kRunning;
            arrival_ = std::thread([this] { arrival_loop(); });
          }
          break;
        case ControlType::kDrain: {
          auto drain = DrainMsg::decode(message.value().payload);
          // Arrivals are finished (the coordinator only drains once every
          // live node reported DONE); make sure ours joined.
          if (arrival_.joinable()) arrival_.join();
          state = DaemonState::kDraining;
          send_heartbeat(control, state);
          host_->begin_drain(drain ? std::span<const net::NodeId>(
                                         drain.value().dead_nodes)
                                   : std::span<const net::NodeId>());
          if (!host_->wait_drain(options_.drain_timeout_s)) {
            DSJOIN_LOG_WARN(
                "node %u: drain timed out; reporting partial results",
                node_id_);
          }
          {
            std::lock_guard lock(node_mutex_);
            const auto encoded = encode_metrics_report(
                host_->report(mesh_->stats_snapshot()));
            auto status = control.send_msg(
                static_cast<std::uint8_t>(ControlType::kMetricsReport),
                encoded);
            if (!status.is_ok()) {
              stop_threads();
              return status;
            }
            reported = true;
          }
          break;
        }
        case ControlType::kBye: {
          stop_threads();
          if (!reported) {
            // A BYE before drain may carry the coordinator's reason (e.g. a
            // protocol-version rejection) — surface it verbatim.
            const auto& payload = message.value().payload;
            const std::string reason(payload.begin(), payload.end());
            return common::Status(
                common::ErrorCode::kUnavailable,
                reason.empty() ? "coordinator hung up before drain" : reason);
          }
          return common::Status::ok();
        }
        default:
          DSJOIN_LOG_WARN("node %u: unexpected control message type %u",
                          node_id_, message.value().type);
          break;
      }
    }

    if (state == DaemonState::kRunning && arrivals_done_.load()) {
      state = DaemonState::kDone;
      send_heartbeat(control, state);
      last_beat = Clock::now();
    }
    const auto now = Clock::now();
    if (std::chrono::duration<double>(now - last_beat).count() >=
        heartbeat_period_s_) {
      send_heartbeat(control, state);
      last_beat = now;
    }
  }
}

common::Status NodeDaemon::handshake(net::MsgSocket& control, ConfigMsg* out) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options_.connect_timeout_s);
  for (;;) {
    const double left =
        std::chrono::duration<double>(deadline - Clock::now()).count();
    if (left <= 0.0) {
      return common::Status(common::ErrorCode::kUnavailable,
                            "timed out waiting for CONFIG");
    }
    auto message = control.recv_msg(std::min(left, 0.2));
    if (!message) {
      if (message.status().code() == common::ErrorCode::kDataLoss) {
        return common::Status(common::ErrorCode::kUnavailable,
                              "coordinator closed during admission");
      }
      continue;
    }
    if (static_cast<ControlType>(message.value().type) == ControlType::kBye) {
      // The coordinator refused admission (protocol-version mismatch or a
      // full cluster); fail fast with its reason instead of timing out.
      const auto& payload = message.value().payload;
      const std::string reason(payload.begin(), payload.end());
      return common::Status(
          common::ErrorCode::kFailedPrecondition,
          reason.empty() ? "coordinator rejected admission" : reason);
    }
    if (static_cast<ControlType>(message.value().type) != ControlType::kConfig) {
      continue;  // stray message; CONFIG must come first
    }
    auto config = ConfigMsg::decode(message.value().payload);
    if (!config) return config.status();
    *out = std::move(config).value();
    return common::Status::ok();
  }
}

void NodeDaemon::enqueue(QueueItem item) {
  {
    std::lock_guard lock(queue_mutex_);
    if (queue_stopped_) return;
    queue_.push_back(std::move(item));
  }
  queue_cv_.notify_one();
}

void NodeDaemon::dispatcher_loop() {
  for (;;) {
    QueueItem item;
    {
      std::unique_lock lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return queue_stopped_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopped and drained
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    if (item.peer_down) {
      host_->note_peer_dead(item.peer);
      continue;
    }
    std::lock_guard lock(node_mutex_);
    host_->deliver_batch(std::move(item.frames));
  }
}

void NodeDaemon::arrival_loop() {
  // Regenerate the global schedule from the config (it is a pure function
  // of it) and ingest only this node's slice.
  const auto schedule = ArrivalSchedule::build(config_);
  const auto mine = schedule.for_node(node_id_);
  const auto start = Clock::now();

  // Virtual-time summary sync (summary-driven policies; DESIGN.md §12):
  // announce the own arrival clock before waiting on anyone (announce-
  // before-wait keeps the mesh deadlock-free), wait for peer cover before
  // each chunk, and never let a chunk span a visibility epoch boundary.
  const bool sync = host_->node().uses_summaries();
  const double sync_epoch = config_.summary_sync_epoch_s;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto cancelled = [this] { return stop_.load(); };
  if (sync) {
    host_->announce_summary_watermark(mine.empty() ? kInf
                                                   : mine.front().timestamp);
  }
  // `next` = index of the first not-yet-ingested arrival.
  const auto after_chunk = [&](std::size_t next) {
    if (!sync) return;
    if (next < mine.size()) {
      host_->announce_summary_watermark(mine[next].timestamp);
    } else {
      host_->announce_summary_watermark(mine.back().timestamp);
      host_->announce_summary_watermark(kInf);
    }
  };

  if (!options_.pace) {
    // As-fast-as-possible replay: hand the slice to the node in
    // coalesce-sized batches — one lock acquisition and one
    // Node::on_local_batch call per chunk (stop_ is honored between
    // chunks, so shutdown still interrupts promptly).
    const std::size_t chunk =
        std::max<std::size_t>(std::size_t{1}, config_.coalesce_frames);
    std::size_t i = 0;
    while (i < mine.size() && !stop_.load()) {
      std::size_t n = std::min(chunk, mine.size() - i);
      if (sync) {
        const double epoch = std::floor(mine[i].timestamp / sync_epoch);
        std::size_t j = i + 1;
        while (j < i + n &&
               std::floor(mine[j].timestamp / sync_epoch) == epoch) {
          ++j;
        }
        n = j - i;
        // Without node_mutex_: cover frames arrive on the dispatcher.
        host_->await_summary_cover(mine[i].timestamp, 30.0, cancelled);
      }
      {
        std::lock_guard lock(node_mutex_);
        host_->ingest_batch(std::span<const stream::Tuple>(mine.data() + i, n));
      }
      i += n;
      after_chunk(i);
    }
    arrivals_done_.store(true);
    return;
  }
  std::size_t ingested = 0;
  for (const auto& tuple : mine) {
    if (stop_.load()) break;
    // Sleep toward the tuple's virtual time in short slices so shutdown
    // (or a dead coordinator) interrupts promptly.
    const auto due = start + std::chrono::duration<double>(tuple.timestamp);
    while (!stop_.load()) {
      const auto now = Clock::now();
      if (now >= due) break;
      const auto nap = std::min(std::chrono::duration<double>(due - now),
                                std::chrono::duration<double>(0.05));
      std::this_thread::sleep_for(nap);
    }
    if (stop_.load()) break;
    if (sync) host_->await_summary_cover(tuple.timestamp, 30.0, cancelled);
    {
      std::lock_guard lock(node_mutex_);
      host_->ingest(tuple, tuple.timestamp);
    }
    ++ingested;
    after_chunk(ingested);
  }
  arrivals_done_.store(true);
}

void NodeDaemon::send_heartbeat(net::MsgSocket& control, DaemonState state) {
  HeartbeatMsg beat;
  beat.node_id = node_id_;
  beat.state = state;
  if (host_) {
    std::lock_guard lock(node_mutex_);
    beat.local_tuples = host_->arrivals_ingested();
    beat.pairs_discovered = host_->pairs_discovered();
  }
  const auto encoded = beat.encode();
  (void)control.send_msg(static_cast<std::uint8_t>(ControlType::kHeartbeat),
                         encoded);
}

void NodeDaemon::stop_threads() {
  stop_.store(true);
  if (arrival_.joinable()) arrival_.join();
  if (mesh_) mesh_->shutdown();
  {
    std::lock_guard lock(queue_mutex_);
    queue_stopped_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

}  // namespace dsjoin::runtime
