// The epoll TCP front end for the gateway: accepts connections, runs
// every fd through Connection's bounded buffering, batches the complete
// frames of each poll iteration into one FrameHandler::handle call (for
// the gateway that is serve_batch, so concurrent frames share one
// verify pass, whose chunks the pool checks while the loop thread
// decides earlier frames), and writes responses back per connection.
//
// Single-threaded by design: one loop thread owns every socket, and all
// request parallelism lives behind serve_batch's thread pool. That keeps
// the connection table lock-free and the dispatch order deterministic
// (connection id, then arrival order), which the byte-parity tests rely
// on. stop() is the only cross-thread entry point (eventfd wakeup);
// stats() reads relaxed atomics.
//
// Failure policy (DESIGN.md §12):
//   - framing violation (bad magic / oversized length): answer one typed
//     kError frame, score the address, flush, close;
//   - frame stall (slow-loris) and idle timeouts: score resp. close;
//   - write-buffer hard-cap overflow (client never drains): close
//     immediately — bounded memory beats a complete response stream;
//   - score over threshold: address banned; further accepts are closed
//     on arrival until the ban expires.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gateway/pipeline.h"
#include "net/ban_list.h"
#include "net/connection.h"
#include "net/event_loop.h"

namespace btcfast::net {

/// Supplies "now" in milliseconds. The default is the steady clock;
/// tests substitute a fake so timeout behaviour is scripted, not slept.
using ClockFn = std::function<std::uint64_t()>;

/// Serves batches of complete request frames. Responses must be
/// index-aligned with the input. Implementations must tolerate frames
/// that fail to decode (the gateway answers those with kError).
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  [[nodiscard]] virtual std::vector<Bytes> handle(const std::vector<Bytes>& frames,
                                                  std::uint64_t now_ms) = 0;
};

/// Adapter: frames go to Gateway::serve_batch. When the deployment's
/// simulation clock is quiescent while the server runs (every bench and
/// test here), pin_time supplies the sim timestamp for request semantics
/// while the server's own clock keeps driving socket timeouts.
class GatewayHandler final : public FrameHandler {
 public:
  explicit GatewayHandler(gateway::Gateway& gw) : gw_(gw) {}

  void pin_time(std::uint64_t now_ms) { pinned_now_ms_ = now_ms; }

  [[nodiscard]] std::vector<Bytes> handle(const std::vector<Bytes>& frames,
                                          std::uint64_t now_ms) override {
    return gw_.serve_batch(frames, pinned_now_ms_.value_or(now_ms));
  }

 private:
  gateway::Gateway& gw_;
  std::optional<std::uint64_t> pinned_now_ms_;
};

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port()
  std::size_t max_connections = 1024;
  ConnConfig conn;
  BanConfig ban;
  /// Misbehavior points per offence (threshold lives in BanConfig).
  std::uint32_t score_framing = 50;
  std::uint32_t score_stall = 40;
  /// Pause reading a connection for this long after the gateway shed its
  /// whole batch — admission backpressure propagated to the socket.
  std::uint64_t shed_backoff_ms = 10;
  /// Mute the listener for this long when accept fails with fd/memory
  /// exhaustion (EMFILE/ENFILE/...), instead of spinning the
  /// level-triggered loop until an fd frees up.
  std::uint64_t accept_backoff_ms = 100;
  /// run()'s poll timeout; bounds how late a timeout sweep can fire.
  int poll_timeout_ms = 50;
};

/// Relaxed snapshot of the server's counters.
struct NetStatsSnapshot {
  std::uint64_t conns_accepted = 0;
  std::uint64_t conns_refused_banned = 0;
  std::uint64_t conns_refused_full = 0;
  std::uint64_t conns_active = 0;  ///< gauge
  std::uint64_t disconnects = 0;   ///< every close after a successful accept
  std::uint64_t frames_in = 0;
  std::uint64_t responses_out = 0;
  std::uint64_t bytes_in = 0;   ///< closed-connection totals
  std::uint64_t bytes_out = 0;  ///< closed-connection totals
  std::uint64_t framing_errors = 0;
  std::uint64_t timeouts_idle = 0;
  std::uint64_t timeouts_stall = 0;
  std::uint64_t write_overflows = 0;
  std::uint64_t sheds_seen = 0;  ///< kRetryAfter responses observed
  std::uint64_t read_pauses = 0;
  std::uint64_t accept_backoffs = 0;  ///< listener muted on fd/mem exhaustion
  std::uint64_t bans_issued = 0;
};

class TcpServer {
 public:
  TcpServer(FrameHandler& handler, ServerConfig config, ClockFn clock = {});
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Bind + listen + register with epoll. False on any socket error.
  [[nodiscard]] bool start();
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// One poll iteration: accept, read, dispatch, write, sweep timeouts.
  /// Returns false when the server was never started.
  bool poll_once(int timeout_ms);

  /// Loop poll_once until stop(). Run from exactly one thread.
  void run();
  /// Thread-safe: request run() to return (wakes a blocking poll).
  void stop();

  [[nodiscard]] NetStatsSnapshot stats() const;
  [[nodiscard]] BanList& bans() noexcept { return bans_; }
  [[nodiscard]] std::size_t connection_count() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// This server's section of the stats document (Gateway::stats_json),
  /// read from stats() at the call.
  [[nodiscard]] gateway::StatsSection stats_section() const;

 private:
  void handle_accepts(std::uint64_t now_ms);
  void handle_event(std::uint64_t tag, std::uint32_t events, std::uint64_t now_ms,
                    std::vector<std::pair<std::uint64_t, std::vector<Bytes>>>& batches);
  void dispatch(std::vector<std::pair<std::uint64_t, std::vector<Bytes>>>& batches,
                std::uint64_t now_ms);
  void sweep_timeouts(std::uint64_t now_ms);
  void update_interest(std::uint64_t tag, Connection& conn, std::uint64_t now_ms);
  void close_connection(std::uint64_t tag);

  FrameHandler& handler_;
  ServerConfig config_;
  ClockFn clock_;
  EventLoop loop_;
  BanList bans_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t next_tag_ = 1;  ///< 0 is the listener's tag
  /// Non-zero while the listener is muted after an fd-exhaustion accept
  /// failure; poll_once re-arms it once the deadline passes.
  std::uint64_t accept_paused_until_ms_ = 0;

  struct Entry {
    std::unique_ptr<Connection> conn;
    std::uint32_t interest = 0;  ///< last mask handed to epoll
    /// A framing error queues its kError response only after the
    /// responses to frames that completed before it (parity with direct
    /// serve order), so it is parked here until dispatch.
    bool error_pending = false;
    std::uint64_t error_rid = 0;
    bool eof_pending = false;
  };
  /// Ordered map: dispatch iterates connections in accept order, which
  /// (with in-order frames per connection) makes response order — and so
  /// the parity tests — deterministic.
  std::map<std::uint64_t, Entry> conns_;

  std::atomic<bool> stop_{false};
  std::vector<EventLoop::Ready> ready_;

  // Counters (loop thread writes, any thread reads).
  std::atomic<std::uint64_t> accepted_{0}, refused_banned_{0}, refused_full_{0};
  std::atomic<std::uint64_t> active_{0}, disconnects_{0};
  std::atomic<std::uint64_t> frames_in_{0}, responses_out_{0};
  std::atomic<std::uint64_t> bytes_in_{0}, bytes_out_{0};
  std::atomic<std::uint64_t> framing_errors_{0};
  std::atomic<std::uint64_t> timeouts_idle_{0}, timeouts_stall_{0};
  std::atomic<std::uint64_t> write_overflows_{0};
  std::atomic<std::uint64_t> sheds_seen_{0}, read_pauses_{0};
  std::atomic<std::uint64_t> accept_backoffs_{0};
};

}  // namespace btcfast::net
