#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "gateway/wire.h"

namespace btcfast::net {
namespace {

constexpr std::uint64_t kListenTag = 0;

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Response frame type without a full decode (offset 4 per the framing).
bool is_shed_response(ByteSpan resp) {
  return resp.size() > 4 &&
         resp[4] == static_cast<std::uint8_t>(gateway::MsgType::kRetryAfter);
}

std::string peer_string(const sockaddr_in& addr) {
  char buf[INET_ADDRSTRLEN] = {};
  if (::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf)) == nullptr) return "?";
  // Port excluded deliberately: misbehavior scores and bans attach to the
  // host, or a banned peer would evade by reconnecting from a new port.
  return buf;
}

}  // namespace

TcpServer::TcpServer(FrameHandler& handler, ServerConfig config, ClockFn clock)
    : handler_(handler),
      config_(std::move(config)),
      clock_(clock ? std::move(clock) : ClockFn(&steady_now_ms)),
      bans_(config_.ban) {}

TcpServer::~TcpServer() {
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

bool TcpServer::start() {
  if (!loop_.valid()) return false;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return false;
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) return false;
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  if (::listen(listen_fd_, 128) != 0) return false;

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) return false;
  port_ = ntohs(bound.sin_port);

  return loop_.add(listen_fd_, EventLoop::kRead, kListenTag);
}

void TcpServer::handle_accepts(std::uint64_t now_ms) {
  for (;;) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    const int fd = ::accept4(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;  // take the next one
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM) {
        // Resource exhaustion: the backlog stays pending, so with
        // level-triggered epoll the listener would wake every poll and
        // spin a core. Mute it and re-arm after a backoff (poll_once).
        if (loop_.mod(listen_fd_, 0, kListenTag)) {
          accept_paused_until_ms_ = now_ms + config_.accept_backoff_ms;
          accept_backoffs_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return;  // EAGAIN or transient error: nothing more to take
    }
    const std::string peer = peer_string(addr);
    if (bans_.is_banned(peer, now_ms)) {
      refused_banned_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    if (conns_.size() >= config_.max_connections) {
      refused_full_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const std::uint64_t tag = next_tag_++;
    Entry entry;
    entry.conn = std::make_unique<Connection>(fd, peer, config_.conn, now_ms);
    entry.interest = EventLoop::kRead;
    if (!loop_.add(fd, EventLoop::kRead, tag)) continue;  // entry dies, fd closes
    conns_.emplace(tag, std::move(entry));
    accepted_.fetch_add(1, std::memory_order_relaxed);
    active_.fetch_add(1, std::memory_order_relaxed);
  }
}

void TcpServer::close_connection(std::uint64_t tag) {
  auto it = conns_.find(tag);
  if (it == conns_.end()) return;
  bytes_in_.fetch_add(it->second.conn->bytes_in(), std::memory_order_relaxed);
  bytes_out_.fetch_add(it->second.conn->bytes_out(), std::memory_order_relaxed);
  (void)loop_.del(it->second.conn->fd());
  conns_.erase(it);
  active_.fetch_sub(1, std::memory_order_relaxed);
  disconnects_.fetch_add(1, std::memory_order_relaxed);
}

void TcpServer::update_interest(std::uint64_t tag, Connection& conn, std::uint64_t now_ms) {
  if (conn.close_after_flush() && !conn.wants_write()) {
    close_connection(tag);
    return;
  }
  std::uint32_t mask = 0;
  if (conn.wants_read(now_ms)) mask |= EventLoop::kRead;
  if (conn.wants_write()) mask |= EventLoop::kWrite;
  auto it = conns_.find(tag);
  if (it == conns_.end()) return;
  if (mask != it->second.interest) {
    if (loop_.mod(conn.fd(), mask, tag)) it->second.interest = mask;
  }
}

void TcpServer::handle_event(std::uint64_t tag, std::uint32_t events, std::uint64_t now_ms,
                             std::vector<std::pair<std::uint64_t, std::vector<Bytes>>>& batches) {
  auto it = conns_.find(tag);
  if (it == conns_.end()) return;  // stale tag: closed earlier this iteration
  Connection& conn = *it->second.conn;

  if (events & EventLoop::kWrite) {
    switch (conn.on_writable()) {
      case Connection::WriteResult::kError:
        close_connection(tag);
        return;
      case Connection::WriteResult::kDrained:
      case Connection::WriteResult::kAgain:
        break;
    }
    if (conn.close_after_flush() && !conn.wants_write()) {
      close_connection(tag);
      return;
    }
  }

  if ((events & EventLoop::kRead) && conn.wants_read(now_ms)) {
    auto ev = conn.on_readable(now_ms);
    frames_in_.fetch_add(ev.frames.size(), std::memory_order_relaxed);
    if (ev.framing_error) {
      framing_errors_.fetch_add(1, std::memory_order_relaxed);
      (void)bans_.misbehave(conn.peer(), config_.score_framing, now_ms);
      it->second.error_rid = ev.framing_error_rid;
      it->second.error_pending = true;
    }
    if (ev.eof) it->second.eof_pending = true;
    if (!ev.frames.empty() || it->second.error_pending || it->second.eof_pending) {
      // Finalization (error response ordering, close-after-flush) is
      // deferred to dispatch so responses to frames that completed
      // before the error/EOF still go out first.
      batches.emplace_back(tag, std::move(ev.frames));
      return;
    }
  }
  update_interest(tag, conn, now_ms);
}

void TcpServer::dispatch(std::vector<std::pair<std::uint64_t, std::vector<Bytes>>>& batches,
                         std::uint64_t now_ms) {
  if (batches.empty()) return;
  // Accept order, then per-connection arrival order: deterministic for
  // the byte-parity harness regardless of epoll's readiness order.
  std::sort(batches.begin(), batches.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<Bytes> flat;
  for (auto& [tag, frames] : batches) {
    for (auto& f : frames) flat.push_back(std::move(f));
  }
  std::vector<Bytes> responses;
  if (!flat.empty()) responses = handler_.handle(flat, now_ms);

  // Each batch's responses start at its cumulative frame offset. Never a
  // running index: a mid-batch close (write overflow) must not shift the
  // remaining connections onto the dead connection's leftover responses.
  std::size_t base = 0;
  for (auto& [tag, frames] : batches) {
    const std::size_t batch_base = base;
    base += frames.size();
    auto it = conns_.find(tag);
    if (it == conns_.end()) continue;
    Connection& conn = *it->second.conn;
    std::size_t sheds = 0;
    bool closed = false;
    for (std::size_t i = 0; i < frames.size() && batch_base + i < responses.size(); ++i) {
      const Bytes& resp = responses[batch_base + i];
      if (is_shed_response(resp)) {
        ++sheds;
        sheds_seen_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!conn.queue_response(resp)) {
        write_overflows_.fetch_add(1, std::memory_order_relaxed);
        close_connection(tag);
        closed = true;
        break;
      }
      responses_out_.fetch_add(1, std::memory_order_relaxed);
    }
    if (closed) continue;

    if (it->second.error_pending) {
      gateway::ErrorResponse err;
      err.code = core::RejectReason::kMalformedFrame;
      err.message = "framing violation";
      const Bytes resp =
          gateway::make_frame(gateway::MsgType::kError, it->second.error_rid, err.serialize());
      if (conn.queue_response(resp)) responses_out_.fetch_add(1, std::memory_order_relaxed);
      it->second.error_pending = false;
      conn.mark_close_after_flush();
    }
    if (it->second.eof_pending) conn.mark_close_after_flush();

    // Admission backpressure: when the gateway shed everything this
    // connection sent, stop reading from it for a beat instead of
    // spinning shed responses at wire speed.
    if (sheds > 0 && sheds == frames.size()) {
      conn.pause_reads_until(now_ms + config_.shed_backoff_ms);
      read_pauses_.fetch_add(1, std::memory_order_relaxed);
    }

    // Opportunistic flush: the common case finishes without waiting for
    // an EPOLLOUT round trip.
    if (conn.wants_write() && conn.on_writable() == Connection::WriteResult::kError) {
      close_connection(tag);
      continue;
    }
    update_interest(tag, conn, now_ms);
  }
}

void TcpServer::sweep_timeouts(std::uint64_t now_ms) {
  std::vector<std::uint64_t> to_close;
  for (auto& [tag, entry] : conns_) {
    Connection& conn = *entry.conn;
    switch (conn.check_timeout(now_ms)) {
      case Connection::TimeoutKind::kFrameStall:
        timeouts_stall_.fetch_add(1, std::memory_order_relaxed);
        (void)bans_.misbehave(conn.peer(), config_.score_stall, now_ms);
        to_close.push_back(tag);
        continue;
      case Connection::TimeoutKind::kIdle:
        timeouts_idle_.fetch_add(1, std::memory_order_relaxed);
        to_close.push_back(tag);
        continue;
      case Connection::TimeoutKind::kNone:
        break;
    }
    // Re-arm reads whose shed backoff expired, and reap drained
    // close-after-flush connections (update_interest may erase, so only
    // via the deferred list).
    if (conn.close_after_flush() && !conn.wants_write()) {
      to_close.push_back(tag);
      continue;
    }
    std::uint32_t mask = 0;
    if (conn.wants_read(now_ms)) mask |= EventLoop::kRead;
    if (conn.wants_write()) mask |= EventLoop::kWrite;
    if (mask != entry.interest && loop_.mod(conn.fd(), mask, tag)) entry.interest = mask;
  }
  for (const auto tag : to_close) close_connection(tag);
}

bool TcpServer::poll_once(int timeout_ms) {
  if (listen_fd_ < 0) return false;
  (void)loop_.wait(ready_, timeout_ms);
  const std::uint64_t now_ms = clock_();
  if (accept_paused_until_ms_ != 0 && now_ms >= accept_paused_until_ms_) {
    if (loop_.mod(listen_fd_, EventLoop::kRead, kListenTag)) accept_paused_until_ms_ = 0;
  }
  std::vector<std::pair<std::uint64_t, std::vector<Bytes>>> batches;
  for (const auto& ev : ready_) {
    if (ev.tag == kListenTag) {
      handle_accepts(now_ms);
    } else {
      handle_event(ev.tag, ev.events, now_ms, batches);
    }
  }
  dispatch(batches, now_ms);
  sweep_timeouts(now_ms);
  return true;
}

void TcpServer::run() {
  while (!stop_.load(std::memory_order_acquire)) {
    if (!poll_once(config_.poll_timeout_ms)) return;
  }
}

void TcpServer::stop() {
  stop_.store(true, std::memory_order_release);
  loop_.wake();
}

NetStatsSnapshot TcpServer::stats() const {
  NetStatsSnapshot s;
  s.conns_accepted = accepted_.load(std::memory_order_relaxed);
  s.conns_refused_banned = refused_banned_.load(std::memory_order_relaxed);
  s.conns_refused_full = refused_full_.load(std::memory_order_relaxed);
  s.conns_active = active_.load(std::memory_order_relaxed);
  s.disconnects = disconnects_.load(std::memory_order_relaxed);
  s.frames_in = frames_in_.load(std::memory_order_relaxed);
  s.responses_out = responses_out_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.framing_errors = framing_errors_.load(std::memory_order_relaxed);
  s.timeouts_idle = timeouts_idle_.load(std::memory_order_relaxed);
  s.timeouts_stall = timeouts_stall_.load(std::memory_order_relaxed);
  s.write_overflows = write_overflows_.load(std::memory_order_relaxed);
  s.sheds_seen = sheds_seen_.load(std::memory_order_relaxed);
  s.read_pauses = read_pauses_.load(std::memory_order_relaxed);
  s.accept_backoffs = accept_backoffs_.load(std::memory_order_relaxed);
  s.bans_issued = bans_.bans_issued();
  return s;
}

gateway::StatsSection TcpServer::stats_section() const {
  const auto s = stats();
  return {"net",
          {{"conns_accepted", s.conns_accepted},
           {"conns_active", s.conns_active},
           {"bans", s.bans_issued},
           {"frames_in", s.frames_in},
           {"sheds_seen", s.sheds_seen},
           {"disconnects", s.disconnects}},
          {}};
}

}  // namespace btcfast::net
