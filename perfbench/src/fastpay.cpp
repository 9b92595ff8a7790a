#include "fastpay.h"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <string_view>
#include <unordered_map>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/thread_pool.h"
#include "crypto/sigcache.h"
#include "gateway/pipeline.h"
#include "gateway/wire.h"
#include "net/frame_assembler.h"
#include "net/server.h"
#include "replication/failover.h"
#include "replication/follower.h"
#include "store/recovery.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using gateway::MsgType;

// ---- workload constants ---------------------------------------------------
// Load shape, not program tuning: every layer runs with its library
// defaults. The constants were fixed when this benchmark was introduced
// and must not change afterwards, so later commits are measured against
// the same offered load.
constexpr std::size_t kColdCustomers = 2048;  ///< 4x PubkeyPrecompCache's 512
constexpr std::size_t kHotCustomers = 4;      ///< one per escrow, far under the cache
/// Closed-loop pool size per second of --seconds/2: about the saturated
/// goodput on the introducing commit's 4-core host, so the closed-loop
/// repetitions took about half the run. The pool, not a timer, ends them.
constexpr double kColdClosedRate = 2500;
constexpr double kHotClosedRate = 2500;
/// Open-loop offered rates: about a fifth of the saturated goodput above
/// (hot_mixed groups carry three frames). At half of it, the host's own
/// slow spells (which halve the serving rate for tens of seconds) pushed
/// the loop into saturation and the latencies measured the queue, not
/// the program.
constexpr double kColdOpenRate = 500;  ///< submits/s
constexpr double kHotOpenRate = 400;   ///< op groups/s (submit + 2 reads)
constexpr std::size_t kConnections = 4;
/// Closed-loop frames in flight: enough that the loop still has a backlog
/// while the generator refills (at 64 the loop drained the whole window
/// each call and then idled on the generator's wake-up), and below the
/// gateway's default admission bound of 256, so a batch is never shed.
constexpr std::size_t kWindowFrames = 192;
constexpr std::size_t kRounds = 40;        ///< closed + open repetition pairs per pass
constexpr std::uint64_t kFlushPeriodNs = 10'000'000;
constexpr std::uint64_t kTimeoutNs = 10'000'000'000ULL;
constexpr int kMaxRetries = 8;

FastpayShape shape_for(FastpayKind kind, double seconds, bool traced) {
  FastpayShape s;
  s.kind = kind;
  const bool cold = kind == FastpayKind::kCold;
  s.customers = cold ? kColdCustomers : kHotCustomers;
  const double phase = seconds / 2;
  const double passes = traced ? 2 : 1;
  s.closed_groups =
      static_cast<std::size_t>((cold ? kColdClosedRate : kHotClosedRate) * phase * passes);
  s.open_rate_per_s = cold ? kColdOpenRate : kHotOpenRate;
  s.open_seconds = phase * passes;
  return s;
}

std::uint64_t frame_rid(const Bytes& frame) {
  std::uint64_t rid = 0;
  if (frame.size() >= net::kHeaderFixedBytes) std::memcpy(&rid, frame.data() + 5, 8);
  return rid;  // little-endian host
}

// ---- bench-side decorators (all spans come from here) --------------------

/// CommitGate wrapper that times every quorum_commit on the thread that
/// calls it (the server loop, or the main thread after the loop stopped).
class TimedGate final : public store::CommitGate {
 public:
  TimedGate(store::CommitGate& inner, SpanLog& log, const std::uint64_t& call)
      : inner_(inner), log_(log), call_(call) {}
  [[nodiscard]] bool quorum_commit(std::uint64_t seq, std::uint64_t now_ms) override {
    const std::uint64_t t0 = now_ns();
    const bool ok = inner_.quorum_commit(seq, now_ms);
    log_.add("quorum", seq, call_, t0, now_ns());
    return ok;
  }

 private:
  store::CommitGate& inner_;
  SpanLog& log_;
  const std::uint64_t& call_;
};

/// FrameHandler decorator around net::GatewayHandler. Between batches, at
/// a fixed period, it drains the gateway's commit queues with
/// flush_accepted — the only safe point on the loop thread — so epoch
/// group commit and merchant apply stay inside the measured stack.
class BenchHandler final : public net::FrameHandler {
 public:
  /// Handler call ids continue from `first_call`, so spans of successive
  /// handlers on one gateway never share an id.
  BenchHandler(gateway::Gateway& gw, std::uint64_t sim_now_ms, SpanLog& log,
               std::uint64_t first_call)
      : gw_(gw), inner_(gw), sim_now_ms_(sim_now_ms), log_(log), call_(first_call) {
    inner_.pin_time(sim_now_ms);
  }

  [[nodiscard]] std::vector<Bytes> handle(const std::vector<Bytes>& frames,
                                          std::uint64_t now_ms) override {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t call = ++call_;
    if (t0 - last_flush_ns_ >= kFlushPeriodNs) {
      flush(call);
      last_flush_ns_ = t0;
    }
    auto out = inner_.handle(frames, now_ms);
    const std::uint64_t t1 = now_ns();
    if (log_.enabled()) {
      log_.add("handle", call, 0, t0, t1);
      for (const auto& f : frames) log_.add("frame", frame_rid(f), call, t0, t1);
    }
    busy_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
    frames_.fetch_add(frames.size(), std::memory_order_relaxed);
    return out;
  }

  /// Drain the commit queues once; `parent` is the handler call it runs in.
  void flush(std::uint64_t parent) {
    const std::uint64_t depth = gw_.commit_queue_depth();
    if (depth > depth_max_.load(std::memory_order_relaxed)) {
      depth_max_.store(depth, std::memory_order_relaxed);
    }
    const std::uint64_t t0 = now_ns();
    (void)gw_.flush_accepted(sim_now_ms_);
    const std::uint64_t t1 = now_ns();
    log_.add("flush", flush_calls_.fetch_add(1, std::memory_order_relaxed) + 1, parent, t0, t1);
  }

  const std::uint64_t& current_call() const noexcept { return call_; }

  struct Counters {
    std::uint64_t busy_ns = 0, calls = 0, frames = 0, flush_calls = 0;
  };
  [[nodiscard]] Counters counters() const {
    return {busy_ns_.load(std::memory_order_relaxed), calls_.load(std::memory_order_relaxed),
            frames_.load(std::memory_order_relaxed),
            flush_calls_.load(std::memory_order_relaxed)};
  }
  [[nodiscard]] std::uint64_t depth_max() const {
    return depth_max_.load(std::memory_order_relaxed);
  }

 private:
  gateway::Gateway& gw_;
  net::GatewayHandler inner_;
  std::uint64_t sim_now_ms_;
  SpanLog& log_;
  std::uint64_t call_;  ///< loop-thread only
  std::uint64_t last_flush_ns_ = 0;
  std::atomic<std::uint64_t> busy_ns_{0}, calls_{0}, frames_{0}, flush_calls_{0}, depth_max_{0};
};

// ---- the composed stack -----------------------------------------------------

/// The durable, replicated serving half of the stack: a primary store
/// (library-default kBatch fsync), one in-process follower at quorum 1,
/// the bench handler and the TCP server with its loop thread. Every
/// repetition gets a fresh one, so each starts from an empty WAL book.
/// The gateway and the merchant behind it are not rebuilt: their ledger
/// and pending book grow from one repetition to the next, in the same
/// way on every run. Members are declared in build order and torn down
/// in reverse (server first).
struct Serving {
  std::string primary_dir, follower_dir;
  std::unique_ptr<store::DurableStore> store;
  std::unique_ptr<replication::Follower> follower;
  std::unique_ptr<replication::LocalFollowerLink> link;
  std::unique_ptr<replication::ReplicationGroup> group;
  std::unique_ptr<BenchHandler> handler;
  std::unique_ptr<TimedGate> gate;
  std::unique_ptr<net::TcpServer> server;
  std::thread loop;

  Serving() = default;
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;
  ~Serving() { stop_server(); }
  void stop_server() {
    if (loop.joinable()) {
      server->stop();
      loop.join();
    }
  }
};

/// One build of the serving process: the world, the gateway in front of
/// its merchant, and the current serving half.
struct Stack {
  std::unique_ptr<World> world;
  std::unique_ptr<gateway::Gateway> gw;
  std::unique_ptr<Serving> serving;
  std::string dir;
  std::size_t generation = 0;     ///< serving halves built so far
  std::uint64_t handler_calls = 0;  ///< handler calls of earlier serving halves
  std::uint64_t accepts = 0;        ///< accepts of earlier repetitions
};

/// Replace the stack's serving half with a fresh one attached to the same
/// gateway. The old half must be flushed and stopped already.
/// The loop thread runs on `loop_cpu` (see pin_to_cpu; -1 leaves it to
/// the scheduler).
bool attach_serving(Stack& s, SpanLog& loop_log, std::string* error, int loop_cpu = -1) {
  if (s.serving) {
    s.handler_calls = s.serving->handler->current_call();
    s.gw->attach_commit_gate(nullptr);
    s.gw->attach_store(nullptr);
    s.serving.reset();
  }
  auto v = std::make_unique<Serving>();
  const std::string dir = s.dir + "/" + std::to_string(s.generation++);
  v->primary_dir = dir + "/primary";
  v->follower_dir = dir + "/follower";
  fs::remove_all(dir);
  fs::create_directories(dir);
  v->store = store::DurableStore::open(v->primary_dir, store::StoreOptions{});
  v->follower = replication::Follower::open(v->follower_dir, replication::Follower::Options{},
                                            error);
  if (!v->store || !v->follower) {
    if (error->empty()) *error = "durable store open failed";
    return false;
  }
  v->link = std::make_unique<replication::LocalFollowerLink>(v->follower.get());
  replication::ReplicationConfig rcfg;
  rcfg.quorum = 1;
  v->group = std::make_unique<replication::ReplicationGroup>(rcfg);
  v->group->attach_primary(v->store.get());
  v->group->add_follower(v->link.get());
  v->handler =
      std::make_unique<BenchHandler>(*s.gw, s.world->now_ms, loop_log, s.handler_calls);
  v->gate = std::make_unique<TimedGate>(*v->group, loop_log, v->handler->current_call());
  s.gw->attach_store(v->store.get());
  s.gw->attach_commit_gate(v->gate.get());
  v->server = std::make_unique<net::TcpServer>(*v->handler, net::ServerConfig{});
  if (!v->server->start()) {
    *error = "server start failed";
    return false;
  }
  v->loop = std::thread([srv = v->server.get(), loop_cpu] {
    pin_to_cpu(loop_cpu);
    srv->run();
  });
  s.serving = std::move(v);
  return true;
}

/// Build the whole stack; set-up steps go to `log`.
std::unique_ptr<Stack> build_stack(const Plan& plan, const std::string& dir, SpanLog& log,
                                   SpanLog& loop_log, std::string* error) {
  auto s = std::make_unique<Stack>();
  s->dir = dir;
  fs::remove_all(dir);
  auto step = [&](const char* name, std::uint64_t t0) { log.add(name, 0, 0, t0, now_ns()); };

  std::uint64_t t = now_ns();
  s->world = build_world(plan, error);
  if (!s->world) return nullptr;
  step("setup.world", t);

  t = now_ns();
  core::Deployment& dep = *s->world->dep;
  s->gw = std::make_unique<gateway::Gateway>(dep.merchant(), common::ThreadPool::global(),
                                             gateway::GatewayConfig{});
  for (const auto& inv : s->world->invoices) s->gw->register_invoice(inv);
  for (const auto& w : s->world->wallets) s->gw->track_escrow(w->escrow_id());
  step("setup.gateway", t);

  t = now_ns();
  if (!attach_serving(*s, loop_log, error)) return nullptr;
  step("setup.serving", t);
  return s;
}

// ---- the load generator -----------------------------------------------------

/// Per-request client state, indexed by request id - 1.
struct Req {
  std::uint64_t due_ns = 0;   ///< when it was due (closed loop: first send)
  std::uint64_t sent_ns = 0;  ///< first send
  std::uint64_t done_ns = 0;  ///< terminal response received
  std::uint8_t retries = 0;
  bool in_flight = false;
  bool ok = false;  ///< terminal outcome was the expected success
};

/// What a read saw, checked against the client's own record at the end.
struct ReadSeen {
  std::optional<gateway::EscrowInfoResponse> escrow;
  psc::Value reserved_floor = 0;  ///< accepts the client had seen on that escrow, at send
  std::optional<gateway::ReceiptInfoResponse> receipt;
};

/// What one repetition measured, or the span of all repetitions of a kind.
struct PhaseResult {
  std::uint64_t start_ns = 0, end_ns = 0;
  double accepts_per_s = 0;
  std::size_t first_group = 0, last_group = 0;  ///< [first, last) sent
  std::vector<double> lag_ms;
};

/// Open-loop latencies from the due time, in ms: every answered request,
/// and split into submits and reads.
struct OpenLatency {
  std::vector<double> all, accept, read;
};

/// One repetition: a slice of the closed-loop pool, or of the open-loop
/// schedule, in round `round` of its pass.
struct Rep {
  bool open = false;
  std::size_t begin = 0, end = 0;
  std::size_t round = 0;
};

/// Time each gateway stage spent between two stats snapshots, in us,
/// and the number of submits it was recorded for.
struct StageTotals {
  double sum_us[gateway::kStageCount] = {};
  double count[gateway::kStageCount] = {};

  void add_delta(const gateway::GatewayStats& before, const gateway::GatewayStats& after) {
    for (std::size_t k = 0; k < gateway::kStageCount; ++k) {
      const auto& a = after.stage(static_cast<gateway::Stage>(k));
      const auto& b = before.stage(static_cast<gateway::Stage>(k));
      sum_us[k] += a.mean_us() * static_cast<double>(a.count()) -
                   b.mean_us() * static_cast<double>(b.count());
      count[k] += static_cast<double>(a.count() - b.count());
    }
  }
  [[nodiscard]] double mean_us(gateway::Stage s) const {
    const auto k = static_cast<std::size_t>(s);
    return ratio(sum_us[k], count[k]);
  }
};

/// One measured pass, over all its repetitions.
struct PassOutcome {
  PhaseResult closed, open;  ///< each spans all repetitions of its kind
  OpenLatency lat;           ///< pooled over the open-loop repetitions
  std::vector<double> rep_rate, rep_p50, rep_p90, rep_p99;  ///< per repetition
  BenchHandler::Counters handler;  ///< closed-loop repetitions only
  StageTotals open_stages;         ///< gateway stage time, open-loop repetitions only
  double closed_s = 0, open_s = 0;  ///< wall time in each kind of repetition
  std::uint64_t flush_calls = 0;
  std::uint64_t attempted = 0, failed = 0;
  bool checks = false;
};

/// Where a traced pass leaves its spans and per-layer metrics.
struct TraceSink {
  SpanLog loop_spans{true};
  SpanLog client_spans{true};
  Metrics metrics;
};

class LoadGen {
 public:
  LoadGen(const Plan& plan, const std::vector<Bytes>& frames)
      : plan_(plan),
        frames_(frames),
        fpg_(plan.shape.frames_per_group()),
        reqs_(frames.size()),
        reads_(plan.groups()),
        accepted_on_(plan.shape.customers, 0) {}

  bool connect(std::uint16_t port) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) return false;
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return false;
      }
      (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      conns_.push_back(std::make_unique<Conn>(fd));
    }
    return true;
  }
  ~LoadGen() {
    for (auto& c : conns_) ::close(c->fd);
  }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Closed loop: keep kWindowFrames in flight until every group of the
  /// pool [first, last) is answered. A fixed pool (rather than a fixed
  /// time) keeps the ledger and WAL growth identical on every run, so a
  /// faster program is not charged for the larger book it would build.
  /// Goodput counts the accepts after the first tenth of them, over the
  /// time from that answer to the last.
  PhaseResult run_closed(std::size_t first, std::size_t last) {
    PhaseResult r;
    r.first_group = first;
    r.start_ns = now_ns();
    std::size_t next = first;
    for (;;) {
      const std::uint64_t now = now_ns();
      while (next < last && in_flight_ + fpg_ <= kWindowFrames) send_group(next++, now, now);
      if (next == last && in_flight_ == 0) break;
      service(now, 50'000'000);
    }
    r.last_group = next;
    r.end_ns = now_ns();
    std::vector<std::uint64_t> answers;
    for (std::size_t g = first; g < next; ++g) {
      if (reqs_[g * fpg_].ok) answers.push_back(reqs_[g * fpg_].done_ns);
    }
    std::sort(answers.begin(), answers.end());
    const std::size_t skip = answers.size() / 10;
    if (answers.size() > skip + 1 && answers.back() > answers[skip]) {
      r.accepts_per_s = static_cast<double>(answers.size() - skip - 1) /
                        (static_cast<double>(answers.back() - answers[skip]) / 1e9);
    }
    return r;
  }

  /// Open loop: group first+k is due at start + due_ns[k], whether or not
  /// earlier ones were answered. Latency runs from the due time.
  PhaseResult run_open(std::size_t first, const std::vector<std::uint64_t>& due_ns,
                       std::size_t begin, std::size_t end) {
    PhaseResult r;
    r.first_group = first;
    r.start_ns = now_ns();
    const std::uint64_t base = due_ns[begin];
    std::size_t k = begin;
    for (;;) {
      const std::uint64_t now = now_ns();
      while (k < end && r.start_ns + (due_ns[k] - base) <= now) {
        const std::uint64_t due = r.start_ns + (due_ns[k] - base);
        r.lag_ms.push_back(static_cast<double>(now - due) / 1e6);
        send_group(first + (k - begin), due, now);
        ++k;
      }
      if (k == end && in_flight_ == 0) break;
      const std::uint64_t wait =
          k < end ? r.start_ns + (due_ns[k] - base) - std::min(now, r.start_ns + (due_ns[k] - base))
                  : 50'000'000;
      service(now, wait);
    }
    r.last_group = first + (end - begin);
    r.end_ns = now_ns();
    return r;
  }

  [[nodiscard]] const std::vector<Req>& reqs() const noexcept { return reqs_; }
  [[nodiscard]] const std::vector<ReadSeen>& reads() const noexcept { return reads_; }
  [[nodiscard]] std::uint64_t protocol_errors() const noexcept { return protocol_errors_; }
  [[nodiscard]] std::uint64_t accepts() const {
    std::uint64_t n = 0;
    for (std::size_t g = 0; g < plan_.groups(); ++g) n += reqs_[g * fpg_].ok ? 1 : 0;
    return n;
  }
  void set_log(SpanLog* log) { log_ = log; }

 private:
  struct Conn {
    explicit Conn(int f) : fd(f) {}
    int fd;
    net::FrameAssembler assembler;
    Bytes out;
    std::size_t out_off = 0;
    bool dead = false;
  };

  void send_group(std::size_t g, std::uint64_t due, std::uint64_t now) {
    Conn& c = *conns_[g % conns_.size()];
    if (plan_.shape.kind == FastpayKind::kHotMixed) {
      const auto payer = plan_.payer[g];
      reads_[g].reserved_floor = kCompensation * accepted_on_[payer];
    }
    for (std::size_t i = 0; i < fpg_; ++i) {
      Req& q = reqs_[g * fpg_ + i];
      q.due_ns = due;
      q.sent_ns = now;
      q.in_flight = true;
      ++in_flight_;
      append(c.out, frames_[g * fpg_ + i]);
    }
    write_out(c);
  }

  void resend(std::size_t idx) {
    Conn& c = *conns_[(idx / fpg_) % conns_.size()];
    append(c.out, frames_[idx]);
    write_out(c);
  }

  void write_out(Conn& c) {
    while (!c.dead && c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        kill(c);
        return;
      }
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }

  /// A dead connection fails every request still waiting on it.
  void kill(Conn& c) {
    c.dead = true;
    for (std::size_t idx = 0; idx < reqs_.size(); ++idx) {
      if (reqs_[idx].in_flight && conns_[(idx / fpg_) % conns_.size()].get() == &c) {
        finish(idx, false, now_ns());
      }
    }
  }

  void finish(std::size_t idx, bool ok, std::uint64_t now) {
    Req& q = reqs_[idx];
    if (!q.in_flight) return;
    q.in_flight = false;
    q.done_ns = now;
    q.ok = ok;
    --in_flight_;
    if (log_ != nullptr) {
      log_->add(idx % fpg_ == 0 ? "client.submit" : "client.read", idx + 1, 0, q.sent_ns, now);
      log_->add("client.lag", idx + 1, 0, q.due_ns, q.sent_ns);
    }
  }

  /// Wait up to `wait_ns` for socket events, then handle responses,
  /// retries that came due, and timeouts.
  void service(std::uint64_t now, std::uint64_t wait_ns) {
    if (!retries_.empty()) {
      std::uint64_t soonest = ~0ULL;
      for (const auto& [when, idx] : retries_) soonest = std::min(soonest, when);
      wait_ns = std::min(wait_ns, soonest > now ? soonest - now : 0);
    }
    pollfd pfds[kConnections];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pfds[i].fd = conns_[i]->dead ? -1 : conns_[i]->fd;
      pfds[i].events = POLLIN | (conns_[i]->out.empty() ? 0 : POLLOUT);
      pfds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000ULL),
                static_cast<long>(wait_ns % 1'000'000'000ULL)};
    const int n = ::ppoll(pfds, conns_.size(), &ts, nullptr);
    if (n > 0) {
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        Conn& c = *conns_[i];
        if (c.dead || pfds[i].revents == 0) continue;
        if (pfds[i].revents & POLLOUT) write_out(c);
        if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) read_in(c);
      }
    }
    const std::uint64_t t = now_ns();
    for (std::size_t i = 0; i < retries_.size();) {
      if (retries_[i].first <= t) {
        resend(retries_[i].second);
        retries_[i] = retries_.back();
        retries_.pop_back();
      } else {
        ++i;
      }
    }
    if (t - last_timeout_scan_ > 100'000'000) {
      last_timeout_scan_ = t;
      for (std::size_t idx = 0; idx < reqs_.size(); ++idx) {
        if (reqs_[idx].in_flight && t - reqs_[idx].sent_ns > kTimeoutNs) finish(idx, false, t);
      }
    }
  }

  void read_in(Conn& c) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        if (!c.assembler.feed({buf, static_cast<std::size_t>(n)})) {
          ++protocol_errors_;
          kill(c);
          return;
        }
        const std::uint64_t now = now_ns();
        while (auto frame = c.assembler.next_frame()) on_frame(*frame, now);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      kill(c);  // EOF or error with requests possibly outstanding
      return;
    }
  }

  void on_frame(const Bytes& bytes, std::uint64_t now) {
    const auto frame = gateway::Frame::deserialize(bytes);
    if (!frame || frame->request_id == 0 || frame->request_id > reqs_.size() ||
        !reqs_[frame->request_id - 1].in_flight) {
      ++protocol_errors_;
      return;
    }
    const std::size_t idx = frame->request_id - 1;
    const std::size_t g = idx / fpg_, slot = idx % fpg_;
    Req& q = reqs_[idx];
    switch (frame->type) {
      case MsgType::kRetryAfter: {
        const auto hint = gateway::RetryAfterResponse::deserialize(frame->payload);
        if (!hint || q.retries >= kMaxRetries) {
          finish(idx, false, now);
          return;
        }
        ++q.retries;
        const std::uint64_t delay_ms = std::clamp<std::uint64_t>(hint->retry_after_ms, 1, 100);
        retries_.emplace_back(now + delay_ms * 1'000'000, idx);
        return;
      }
      case MsgType::kFastPayResult: {
        const auto r = gateway::FastPayResultResponse::deserialize(frame->payload);
        const bool ok = slot == 0 && r && r->accepted && r->reservation_id != 0;
        if (ok) ++accepted_on_[plan_.payer[g]];
        finish(idx, ok, now);
        return;
      }
      case MsgType::kEscrowInfo: {
        auto r = gateway::EscrowInfoResponse::deserialize(frame->payload);
        if (slot == 1 && r) reads_[g].escrow = *r;
        finish(idx, slot == 1 && r.has_value(), now);
        return;
      }
      case MsgType::kReceiptInfo: {
        auto r = gateway::ReceiptInfoResponse::deserialize(frame->payload);
        if (slot == 2 && r) reads_[g].receipt = *r;
        finish(idx, slot == 2 && r.has_value(), now);
        return;
      }
      default:  // kError or a response type no request asked for
        finish(idx, false, now);
        return;
    }
  }

  const Plan& plan_;
  const std::vector<Bytes>& frames_;
  std::size_t fpg_;
  std::vector<Req> reqs_;
  std::vector<ReadSeen> reads_;
  std::vector<std::uint64_t> accepted_on_;  ///< per customer
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::pair<std::uint64_t, std::size_t>> retries_;  ///< (due, idx)
  std::size_t in_flight_ = 0;
  std::uint64_t protocol_errors_ = 0;
  std::uint64_t last_timeout_scan_ = 0;
  SpanLog* log_ = nullptr;
};

// ---- checks -------------------------------------------------------------------

/// Every output check after one repetition sent groups [first, last)
/// through the stack's current serving half, which it then retires.
/// Prints each failure to stderr.
bool check_repetition(const Plan& plan, Stack& s, LoadGen& gen, std::size_t first,
                      std::size_t last, std::uint64_t gw_accepts_before) {
  bool ok = true;
  auto fail = [&ok](const std::string& what) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ok = false;
  };
  const std::size_t fpg = plan.shape.frames_per_group();
  const auto& reqs = gen.reqs();
  const std::uint64_t accepts = gen.accepts();

  // Client accepts == gateway accepts == live ledger reservations.
  const std::uint64_t gw_accepts = s.gw->stats().accepts() - gw_accepts_before;
  const std::uint64_t live = s.gw->reservations_granted() - s.gw->reservations_released() -
                             s.gw->reservations_expired();
  if (gw_accepts != accepts || live != s.accepts + accepts) {
    fail("accepts: client " + std::to_string(accepts) + ", gateway " +
         std::to_string(gw_accepts) + ", live reservations " + std::to_string(live) +
         " (earlier repetitions " + std::to_string(s.accepts) + ")");
  }
  std::uint64_t ledger_live = 0;
  for (std::size_t c = 0; c < plan.shape.customers; ++c) {
    const auto id = s.world->wallets[c]->escrow_id();
    const auto snap = s.gw->escrow_snapshot(id);
    if (!snap) {
      fail("escrow " + std::to_string(id) + " missing from the ledger");
      continue;
    }
    ledger_live += snap->live_reservations;
    if (snap->view.reserved + snap->local_reserved > snap->view.collateral) {
      fail("escrow " + std::to_string(id) + " reserved beyond its collateral");
    }
  }
  if (ledger_live != s.accepts + accepts) fail("per-escrow live reservations != accepts");

  // Reads agree with the ledger and with the client's own record.
  for (std::size_t g = first; plan.shape.kind == FastpayKind::kHotMixed && g < last; ++g) {
    const ReadSeen& rd = gen.reads()[g];
    const auto snap = s.gw->escrow_snapshot(s.world->wallets[plan.payer[g]]->escrow_id());
    if (rd.escrow && snap) {
      const auto& e = *rd.escrow;
      if (!e.found || e.state != static_cast<std::uint64_t>(snap->view.state) ||
          e.collateral != snap->view.collateral || e.reserved < rd.reserved_floor ||
          e.reserved > snap->view.collateral) {
        fail("QueryEscrow answer of group " + std::to_string(g) + " disagrees with the ledger");
      }
    }
    const std::size_t t = receipt_target(g);
    if (rd.receipt && t >= first) {  // earlier repetitions' records are gone with their client
      const Req& target = reqs[t * fpg];
      const Req& read = reqs[g * fpg + 2];
      if (rd.receipt->found) {
        if (rd.receipt->accepted != target.ok ||
            (target.ok && rd.receipt->code != core::RejectReason::kNone)) {
          fail("GetReceipt of group " + std::to_string(g) + " disagrees with the client record");
        }
      } else if (target.done_ns != 0 && target.done_ns < read.sent_ns) {
        // Receipts are a bounded best-effort cache; a decision at most
        // kReceiptLag groups back in this repetition must still be there.
        fail("GetReceipt of group " + std::to_string(g) + " lost an answered decision");
      }
    }
  }

  // Follower state == primary state, each rebuilt by WAL replay.
  Serving& v = *s.serving;
  if (v.follower->cursor().last_seq != v.store->last_committed_seq()) {
    fail("follower behind the primary after the final pump");
  }
  const std::string primary_dir = v.primary_dir, follower_dir = v.follower_dir;
  s.handler_calls = v.handler->current_call();
  s.gw->attach_commit_gate(nullptr);
  s.gw->attach_store(nullptr);
  s.serving.reset();
  store::RecoveryInfo pi, fi;
  const auto primary = store::DurableStore::open(primary_dir, store::StoreOptions{}, &pi);
  const auto follower = store::DurableStore::open(follower_dir, store::StoreOptions{}, &fi);
  if (!primary || !follower) {
    fail("WAL replay failed: " + pi.error + fi.error);
  } else {
    const auto a = primary->image_copy();
    const auto b = follower->image_copy();
    if (a.serialize() != b.serialize()) fail("follower image differs from the primary image");
    if (a.reservations.size() != accepts || a.accepted.size() != accepts) {
      fail("replayed image holds " + std::to_string(a.reservations.size()) + " reservations, " +
           std::to_string(a.accepted.size()) + " accepted, for " + std::to_string(accepts) +
           " accepts");
    }
  }
  s.accepts += accepts;
  return ok;
}

// ---- per-layer analysis of one pass ----------------------------------------

struct Snapshot {
  net::NetStatsSnapshot net;
  std::uint64_t wal_appends = 0, wal_syncs = 0, wal_bytes = 0;
  replication::ReplicationStats repl;
};

Snapshot take_snapshot(const Serving& v) {
  return {v.server->stats(), v.store->wal_appends(), v.store->wal_syncs(), v.store->wal_bytes(),
          v.group->stats()};
}

/// Verify jobs per micro-batch of the gateway's verify batcher.
double coalesced_per_batch(const gateway::Gateway& gw) {
  return ratio(static_cast<double>(gw.batcher().coalesced_jobs()),
               static_cast<double>(gw.batcher().batches()));
}

OpenLatency open_latency(const std::vector<Req>& reqs, const PhaseResult& open, std::size_t fpg) {
  OpenLatency out;
  for (std::size_t g = open.first_group; g < open.last_group; ++g) {
    for (std::size_t i = 0; i < fpg; ++i) {
      const Req& q = reqs[g * fpg + i];
      if (!q.ok) continue;
      const double ms = static_cast<double>(q.done_ns - q.due_ns) / 1e6;
      out.all.push_back(ms);
      (i == 0 ? out.accept : out.read).push_back(ms);
    }
  }
  return out;
}

std::uint64_t count_accepts(const std::vector<Req>& reqs, const PhaseResult& p, std::size_t fpg) {
  std::uint64_t n = 0;
  for (std::size_t g = p.first_group; g < p.last_group; ++g) n += reqs[g * fpg].ok ? 1 : 0;
  return n;
}

/// The loop thread's spans, indexed by handler call.
struct LoopTrace {
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> handle;
  std::unordered_map<std::uint64_t, std::uint64_t> call_of;     ///< request id -> call
  std::unordered_map<std::uint64_t, std::uint64_t> flush_ns;    ///< call -> flush time
  std::unordered_map<std::uint64_t, std::uint64_t> quorum_ns;   ///< call -> quorum outside flush
  std::unordered_map<std::uint64_t, std::uint64_t> submits_in;  ///< call -> submit frames
  std::vector<double> flush_ms, quorum_us;
};

LoopTrace index_loop_trace(const SpanLog& log, std::size_t fpg) {
  LoopTrace t;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> flush_window;
  for (const Span& sp : log.spans()) {
    const std::string_view name = sp.name;
    if (name == "handle") {
      t.handle[sp.key] = {sp.start_ns, sp.end_ns};
    } else if (name == "frame") {
      t.call_of[sp.key] = sp.parent;
      if ((sp.key - 1) % fpg == 0) ++t.submits_in[sp.parent];
    } else if (name == "flush") {
      flush_window[sp.parent] = {sp.start_ns, sp.end_ns};
      t.flush_ns[sp.parent] += sp.end_ns - sp.start_ns;
      t.flush_ms.push_back(static_cast<double>(sp.end_ns - sp.start_ns) / 1e6);
    }
  }
  for (const Span& sp : log.spans()) {
    if (std::string_view(sp.name) != "quorum") continue;
    t.quorum_us.push_back(static_cast<double>(sp.end_ns - sp.start_ns) / 1e3);
    const auto fw = flush_window.find(sp.parent);
    const bool in_flush = fw != flush_window.end() && sp.start_ns >= fw->second.first &&
                          sp.end_ns <= fw->second.second;
    if (!in_flush) t.quorum_ns[sp.parent] += sp.end_ns - sp.start_ns;
  }
  return t;
}

/// Open-loop requests of a pass: client time minus the handler call
/// that served the request, in ms.
std::vector<double> net_wait_ms(const std::vector<Req>& reqs, const PhaseResult& open, std::size_t fpg,
                                const LoopTrace& lt) {
  std::vector<double> out;
  for (std::size_t idx = open.first_group * fpg; idx < open.last_group * fpg; ++idx) {
    const Req& q = reqs[idx];
    const auto c = lt.call_of.find(idx + 1);
    if (!q.ok || c == lt.call_of.end()) continue;
    const auto h = lt.handle.find(c->second);
    if (h == lt.handle.end()) continue;
    const double client = static_cast<double>(q.done_ns - q.sent_ns);
    const double handler = static_cast<double>(h->second.second - h->second.first);
    out.push_back((client - handler) / 1e6);
  }
  return out;
}

/// Budget of a typical open-loop submit: means over the submits whose
/// latency lies between the 40th and 60th percentile, split along the
/// blocking path into loadgen lag, net wait and the measured handler
/// call that served it. Inside that call, flush_accepted is measured by
/// its span, and each gateway stage is charged its open-loop histogram
/// mean times the call's submit count (the wal stage includes the
/// quorum_commit the serve path makes). The unexplained remainder is the
/// handler time neither spans nor stage histograms account for: reads,
/// serve_batch's pre-verify pass and framing, plus any error of the
/// stage estimate.
void budget_table(const std::vector<Req>& reqs, const PhaseResult& open, std::size_t fpg,
                  const LoopTrace& lt, const StageTotals& st, Metrics& m) {
  using gateway::Stage;
  std::vector<double> lat;
  for (std::size_t g = open.first_group; g < open.last_group; ++g) {
    const Req& q = reqs[g * fpg];
    if (q.ok) lat.push_back(static_cast<double>(q.done_ns - q.due_ns) / 1e6);
  }
  const double p50 = percentile_copy(lat, 50);
  const double lo = percentile_copy(lat, 40), hi = percentile_copy(lat, 60);
  double n = 0, lag = 0, net = 0, handler = 0, flush = 0, quorum = 0;
  double stage[gateway::kStageCount] = {};
  for (std::size_t g = open.first_group; g < open.last_group; ++g) {
    const Req& q = reqs[g * fpg];
    const double ms = static_cast<double>(q.done_ns - q.due_ns) / 1e6;
    const auto c = lt.call_of.find(g * fpg + 1);
    if (!q.ok || ms < lo || ms > hi || c == lt.call_of.end()) continue;
    const auto h = lt.handle.find(c->second);
    if (h == lt.handle.end()) continue;
    auto at = [](const auto& map, std::uint64_t k) {
      const auto it = map.find(k);
      return it == map.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double call_ms = static_cast<double>(h->second.second - h->second.first) / 1e6;
    const double subs = at(lt.submits_in, c->second);
    for (std::size_t k = 0; k < gateway::kStageCount; ++k) {
      stage[k] += subs * st.mean_us(static_cast<Stage>(k)) / 1e3;
    }
    n += 1;
    lag += static_cast<double>(q.sent_ns - q.due_ns) / 1e6;
    net += static_cast<double>(q.done_ns - q.sent_ns) / 1e6 - call_ms;
    handler += call_ms;
    flush += at(lt.flush_ns, c->second) / 1e6;
    quorum += at(lt.quorum_ns, c->second) / 1e6;
  }
  if (n == 0) return;
  double staged = 0;
  for (double& v : stage) staged += (v /= n);
  lag /= n, net /= n, handler /= n, flush /= n, quorum /= n;
  const double unexplained = handler - flush - staged;
  std::printf("# budget of a typical open-loop submit (traced; mean of %.0f submits near p50)\n",
              n);
  std::printf("#   %-44s %9.3f ms\n", "loadgen lag (send - due)", lag);
  std::printf("#   %-44s %9.3f ms\n", "net wait (client - handler call)", net);
  std::printf("#   %-44s %9.3f ms\n", "handler call (measured)", handler);
  std::printf("#     %-42s %9.3f ms\n", "flush_accepted (span)", flush);
  for (std::size_t k = 0; k < gateway::kStageCount; ++k) {
    std::printf("#     stage %-36s %9.3f ms\n", gateway::stage_name(static_cast<Stage>(k)),
                stage[k]);
  }
  std::printf("#       %-40s %9.3f ms\n", "of which quorum_commit (span)", quorum);
  std::printf("#     %-42s %9.3f ms\n", "unexplained remainder", unexplained);
  std::printf("#   %-44s %9.3f ms\n", "lag + net wait + handler call", lag + net + handler);
  std::printf("#   %-44s %9.3f ms\n", "accept_p50_ms", p50);
  m["budget.lag_ms"] = {lag, "ms"};
  m["budget.net_wait_ms"] = {net, "ms"};
  m["budget.handler_ms"] = {handler, "ms"};
  m["budget.flush_ms"] = {flush, "ms"};
  m["budget.quorum_ms"] = {quorum, "ms"};
  m["budget.stages_ms"] = {staged, "ms"};
  m["budget.unexplained_ms"] = {unexplained, "ms"};
}

void print_pass(const char* label, const PassOutcome& p) {
  // Each value with its repetition's number, in run order, so a drift as
  // the gateway's book grows would show.
  auto list = [](const std::vector<double>& v) {
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += " " + std::to_string(i + 1) + ":" + std::to_string(v[i]).substr(0, 7);
    }
    return out;
  };
  std::printf("# %s closed loop: %zu groups in %.2f s; accepts/s per repetition:%s\n", label,
              p.closed.last_group - p.closed.first_group, p.closed_s, list(p.rep_rate).c_str());
  std::vector<double> acc = p.lat.accept, rd = p.lat.read, lag = p.open.lag_ms;
  const double groups = static_cast<double>(p.open.last_group - p.open.first_group);
  std::printf("# %s open loop: %.0f groups in %.2f s (achieved %.1f/s), lag p99 %.3f ms\n", label,
              groups, p.open_s, ratio(groups, p.open_s), percentile(lag, 99));
  std::printf("# %s open loop per repetition: p50 ms%s; p90 ms%s; p99 ms%s\n", label,
              list(p.rep_p50).c_str(), list(p.rep_p90).c_str(), list(p.rep_p99).c_str());
  std::printf("# %s open loop, pooled: accept p50 %.3f ms p99 %.3f ms (n=%zu); read p50 %.3f ms "
              "p99 %.3f ms (n=%zu)\n",
              label, percentile(acc, 50), percentile(acc, 99), acc.size(), percentile(rd, 50),
              percentile(rd, 99), rd.size());
}

/// One pass: its repetitions in order, each through a fresh serving half
/// of the same stack, each followed by every output check. With a sink
/// the pass is traced and reports the per-layer metrics: the closed-loop
/// repetitions give the loop's occupancy at saturation, the open-loop
/// ones everything else.
PassOutcome run_pass(const Plan& plan, const std::vector<Bytes>& frames, Stack& s,
                     const std::vector<Rep>& reps, TraceSink* sink, const char* label) {
  PassOutcome out;
  SpanLog quiet(false);
  SpanLog& loop_log = sink != nullptr ? sink->loop_spans : quiet;
  const std::size_t fpg = plan.shape.frames_per_group();
  // Measure from a cold process state: empty verify caches, zeroed stats.
  crypto::SigCache::global().clear();
  crypto::SigCache::global().reset_stats();
  crypto::PubkeyPrecompCache::global().clear();
  crypto::PubkeyPrecompCache::global().reset_stats();
  s.gw->reset_stats();

  std::vector<Req> reqs(frames.size());  // this pass's requests, all repetitions
  Snapshot sum{};
  std::uint64_t depth_max = 0;
  double coalesced = 0;
  bool checks = true;
  out.closed.first_group = out.open.first_group = ~std::size_t{0};
  const std::vector<int> cpus = allowed_cpus();
  for (const auto& [open, begin, end, round] : reps) {
    // The generator (this thread) and the loop run on a different pair of
    // CPUs each round (see pin_to_cpu).
    pin_to_cpu(rotating_cpu(cpus, round));
    std::string error;
    if (!attach_serving(s, loop_log, &error, partner_cpu(cpus, round))) {
      std::fprintf(stderr, "serving set-up failed: %s\n", error.c_str());
      return out;
    }
    Serving& v = *s.serving;
    LoadGen gen(plan, frames);
    if (sink != nullptr) gen.set_log(&sink->client_spans);
    if (!gen.connect(v.server->port())) {
      std::fprintf(stderr, "connect failed\n");
      return out;
    }
    const gateway::GatewayStats gw_before = s.gw->stats();
    const Snapshot before = take_snapshot(v);
    const PhaseResult r = open ? gen.run_open(plan.shape.closed_groups + begin, plan.open_due_ns,
                                              begin, end)
                               : gen.run_closed(begin, end);
    const Snapshot after = take_snapshot(v);
    if (open) out.open_stages.add_delta(gw_before, s.gw->stats());
    const auto hc = v.handler->counters();
    depth_max = std::max(depth_max, v.handler->depth_max());
    coalesced = coalesced_per_batch(*s.gw);

    // Wind down: stop the loop, flush the last epoch from this thread, and
    // ship everything to the follower.
    v.stop_server();
    loop_log.set_enabled(false);
    v.handler->flush(0);
    for (int round = 0;
         round < 1000 && v.follower->cursor().last_seq < v.store->last_committed_seq(); ++round) {
      v.group->pump(s.world->now_ms + 1'000'000 + static_cast<std::uint64_t>(round) * 3'000);
    }

    for (std::size_t idx = r.first_group * fpg; idx < r.last_group * fpg; ++idx) {
      const Req& q = gen.reqs()[idx];
      reqs[idx] = q;
      if (q.sent_ns == 0) continue;
      ++out.attempted;
      if (!q.ok) ++out.failed;
    }
    out.failed += gen.protocol_errors();
    const double secs = static_cast<double>(r.end_ns - r.start_ns) / 1e9;
    if (open) {
      const OpenLatency lat = open_latency(gen.reqs(), r, fpg);
      out.rep_p50.push_back(percentile_copy(lat.all, 50));
      out.rep_p90.push_back(percentile_copy(lat.all, 90));
      out.rep_p99.push_back(percentile_copy(lat.all, 99));
      out.open_s += secs;
    } else {
      out.rep_rate.push_back(r.accepts_per_s);
      out.handler.busy_ns += hc.busy_ns;
      out.handler.calls += hc.calls;
      out.handler.frames += hc.frames;
      out.closed_s += secs;
    }
    PhaseResult& agg = open ? out.open : out.closed;
    agg.first_group = std::min(agg.first_group, r.first_group);
    agg.last_group = std::max(agg.last_group, r.last_group);
    agg.lag_ms.insert(agg.lag_ms.end(), r.lag_ms.begin(), r.lag_ms.end());
    out.flush_calls += hc.flush_calls;
    sum.net.read_pauses += after.net.read_pauses - before.net.read_pauses;
    sum.net.sheds_seen += after.net.sheds_seen - before.net.sheds_seen;
    sum.wal_appends += after.wal_appends - before.wal_appends;
    sum.wal_syncs += after.wal_syncs - before.wal_syncs;
    sum.wal_bytes += after.wal_bytes - before.wal_bytes;
    sum.repl.records_shipped += after.repl.records_shipped - before.repl.records_shipped;
    sum.repl.ship_failures += after.repl.ship_failures - before.repl.ship_failures;
    sum.repl.quorum_failures += after.repl.quorum_failures - before.repl.quorum_failures;

    checks = check_repetition(plan, s, gen, r.first_group, r.last_group, gw_before.accepts()) &&
             checks;
    loop_log.set_enabled(sink != nullptr);
  }
  out.checks = checks && out.failed == 0 && out.attempted > 0;
  out.lat = open_latency(reqs, out.open, fpg);
  print_pass(label, out);
  std::printf("# %s: fail_ratio %.6f (%llu failed of %llu attempted requests); output checks: "
              "%s\n",
              label, ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted), checks ? "pass" : "FAIL");
  if (sink == nullptr) return out;

  Metrics& m = sink->metrics;
  const auto& hc = out.handler;
  m["net.loop_busy_ratio"] = {ratio(static_cast<double>(hc.busy_ns) / 1e9, out.closed_s), "ratio"};
  m["net.frames_per_handle"] = {
      ratio(static_cast<double>(hc.frames), static_cast<double>(hc.calls)), "count"};
  const auto gw_stats = s.gw->stats();
  const auto sig = crypto::SigCache::global().stats();
  const auto pre = crypto::PubkeyPrecompCache::global().stats();
  const LoopTrace lt = index_loop_trace(sink->loop_spans, fpg);
  const double accepts = static_cast<double>(count_accepts(reqs, out.closed, fpg) +
                                             count_accepts(reqs, out.open, fpg));

  std::vector<double> lag = out.open.lag_ms;
  m["loadgen.lag_p99_ms"] = {percentile(lag, 99), "ms"};
  const double groups = static_cast<double>(out.open.last_group - out.open.first_group);
  m["loadgen.offered_per_s"] = {plan.shape.open_rate_per_s, "1/s"};
  m["loadgen.achieved_per_s"] = {ratio(groups, out.open_s), "1/s"};

  std::vector<double> wait = net_wait_ms(reqs, out.open, fpg, lt);
  m["net.wait_p50_ms"] = {percentile(wait, 50), "ms"};
  m["net.wait_p99_ms"] = {percentile(wait, 99), "ms"};
  m["net.read_pauses"] = {static_cast<double>(sum.net.read_pauses), "count"};
  m["net.sheds_seen"] = {static_cast<double>(sum.net.sheds_seen), "count"};

  using gateway::Stage;
  m["gateway.verify.mean_us"] = {gw_stats.stage(Stage::kVerify).mean_us(), "us"};
  m["gateway.verify.p99_us"] = {gw_stats.stage(Stage::kVerify).percentile_us(99), "us"};
  m["gateway.evaluate.mean_us"] = {gw_stats.stage(Stage::kEvaluate).mean_us(), "us"};
  m["gateway.reserve.p99_us"] = {gw_stats.stage(Stage::kReserve).percentile_us(99), "us"};
  m["gateway.wal.mean_us"] = {gw_stats.stage(Stage::kWal).mean_us(), "us"};
  m["gateway.wal.p99_us"] = {gw_stats.stage(Stage::kWal).percentile_us(99), "us"};
  m["gateway.handle_p50_us"] = {gw_stats.latency().percentile_us(50), "us"};
  std::vector<double> flush_ms = lt.flush_ms;
  m["gateway.flush_p50_ms"] = {percentile(flush_ms, 50), "ms"};
  m["gateway.flush_calls"] = {static_cast<double>(out.flush_calls), "count"};
  m["gateway.commit_queue_depth_max"] = {static_cast<double>(depth_max), "count"};
  m["gateway.rejects"] = {static_cast<double>(gw_stats.rejects()), "count"};
  m["gateway.sheds"] = {static_cast<double>(gw_stats.sheds()), "count"};
  m["gateway.verify_coalesced_per_batch"] = {coalesced, "count"};

  const double pre_lookups = static_cast<double>(pre.hits + pre.misses);
  const double sig_lookups = static_cast<double>(sig.hits + sig.misses);
  m["crypto.precomp_hit_ratio"] = {ratio(static_cast<double>(pre.hits), pre_lookups), "ratio"};
  m["crypto.precomp_lookups"] = {pre_lookups, "count"};
  m["crypto.precomp_evictions"] = {static_cast<double>(pre.evictions), "count"};
  m["crypto.sigcache_hit_ratio"] = {ratio(static_cast<double>(sig.hits), sig_lookups), "ratio"};
  m["crypto.sigcache_lookups"] = {sig_lookups, "count"};

  const double appends = static_cast<double>(sum.wal_appends);
  m["store.wal_appends_per_accept"] = {ratio(appends, accepts), "count"};
  m["store.appends_per_fsync"] = {ratio(appends, static_cast<double>(sum.wal_syncs)), "count"};
  m["store.wal_bytes_per_accept"] = {ratio(static_cast<double>(sum.wal_bytes), accepts), "B"};

  std::vector<double> quorum_us = lt.quorum_us;
  m["replication.quorum_commit_p50_us"] = {percentile(quorum_us, 50), "us"};
  m["replication.quorum_commit_p99_us"] = {percentile(quorum_us, 99), "us"};
  m["replication.records_shipped"] = {static_cast<double>(sum.repl.records_shipped), "count"};
  m["replication.ship_failures"] = {static_cast<double>(sum.repl.ship_failures), "count"};
  m["replication.quorum_failures"] = {static_cast<double>(sum.repl.quorum_failures), "count"};

  std::vector<double> acc = out.lat.accept, rd = out.lat.read;
  m["accept_p50_ms"] = {percentile(acc, 50), "ms"};
  m["accept_p99_ms"] = {percentile(acc, 99), "ms"};
  if (plan.shape.kind == FastpayKind::kHotMixed) {  // the only workload that reads
    m["read_p50_ms"] = {percentile(rd, 50), "ms"};
    m["read_p99_ms"] = {percentile(rd, 99), "ms"};
  }
  budget_table(reqs, out.open, fpg, lt, out.open_stages, m);
  return out;
}

}  // namespace

RunResult run_fastpay(FastpayKind kind, std::uint64_t seed, double seconds, bool trace,
                      const std::string& work_dir) {
  RunResult res;
  const Plan plan = make_plan(shape_for(kind, seconds, trace), seed);
  const double phase = seconds / 2;

  // A pass alternates kRounds closed-loop slices of the pool with
  // kRounds open-loop stretches of the schedule, so both kinds sample
  // the whole run. A traced run's second pass takes the second half of
  // the pool and of the schedule.
  auto pass_reps = [&](std::size_t pass) {
    const std::size_t pool = plan.shape.closed_groups / (trace ? 2 : 1);
    const auto& due = plan.open_due_ns;
    auto index_at = [&](double t) {
      return static_cast<std::size_t>(
          std::lower_bound(due.begin(), due.end(), static_cast<std::uint64_t>(t * 1e9)) -
          due.begin());
    };
    const double rounds = static_cast<double>(kRounds);
    std::vector<Rep> reps;
    for (std::size_t k = 0; k < kRounds; ++k) {
      reps.push_back({false, pass * pool + pool * k / kRounds,
                      pass * pool + pool * (k + 1) / kRounds, k});
      reps.push_back({true, index_at(phase * (static_cast<double>(pass) + k / rounds)),
                      index_at(phase * (static_cast<double>(pass) + (k + 1) / rounds)), k});
    }
    return reps;
  };

  // Set up several times and report the median. The first build's wallets
  // sign the frames (valid for every build of the seed); the last build
  // serves every pass.
  SpanLog setup_log(true), quiet(false);
  std::vector<double> setup_s;
  std::vector<Bytes> frames;
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; more_setups(setup_s); ++i) {
    stack.reset();
    std::string error;
    const std::uint64_t t0 = now_ns();
    stack = build_stack(plan, work_dir, setup_log, quiet, &error);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!stack) {
      std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
      return res;
    }
    if (i == 0) {
      const std::uint64_t g0 = now_ns();
      frames = make_frames(plan, *stack->world);
      std::printf("# %s seed %llu: %zu customers, %zu groups pre-signed in %.2f s\n",
                  kind == FastpayKind::kCold ? "fastpay_cold" : "fastpay_hot_mixed",
                  static_cast<unsigned long long>(seed), plan.shape.customers, plan.groups(),
                  static_cast<double>(now_ns() - g0) / 1e9);
    }
  }
  std::printf("# set-up runs (s):");
  for (const double x : setup_s) std::printf(" %.3f", x);
  std::printf("\n");

  // Each metric takes the near-best repetition (see near_best).
  const PassOutcome plain = run_pass(plan, frames, *stack, pass_reps(0), nullptr, "untraced");
  res.attempted = plain.attempted;
  res.failed = plain.failed;
  res.correct = plain.checks;
  res.end_to_end["goodput_per_s"] = {near_best(plain.rep_rate, true), "1/s"};
  res.end_to_end["latency_p50_ms"] = {near_best(plain.rep_p50, false), "ms"};
  res.end_to_end["setup_s"] = {median(setup_s), "s"};
  res.end_to_end["rss_mb"] = {peak_rss_mb(), "MB"};

  if (trace) {
    TraceSink sink;
    const PassOutcome traced = run_pass(plan, frames, *stack, pass_reps(1), &sink, "traced");
    res.attempted += traced.attempted;
    res.failed += traced.failed;
    res.correct = res.correct && traced.checks;
    res.per_layer = std::move(sink.metrics);
    res.per_layer["trace.goodput_ratio"] = {
        ratio(near_best(traced.rep_rate, true), near_best(plain.rep_rate, true)), "ratio"};
    res.per_layer["trace.latency_p50_ratio"] = {
        ratio(near_best(traced.rep_p50, false), near_best(plain.rep_p50, false)), "ratio"};
    const std::string path = work_dir + ".spans.csv";
    if (write_spans(path, {&setup_log, &sink.loop_spans, &sink.client_spans})) {
      std::printf("# spans written to %s\n", path.c_str());
    }
  }
  stack.reset();
  return res;
}

}  // namespace perfbench
