// Network torture tests for the TCP gateway front end (src/net):
//
//   1. FrameAssembler — every pathological delivery pattern a TCP stream
//      can produce: frames split at every byte boundary, coalesced
//      frames, a length prefix dripped one byte per poll, zero- and
//      max-length payloads, framing violations (bad magic, oversized
//      length announcements).
//   2. Connection over socketpairs with a fake clock — reassembly across
//      fragmentation, EOF mid-frame, bounded write buffering, idle and
//      frame-stall timeout arithmetic.
//   3. The full TcpServer against a live gateway deployment over
//      loopback — byte parity with direct GatewayPipeline::serve() for
//      scripted frame sequences under every fragmentation, shed
//      backpressure and shed-then-retry, and the adversarial clients:
//      slow-loris drip, write-stall (never drains responses),
//      garbage/oversized framing (score -> ban), and reconnect-after-ban.
//
// The server is driven with poll_once() on the test thread and a scripted
// clock, so every timeout fires by arithmetic, not by sleeping.
#include <gtest/gtest.h>

#include <cerrno>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "btcfast/customer.h"
#include "btcfast/orchestrator.h"
#include "common/thread_pool.h"
#include "gateway/pipeline.h"
#include "gateway/wire.h"
#include "net/ban_list.h"
#include "net/connection.h"
#include "net/frame_assembler.h"
#include "net/server.h"
#include "stats_doc.h"

namespace btcfast::net {
namespace {

using gateway::Frame;
using gateway::make_frame;
using gateway::MsgType;

// ------------------------------------------------------------ helpers

Bytes concat(const std::vector<Bytes>& frames) {
  Bytes out;
  for (const auto& f : frames) append(out, f);
  return out;
}

/// Feed a stream into an assembler in fixed-size chunks, draining
/// complete frames after every feed (exactly how Connection uses it).
std::vector<Bytes> feed_chunked(FrameAssembler& a, ByteSpan stream, std::size_t chunk) {
  std::vector<Bytes> out;
  for (std::size_t off = 0; off < stream.size(); off += chunk) {
    const std::size_t n = std::min(chunk, stream.size() - off);
    if (!a.feed(stream.subspan(off, n))) break;
    while (auto f = a.next_frame()) out.push_back(std::move(*f));
  }
  return out;
}

/// A scripted frame mix: every request type, a zero-length payload, an
/// unknown-but-framed type, and a garbage payload — all of which must
/// reassemble byte-exactly (the gateway answers the bad ones).
std::vector<Bytes> sample_frames() {
  std::vector<Bytes> frames;
  frames.push_back(make_frame(MsgType::kQueryEscrow, 1,
                              gateway::QueryEscrowRequest{42}.serialize()));
  frames.push_back(make_frame(MsgType::kGetReceipt, 2, gateway::GetReceiptRequest{7}.serialize()));
  frames.push_back(make_frame(MsgType::kQueryEscrow, 3, Bytes{}));  // zero-length payload
  {
    // Unknown type, valid framing: the assembler must deliver it intact.
    gateway::Frame f;
    f.type = static_cast<MsgType>(0x7f);
    f.request_id = 4;
    f.payload = {0xde, 0xad};
    frames.push_back(f.serialize());
  }
  {
    Bytes big(300, 0xab);  // 3-byte varint length prefix
    frames.push_back(make_frame(MsgType::kSubmitFastPay, 5, std::move(big)));
  }
  return frames;
}

int make_socketpair(int fds[2]) { return ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds); }

void write_all(int fd, ByteSpan data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

// ----------------------------------------------------- FrameAssembler

TEST(FrameAssembler, ReassemblesAtEveryByteBoundary) {
  const auto frames = sample_frames();
  const Bytes stream = concat(frames);
  for (std::size_t chunk = 1; chunk <= stream.size(); ++chunk) {
    FrameAssembler a;
    const auto got = feed_chunked(a, stream, chunk);
    ASSERT_EQ(got.size(), frames.size()) << "chunk size " << chunk;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(got[i], frames[i]) << "chunk size " << chunk << ", frame " << i;
    }
    EXPECT_FALSE(a.poisoned());
    EXPECT_EQ(a.buffered(), 0u);
  }
}

TEST(FrameAssembler, CoalescedFramesInOneFeed) {
  const auto frames = sample_frames();
  FrameAssembler a;
  ASSERT_TRUE(a.feed(concat(frames)));
  for (const auto& want : frames) {
    auto got = a.next_frame();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, want);
  }
  EXPECT_FALSE(a.next_frame().has_value());
}

TEST(FrameAssembler, LengthPrefixDrippedOneBytePerFeed) {
  // 300-byte payload: the varint is 0xfd + u16le, so the length itself
  // spans three polls.
  const Bytes frame = make_frame(MsgType::kSubmitFastPay, 9, Bytes(300, 0x5a));
  FrameAssembler a;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    ASSERT_TRUE(a.feed({&frame[i], 1}));
    EXPECT_FALSE(a.next_frame().has_value()) << "completed early at byte " << i;
  }
  ASSERT_TRUE(a.feed({&frame[frame.size() - 1], 1}));
  const auto got = a.next_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, frame);
}

TEST(FrameAssembler, ZeroAndMaxLengthFrames) {
  const Bytes zero = make_frame(MsgType::kQueryEscrow, 1, Bytes{});
  const Bytes max = make_frame(MsgType::kSubmitFastPay, 2, Bytes(gateway::kMaxFramePayload, 0x77));
  const Bytes stream = concat({zero, max, zero});
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{4096},
                                  stream.size()}) {
    FrameAssembler a;
    const auto got = feed_chunked(a, stream, chunk);
    ASSERT_EQ(got.size(), 3u) << "chunk " << chunk;
    EXPECT_EQ(got[0], zero);
    EXPECT_EQ(got[1], max);
    EXPECT_EQ(got[2], zero);
  }
}

TEST(FrameAssembler, OversizedLengthPoisonsWithRequestId) {
  Writer w;
  w.u32le(gateway::kWireMagic);
  w.u8(static_cast<std::uint8_t>(MsgType::kSubmitFastPay));
  w.u64le(0xfeedfacecafebeefull);
  w.varint(gateway::kMaxFramePayload + 1);
  FrameAssembler a;
  ASSERT_TRUE(a.feed(std::move(w).take()));
  EXPECT_FALSE(a.next_frame().has_value());
  EXPECT_EQ(a.error(), FrameAssembler::Error::kOversizedLength);
  EXPECT_EQ(a.error_request_id(), 0xfeedfacecafebeefull);
  // Poisoned: everything after is dropped.
  EXPECT_FALSE(a.feed(Bytes{0x00}));
  EXPECT_FALSE(a.next_frame().has_value());
}

TEST(FrameAssembler, BadMagicPoisonsOnFirstWrongByte) {
  FrameAssembler a;
  ASSERT_TRUE(a.feed(Bytes{0x31}));  // correct first magic byte
  EXPECT_FALSE(a.next_frame().has_value());
  EXPECT_FALSE(a.poisoned());
  ASSERT_TRUE(a.feed(Bytes{0x00}));  // wrong second byte
  EXPECT_FALSE(a.next_frame().has_value());
  EXPECT_EQ(a.error(), FrameAssembler::Error::kBadMagic);
  EXPECT_EQ(a.error_request_id(), 0u);  // header never became readable
}

TEST(FrameAssembler, GarbageAfterValidFramePoisonsButKeepsFrame) {
  const Bytes good = make_frame(MsgType::kGetReceipt, 11, gateway::GetReceiptRequest{1}.serialize());
  Bytes stream = good;
  append(stream, Bytes{0xff, 0xfe, 0xfd});
  FrameAssembler a;
  ASSERT_TRUE(a.feed(stream));
  const auto got = a.next_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, good);
  EXPECT_FALSE(a.next_frame().has_value());
  EXPECT_EQ(a.error(), FrameAssembler::Error::kBadMagic);
}

// --------------------------------------------- Connection (socketpair)

TEST(Connection, ReassemblesAcrossArbitraryFragmentation) {
  int fds[2];
  ASSERT_EQ(make_socketpair(fds), 0);
  Connection conn(fds[0], "test-peer", ConnConfig{}, /*now_ms=*/0);
  const auto frames = sample_frames();
  const Bytes stream = concat(frames);

  std::vector<Bytes> got;
  // 7-byte fragments with a read between each: worst-case interleaving
  // of partial headers and partial payloads.
  for (std::size_t off = 0; off < stream.size(); off += 7) {
    const std::size_t n = std::min<std::size_t>(7, stream.size() - off);
    write_all(fds[1], {stream.data() + off, n});
    auto ev = conn.on_readable(off);
    EXPECT_FALSE(ev.eof);
    EXPECT_FALSE(ev.framing_error);
    for (auto& f : ev.frames) got.push_back(std::move(f));
  }
  ASSERT_EQ(got.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) EXPECT_EQ(got[i], frames[i]);
  ::close(fds[1]);
}

TEST(Connection, EofMidFrameDropsPartialWithoutFabricating) {
  int fds[2];
  ASSERT_EQ(make_socketpair(fds), 0);
  Connection conn(fds[0], "test-peer", ConnConfig{}, 0);
  const Bytes frame = make_frame(MsgType::kQueryEscrow, 3, gateway::QueryEscrowRequest{1}.serialize());
  write_all(fds[1], {frame.data(), frame.size() / 2});
  ::close(fds[1]);
  const auto ev = conn.on_readable(10);
  EXPECT_TRUE(ev.eof);
  EXPECT_TRUE(ev.frames.empty());
  EXPECT_FALSE(ev.framing_error);
}

TEST(Connection, CompleteFramesBeforeEofStillDelivered) {
  int fds[2];
  ASSERT_EQ(make_socketpair(fds), 0);
  Connection conn(fds[0], "test-peer", ConnConfig{}, 0);
  const Bytes full = make_frame(MsgType::kGetReceipt, 4, gateway::GetReceiptRequest{9}.serialize());
  Bytes stream = full;
  append(stream, {full.data(), 5});  // half a header, then EOF
  write_all(fds[1], stream);
  ::close(fds[1]);
  const auto ev = conn.on_readable(0);
  EXPECT_TRUE(ev.eof);
  ASSERT_EQ(ev.frames.size(), 1u);
  EXPECT_EQ(ev.frames[0], full);
}

TEST(Connection, WriteBufferHardCapRefusesQueueing) {
  int fds[2];
  ASSERT_EQ(make_socketpair(fds), 0);
  ConnConfig cfg;
  cfg.write_buffer_hard = 4096;
  Connection conn(fds[0], "test-peer", cfg, 0);
  const Bytes resp = make_frame(MsgType::kError, 1, Bytes(100, 0x00));
  bool refused = false;
  for (int i = 0; i < 100; ++i) {
    if (!conn.queue_response(resp)) {
      refused = true;
      break;
    }
    EXPECT_LE(conn.write_buffered(), cfg.write_buffer_hard);
  }
  EXPECT_TRUE(refused);
  EXPECT_LE(conn.write_buffered(), cfg.write_buffer_hard);
  ::close(fds[1]);
}

TEST(Connection, SoftWatermarkPausesReadsUntilDrained) {
  int fds[2];
  ASSERT_EQ(make_socketpair(fds), 0);
  ConnConfig cfg;
  cfg.write_buffer_soft = 64;
  Connection conn(fds[0], "test-peer", cfg, 0);
  EXPECT_TRUE(conn.wants_read(0));
  ASSERT_TRUE(conn.queue_response(make_frame(MsgType::kError, 1, Bytes(200, 0x00))));
  EXPECT_FALSE(conn.wants_read(0));  // above the watermark
  ASSERT_EQ(conn.on_writable(), Connection::WriteResult::kDrained);
  EXPECT_TRUE(conn.wants_read(0));
  ::close(fds[1]);
}

TEST(Connection, TimeoutArithmetic) {
  int fds[2];
  ASSERT_EQ(make_socketpair(fds), 0);
  ConnConfig cfg;
  cfg.idle_timeout_ms = 1000;
  cfg.frame_timeout_ms = 100;
  Connection conn(fds[0], "test-peer", cfg, /*now_ms=*/0);
  EXPECT_EQ(conn.check_timeout(999), Connection::TimeoutKind::kNone);
  EXPECT_EQ(conn.check_timeout(1000), Connection::TimeoutKind::kIdle);

  // One byte of a frame arrives at t=500: the stall clock starts there.
  const Bytes frame = make_frame(MsgType::kQueryEscrow, 1, Bytes{});
  write_all(fds[1], {frame.data(), 1});
  (void)conn.on_readable(500);
  EXPECT_EQ(conn.check_timeout(599), Connection::TimeoutKind::kNone);
  EXPECT_EQ(conn.check_timeout(600), Connection::TimeoutKind::kFrameStall);

  // Completing the frame clears the stall clock; idle now binds from the
  // last byte received.
  write_all(fds[1], {frame.data() + 1, frame.size() - 1});
  (void)conn.on_readable(550);
  EXPECT_EQ(conn.check_timeout(700), Connection::TimeoutKind::kNone);
  EXPECT_EQ(conn.check_timeout(1550), Connection::TimeoutKind::kIdle);
  ::close(fds[1]);
}

// ------------------------------------------------------------ BanList

TEST(BanList, ScoreAccumulatesBansAndExpires) {
  BanConfig cfg;
  cfg.threshold = 100;
  cfg.duration_ms = 1000;
  BanList bans(cfg);
  EXPECT_FALSE(bans.misbehave("10.0.0.7", 50, 0));
  EXPECT_FALSE(bans.is_banned("10.0.0.7", 1));
  EXPECT_TRUE(bans.misbehave("10.0.0.7", 50, 2));
  EXPECT_TRUE(bans.is_banned("10.0.0.7", 3));
  EXPECT_EQ(bans.bans_issued(), 1u);
  // Another address is unaffected.
  EXPECT_FALSE(bans.is_banned("10.0.0.8", 3));
  // Ban expiry clears the entry, score included.
  EXPECT_FALSE(bans.is_banned("10.0.0.7", 1002));
  EXPECT_EQ(bans.score("10.0.0.7"), 0u);
}

TEST(BanList, RotatingAddressesStayBoundedAndScoresDecay) {
  BanConfig cfg;
  cfg.threshold = 100;
  cfg.duration_ms = 1000;
  cfg.max_entries = 64;
  BanList bans(cfg);
  // A botnet rotating source addresses, one sub-threshold offence each:
  // the ledger must stay capped, not grow per distinct address.
  for (int i = 0; i < 10'000; ++i) {
    const std::string addr =
        "10.1." + std::to_string(i / 256) + "." + std::to_string(i % 256);
    EXPECT_FALSE(bans.misbehave(addr, 10, 5));
  }
  EXPECT_LE(bans.tracked(), cfg.max_entries);

  // Cap pressure evicts stale sub-threshold entries, never an active ban.
  bans.ban("10.9.9.9", 10);
  for (int i = 0; i < 1000; ++i) {
    (void)bans.misbehave("10.2.0." + std::to_string(i % 256), 10, 11);
  }
  EXPECT_LE(bans.tracked(), cfg.max_entries);
  EXPECT_TRUE(bans.is_banned("10.9.9.9", 12));

  // A sub-threshold score quiet for a full ban window is forgotten (the
  // amortized sweep rides on any later call).
  bans.clear();
  EXPECT_FALSE(bans.misbehave("10.3.0.1", 50, 100));
  EXPECT_EQ(bans.score("10.3.0.1"), 50u);
  EXPECT_FALSE(bans.is_banned("10.8.8.8", 100 + 2 * cfg.duration_ms));
  EXPECT_EQ(bans.score("10.3.0.1"), 0u);
  EXPECT_EQ(bans.tracked(), 0u);
}

// ------------------------------------------- server + gateway harness

/// Live-deployment fixture (same world as GatewayUnit in gateway_test):
/// one funded escrow, several distinct fast-pay packages, and *two*
/// gateways over the same merchant — one behind the TCP server, one
/// served directly — so every scripted byte stream can be checked for
/// response parity.
struct NetGatewayUnit : ::testing::Test {
  NetGatewayUnit() {
    core::DeploymentConfig cfg;
    cfg.seed = 1313;
    cfg.funded_coins = 8;
    cfg.collateral = cfg.compensation * 16;
    dep = std::make_unique<core::Deployment>(cfg);
    now = static_cast<std::uint64_t>(dep->simulator().now());
    coins = sim::find_spendable(dep->customer_node().chain(),
                                dep->customer().btc_identity().script);
    for (std::size_t i = 0; i < 4 && i < coins.size(); ++i) {
      core::Invoice inv = dep->merchant().make_invoice(2 * btc::kCoin, dep->config().compensation,
                                                       now, 10ULL * 60 * 1000);
      pkgs.push_back(dep->customer().create_fastpay(inv, coins[i].first,
                                                    coins[i].second.out.value, now,
                                                    dep->config().binding_ttl_ms));
      invoices.push_back(std::move(inv));
    }
  }

  std::unique_ptr<gateway::Gateway> make_gateway(gateway::GatewayConfig cfg = {}) {
    auto gw = std::make_unique<gateway::Gateway>(dep->merchant(), pool, cfg);
    for (const auto& inv : invoices) gw->register_invoice(inv);
    gw->track_escrow(dep->customer().escrow_id());
    return gw;
  }

  [[nodiscard]] Bytes submit_frame(std::uint64_t request_id, std::size_t i) const {
    gateway::SubmitFastPayRequest req;
    req.invoice_id = invoices[i].invoice_id;
    req.package = pkgs[i];
    return make_frame(MsgType::kSubmitFastPay, request_id, req.serialize());
  }

  /// Connect a blocking loopback client to `port`. TCP_NODELAY, or the
  /// per-byte fragmentation tests deadlock on Nagle + delayed ACK once
  /// the first response flows back.
  static int connect_client(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  /// Read whatever is available right now (non-blocking peek).
  static Bytes drain_client(int fd) {
    Bytes out;
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n <= 0) break;
      out.insert(out.end(), buf, buf + n);
    }
    return out;
  }

  common::ThreadPool pool{0};
  std::unique_ptr<core::Deployment> dep;
  std::uint64_t now = 0;
  std::vector<std::pair<btc::OutPoint, btc::Coin>> coins;
  std::vector<core::Invoice> invoices;
  std::vector<core::FastPayPackage> pkgs;
};

/// Scripted-clock server harness: poll_once() on the test thread, time
/// advanced by assignment.
struct ScriptedServer {
  ScriptedServer(gateway::Gateway& gw, std::uint64_t sim_now, ServerConfig cfg = {})
      : own_handler(std::in_place, gw) {
    own_handler->pin_time(sim_now);
    start(*own_handler, cfg);
  }

  /// Serve through `front` (it must outlive the server) instead.
  ScriptedServer(FrameHandler& front, ServerConfig cfg) { start(front, cfg); }

  void start(FrameHandler& front, const ServerConfig& cfg) {
    server = std::make_unique<TcpServer>(front, cfg, [this] { return fake_now_ms; });
    started = server->start();
  }

  /// One poll + client-side drain through the same FrameAssembler.
  void pump_once(int fd, FrameAssembler& rx, std::vector<Bytes>& got) {
    (void)server->poll_once(0);
    const Bytes bytes = NetGatewayUnit::drain_client(fd);
    if (!bytes.empty()) {
      (void)rx.feed(bytes);
      while (auto f = rx.next_frame()) got.push_back(std::move(*f));
    }
  }

  /// Poll until `fd` has delivered `want` complete frames (or attempts
  /// run out).
  void pump_until(int fd, std::size_t want, FrameAssembler& rx, std::vector<Bytes>& got,
                  int attempts = 2000) {
    while (got.size() < want && attempts-- > 0) pump_once(fd, rx, got);
  }

  std::optional<GatewayHandler> own_handler;
  std::unique_ptr<TcpServer> server;
  std::uint64_t fake_now_ms = 1;
  bool started = false;
};

TEST_F(NetGatewayUnit, LoopbackByteParityUnderEveryFragmentation) {
  // The scripted sequence direct serve() will answer: a real submit, a
  // query, a receipt lookup, framed garbage (undecodable payload), an
  // unknown-but-framed type, and a second real submit.
  std::vector<Bytes> script;
  script.push_back(submit_frame(101, 0));
  script.push_back(make_frame(MsgType::kQueryEscrow, 102,
                              gateway::QueryEscrowRequest{dep->customer().escrow_id()}.serialize()));
  script.push_back(make_frame(MsgType::kGetReceipt, 103, gateway::GetReceiptRequest{101}.serialize()));
  script.push_back(make_frame(MsgType::kSubmitFastPay, 104, Bytes{0x01, 0x02, 0x03}));
  {
    gateway::Frame f;
    f.type = static_cast<MsgType>(0x7f);
    f.request_id = 105;
    f.payload = {0xaa};
    script.push_back(f.serialize());
  }
  script.push_back(submit_frame(106, 1));
  const Bytes stream = concat(script);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                  std::size_t{64}, stream.size()}) {
    auto gw_net = make_gateway();
    auto gw_ref = make_gateway();
    std::vector<Bytes> expected;
    for (const auto& frame : script) expected.push_back(gw_ref->serve(frame, now));

    ScriptedServer srv(*gw_net, now);
    ASSERT_TRUE(srv.started);
    const int fd = connect_client(srv.server->port());
    ASSERT_GE(fd, 0);

    FrameAssembler rx;
    std::vector<Bytes> got;
    for (std::size_t off = 0; off < stream.size(); off += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - off);
      write_all(fd, {stream.data() + off, n});
      srv.pump_once(fd, rx, got);  // server sees the fragment before the next
    }
    srv.pump_until(fd, expected.size(), rx, got);
    ASSERT_EQ(got.size(), expected.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "chunk " << chunk << ", response " << i;
    }
    const auto st = srv.server->stats();
    EXPECT_EQ(st.frames_in, script.size());
    EXPECT_EQ(st.framing_errors, 0u);
    ::close(fd);
  }
}

TEST_F(NetGatewayUnit, PipelinedFramesInOneWriteMatchDirectServe) {
  auto gw_net = make_gateway();
  auto gw_ref = make_gateway();
  std::vector<Bytes> script;
  for (std::size_t i = 0; i < pkgs.size(); ++i) script.push_back(submit_frame(200 + i, i));
  std::vector<Bytes> expected;
  for (const auto& frame : script) expected.push_back(gw_ref->serve(frame, now));

  ScriptedServer srv(*gw_net, now);
  ASSERT_TRUE(srv.started);
  const int fd = connect_client(srv.server->port());
  ASSERT_GE(fd, 0);
  write_all(fd, concat(script));  // all frames coalesce into one batch

  FrameAssembler rx;
  std::vector<Bytes> got;
  srv.pump_until(fd, expected.size(), rx, got);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) EXPECT_EQ(got[i], expected[i]);
  // All accepts really landed in the gateway behind the socket.
  EXPECT_EQ(gw_net->stats().accepts(), gw_ref->stats().accepts());
  ::close(fd);
}

TEST_F(NetGatewayUnit, ShedResponsesPauseReadsAndMatchDirectServe) {
  gateway::GatewayConfig gcfg;
  gcfg.max_inflight = 0;  // shed everything
  auto gw_net = make_gateway(gcfg);
  auto gw_ref = make_gateway(gcfg);
  const Bytes frame = submit_frame(42, 0);
  const Bytes expected = gw_ref->serve(frame, now);

  ServerConfig scfg;
  scfg.shed_backoff_ms = 500;
  ScriptedServer srv(*gw_net, now, scfg);
  ASSERT_TRUE(srv.started);
  const int fd = connect_client(srv.server->port());
  ASSERT_GE(fd, 0);

  write_all(fd, frame);
  FrameAssembler rx;
  std::vector<Bytes> got;
  srv.pump_until(fd, 1, rx, got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], expected);

  const auto st = srv.server->stats();
  EXPECT_EQ(st.sheds_seen, 1u);
  EXPECT_EQ(st.read_pauses, 1u);

  // While the backoff window is open the server must not read the next
  // frame; once the scripted clock passes it, service resumes.
  write_all(fd, frame);
  for (int i = 0; i < 20; ++i) (void)srv.server->poll_once(0);
  EXPECT_EQ(srv.server->stats().frames_in, 1u) << "read during backoff window";
  srv.fake_now_ms += 1000;
  srv.pump_until(fd, 2, rx, got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], expected);
  ::close(fd);
}

TEST_F(NetGatewayUnit, ZeroAdmissionBurstIsFullyShedWithReadsPaused) {
  gateway::GatewayConfig gcfg;
  gcfg.max_inflight = 0;
  auto gw_net = make_gateway(gcfg);
  auto gw_ref = make_gateway(gcfg);
  std::vector<Bytes> burst;
  std::vector<Bytes> expected;
  for (std::uint64_t i = 0; i < 32; ++i) {
    burst.push_back(submit_frame(300 + i, i % pkgs.size()));
    expected.push_back(gw_ref->serve(burst.back(), now));
  }

  ScriptedServer srv(*gw_net, now);
  ASSERT_TRUE(srv.started);
  const int fd = connect_client(srv.server->port());
  ASSERT_GE(fd, 0);
  write_all(fd, concat(burst));  // one pipelined write

  // Every frame comes back as the same kRetryAfter bytes direct serve()
  // gives, whatever pauses the shed backoff puts between the reads.
  FrameAssembler rx;
  std::vector<Bytes> got;
  for (int i = 0; i < 2000 && got.size() < burst.size(); ++i) {
    srv.pump_once(fd, rx, got);
    srv.fake_now_ms += 20;  // past the default 10 ms shed backoff
  }
  ASSERT_EQ(got.size(), burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << i;
    const auto f = Frame::deserialize(got[i]);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->type, MsgType::kRetryAfter);
  }
  const auto st = srv.server->stats();
  EXPECT_EQ(st.sheds_seen, burst.size());
  EXPECT_GE(st.read_pauses, 1u);
  EXPECT_EQ(gw_net->stats().accepts(), 0u);
  EXPECT_EQ(gw_net->commit_queue_depth(), 0u);
  ::close(fd);
}

/// A brownout that clears: the first `shed` frames go to `shedder`, every
/// later one to `inner`.
class BrownoutHandler final : public FrameHandler {
 public:
  BrownoutHandler(FrameHandler& shedder, FrameHandler& inner, std::size_t shed)
      : shedder_(shedder), inner_(inner), shed_(shed) {}

  [[nodiscard]] std::vector<Bytes> handle(const std::vector<Bytes>& frames,
                                          std::uint64_t now_ms) override {
    std::vector<Bytes> out;
    for (const auto& frame : frames) {
      FrameHandler& to = shed_ > 0 ? shedder_ : inner_;
      if (shed_ > 0) --shed_;
      out.push_back(std::move(to.handle({frame}, now_ms).front()));
    }
    return out;
  }

 private:
  FrameHandler& shedder_;
  FrameHandler& inner_;
  std::size_t shed_;
};

TEST_F(NetGatewayUnit, ShedSubmitRetriedOnSameConnectionIsAcceptedOnce) {
  gateway::GatewayConfig shed_cfg;
  shed_cfg.max_inflight = 0;
  auto gw_shed = make_gateway(shed_cfg);  // answers the brownout with real kRetryAfter bytes
  auto gw_net = make_gateway();
  auto gw_ref = make_gateway();
  const Bytes frame = submit_frame(42, 0);
  const Bytes expected_shed = make_gateway(shed_cfg)->serve(frame, now);
  const Bytes expected_accept = gw_ref->serve(frame, now);

  GatewayHandler shedder(*gw_shed);
  GatewayHandler inner(*gw_net);
  shedder.pin_time(now);
  inner.pin_time(now);
  BrownoutHandler brownout(shedder, inner, /*shed=*/1);
  ServerConfig scfg;
  scfg.shed_backoff_ms = 500;
  ScriptedServer srv(brownout, scfg);
  ASSERT_TRUE(srv.started);
  const int fd = connect_client(srv.server->port());
  ASSERT_GE(fd, 0);

  // The first try is shed: nothing is reserved or queued.
  write_all(fd, frame);
  FrameAssembler rx;
  std::vector<Bytes> got;
  srv.pump_until(fd, 1, rx, got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], expected_shed);
  EXPECT_EQ(srv.server->stats().sheds_seen, 1u);
  EXPECT_EQ(gw_net->stats().accepts(), 0u);
  EXPECT_EQ(gw_net->commit_queue_depth(), 0u);

  // The client honours the hint and resubmits the same bytes on the same
  // connection: accepted, with the bytes a direct serve() returns.
  write_all(fd, frame);
  srv.fake_now_ms += 1000;
  srv.pump_until(fd, 2, rx, got);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[1], expected_accept);
  const auto accept = Frame::deserialize(got[1]);
  ASSERT_TRUE(accept.has_value());
  const auto result = gateway::FastPayResultResponse::deserialize(accept->payload);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->accepted) << result->reason;

  EXPECT_EQ(gw_net->stats().accepts(), 1u);
  EXPECT_EQ(gw_net->commit_queue_depth(), 1u);
  const auto snap = gw_net->escrow_snapshot(dep->customer().escrow_id());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->live_reservations, 1u);
  ::close(fd);
}

// ------------------------------------------------- adversarial clients

TEST_F(NetGatewayUnit, SlowLorisStallsAreCutScoredAndEventuallyBanned) {
  auto gw = make_gateway();
  ServerConfig scfg;
  scfg.conn.frame_timeout_ms = 1000;
  scfg.conn.idle_timeout_ms = 60'000;
  scfg.score_stall = 40;
  scfg.ban.threshold = 100;
  scfg.ban.duration_ms = 10'000;
  ScriptedServer srv(*gw, now, scfg);
  ASSERT_TRUE(srv.started);
  const Bytes frame = submit_frame(1, 0);

  int cut_connections = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const int fd = connect_client(srv.server->port());
    ASSERT_GE(fd, 0);
    (void)srv.server->poll_once(0);  // accept
    ASSERT_EQ(srv.server->connection_count(), 1u) << "attempt " << attempt;
    // Drip one header byte per 200 fake ms — always under the idle
    // timeout, never completing a frame.
    bool cut = false;
    for (std::size_t i = 0; i < 10 && !cut; ++i) {
      write_all(fd, {frame.data() + i, 1});
      srv.fake_now_ms += 200;
      (void)srv.server->poll_once(0);
      cut = srv.server->connection_count() == 0;
    }
    EXPECT_TRUE(cut) << "slow-loris survived the frame deadline";
    cut_connections += cut ? 1 : 0;
    ::close(fd);
  }
  const auto st = srv.server->stats();
  EXPECT_EQ(st.timeouts_stall, 3u);
  EXPECT_EQ(cut_connections, 3);
  // 40 + 40 -> 80, third stall crosses 100: banned.
  EXPECT_GE(st.bans_issued, 1u);
  EXPECT_TRUE(srv.server->bans().is_banned("127.0.0.1", srv.fake_now_ms));

  // Banned: the next connection is refused at accept.
  const int fd = connect_client(srv.server->port());
  ASSERT_GE(fd, 0);
  (void)srv.server->poll_once(0);
  EXPECT_EQ(srv.server->connection_count(), 0u);
  EXPECT_GE(srv.server->stats().conns_refused_banned, 1u);
  ::close(fd);
}

TEST_F(NetGatewayUnit, WriteStallClientIsDisconnectedWithBoundedBuffer) {
  auto gw = make_gateway();
  ServerConfig scfg;
  scfg.conn.so_sndbuf = 4096;          // tiny kernel buffer: stalls are real
  scfg.conn.write_buffer_hard = 16384; // bounded userspace buffer
  scfg.conn.write_buffer_soft = 4096;
  ScriptedServer srv(*gw, now, scfg);
  ASSERT_TRUE(srv.started);
  const int fd = connect_client(srv.server->port());
  ASSERT_GE(fd, 0);

  // Thousands of pipelined receipt lookups, responses never drained:
  // ~35 B per response adds up far beyond sndbuf + hard cap.
  Bytes burst;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    append(burst, make_frame(MsgType::kGetReceipt, i, gateway::GetReceiptRequest{i}.serialize()));
  }
  write_all(fd, burst);
  for (int i = 0; i < 200 && srv.server->stats().write_overflows == 0; ++i) {
    (void)srv.server->poll_once(0);
  }
  const auto st = srv.server->stats();
  EXPECT_EQ(st.write_overflows, 1u) << "write-stall client not disconnected";
  EXPECT_EQ(srv.server->connection_count(), 0u);
  // Bounded memory: the server refused to buffer the full response stream —
  // it disconnected long before all 4000 responses were queued.
  EXPECT_LT(st.responses_out, 4000u);
  ::close(fd);
}

TEST_F(NetGatewayUnit, WriteOverflowMidBatchDoesNotShiftOtherConnectionsResponses) {
  auto gw_net = make_gateway();
  auto gw_ref = make_gateway();
  ServerConfig scfg;
  scfg.conn.so_sndbuf = 4096;
  scfg.conn.write_buffer_hard = 8192;
  scfg.conn.write_buffer_soft = 4096;
  ScriptedServer srv(*gw_net, now, scfg);
  ASSERT_TRUE(srv.started);

  const int fd_stall = connect_client(srv.server->port());
  ASSERT_GE(fd_stall, 0);
  (void)srv.server->poll_once(0);  // accept first: lower tag, dispatched first
  const int fd_victim = connect_client(srv.server->port());
  ASSERT_GE(fd_victim, 0);
  (void)srv.server->poll_once(0);
  ASSERT_EQ(srv.server->connection_count(), 2u);

  // The stalling connection floods receipt lookups and never drains its
  // responses; the victim sends one query. Both land in the same poll
  // batch, so the staller's mid-batch overflow close must not shift the
  // victim onto the dead connection's leftover responses.
  Bytes burst;
  for (std::uint64_t i = 0; i < 4000; ++i) {
    append(burst, make_frame(MsgType::kGetReceipt, i, gateway::GetReceiptRequest{i}.serialize()));
  }
  write_all(fd_stall, burst);
  const Bytes victim_frame =
      make_frame(MsgType::kQueryEscrow, 990001,
                 gateway::QueryEscrowRequest{dep->customer().escrow_id()}.serialize());
  const Bytes expected = gw_ref->serve(victim_frame, now);
  write_all(fd_victim, victim_frame);

  FrameAssembler rx;
  std::vector<Bytes> got;
  for (int i = 0; i < 200 && (srv.server->stats().write_overflows == 0 || got.empty()); ++i) {
    srv.pump_once(fd_victim, rx, got);
  }
  EXPECT_EQ(srv.server->stats().write_overflows, 1u) << "staller was not cut";
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], expected);
  const auto resp = Frame::deserialize(got[0]);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->request_id, 990001u);
  ::close(fd_stall);
  ::close(fd_victim);
}

TEST_F(NetGatewayUnit, GarbageFramesScoreThenBanThenExpire) {
  auto gw = make_gateway();
  ServerConfig scfg;
  scfg.score_framing = 50;
  scfg.ban.threshold = 100;
  scfg.ban.duration_ms = 5'000;
  ScriptedServer srv(*gw, now, scfg);
  ASSERT_TRUE(srv.started);

  const auto attack_once = [&](bool oversized) {
    const int fd = connect_client(srv.server->port());
    EXPECT_GE(fd, 0);
    if (oversized) {
      Writer w;
      w.u32le(gateway::kWireMagic);
      w.u8(static_cast<std::uint8_t>(MsgType::kSubmitFastPay));
      w.u64le(77);
      w.varint(gateway::kMaxFramePayload + 1);
      write_all(fd, std::move(w).take());
    } else {
      write_all(fd, Bytes(32, 0x00));  // garbage: wrong magic
    }
    // The server answers with one typed kError frame, then closes.
    FrameAssembler rx;
    std::vector<Bytes> got;
    srv.pump_until(fd, 1, rx, got, 200);
    EXPECT_EQ(got.size(), 1u);
    if (!got.empty()) {
      const auto resp = Frame::deserialize(got[0]);
      ASSERT_TRUE(resp.has_value());
      EXPECT_EQ(resp->type, MsgType::kError);
      if (oversized) {
        EXPECT_EQ(resp->request_id, 77u);  // echoed from the header
      }
    }
    for (int i = 0; i < 20 && srv.server->connection_count() > 0; ++i) {
      (void)srv.server->poll_once(0);
    }
    EXPECT_EQ(srv.server->connection_count(), 0u);
    ::close(fd);
  };

  attack_once(/*oversized=*/false);  // score 50
  EXPECT_EQ(srv.server->bans().score("127.0.0.1"), 50u);
  attack_once(/*oversized=*/true);  // score 100 -> ban
  EXPECT_EQ(srv.server->stats().bans_issued, 1u);
  EXPECT_EQ(srv.server->stats().framing_errors, 2u);

  // Reconnect while banned: refused without a byte of service.
  const int fd = connect_client(srv.server->port());
  ASSERT_GE(fd, 0);
  (void)srv.server->poll_once(0);
  EXPECT_EQ(srv.server->connection_count(), 0u);
  EXPECT_EQ(srv.server->stats().conns_refused_banned, 1u);
  ::close(fd);

  // After the ban expires the peer starts clean and is served again.
  srv.fake_now_ms += 6'000;
  auto gw_ref = make_gateway();
  const Bytes query = make_frame(
      MsgType::kQueryEscrow, 9, gateway::QueryEscrowRequest{dep->customer().escrow_id()}.serialize());
  const Bytes expected = gw_ref->serve(query, now);
  const int fd2 = connect_client(srv.server->port());
  ASSERT_GE(fd2, 0);
  write_all(fd2, query);
  FrameAssembler rx;
  std::vector<Bytes> got;
  srv.pump_until(fd2, 1, rx, got);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], expected);
  ::close(fd2);
}

TEST_F(NetGatewayUnit, IdleConnectionsAreReaped) {
  auto gw = make_gateway();
  ServerConfig scfg;
  scfg.conn.idle_timeout_ms = 1000;
  ScriptedServer srv(*gw, now, scfg);
  ASSERT_TRUE(srv.started);
  const int fd = connect_client(srv.server->port());
  ASSERT_GE(fd, 0);
  (void)srv.server->poll_once(0);
  EXPECT_EQ(srv.server->connection_count(), 1u);
  srv.fake_now_ms += 2000;
  (void)srv.server->poll_once(0);
  EXPECT_EQ(srv.server->connection_count(), 0u);
  EXPECT_EQ(srv.server->stats().timeouts_idle, 1u);
  // Idle is rude, not hostile: no misbehavior score.
  EXPECT_EQ(srv.server->bans().score("127.0.0.1"), 0u);
  ::close(fd);
}

TEST_F(NetGatewayUnit, MaxConnectionLimitRefusesTheOverflowPeer) {
  auto gw = make_gateway();
  ServerConfig scfg;
  scfg.max_connections = 2;
  ScriptedServer srv(*gw, now, scfg);
  ASSERT_TRUE(srv.started);
  const int a = connect_client(srv.server->port());
  const int b = connect_client(srv.server->port());
  const int c = connect_client(srv.server->port());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  ASSERT_GE(c, 0);
  for (int i = 0; i < 10; ++i) (void)srv.server->poll_once(0);
  EXPECT_EQ(srv.server->connection_count(), 2u);
  EXPECT_EQ(srv.server->stats().conns_refused_full, 1u);
  ::close(a);
  ::close(b);
  ::close(c);
}

TEST_F(NetGatewayUnit, NetCountersFoldIntoGatewayStatsJson) {
  auto gw = make_gateway();
  ScriptedServer srv(*gw, now);
  ASSERT_TRUE(srv.started);
  const int fd = connect_client(srv.server->port());
  ASSERT_GE(fd, 0);
  write_all(fd, submit_frame(1, 0));
  FrameAssembler rx;
  std::vector<Bytes> got;
  srv.pump_until(fd, 1, rx, got);
  ASSERT_EQ(got.size(), 1u);

  // The net section is read from the server when the document is rendered.
  const std::string json = gw->stats_json({srv.server->stats_section()});
  const auto ns = srv.server->stats();
  EXPECT_EQ(ns.conns_accepted, 1u);
  EXPECT_EQ(ns.frames_in, 1u);
  EXPECT_NE(json.find("\"net\""), std::string::npos);
  EXPECT_NE(json.find("\"conns_accepted\": 1"), std::string::npos);
  EXPECT_EQ(stats_doc::counter(json, "net", "conns_accepted"), ns.conns_accepted);
  EXPECT_EQ(stats_doc::counter(json, "net", "conns_active"), ns.conns_active);
  EXPECT_EQ(stats_doc::counter(json, "net", "bans"), ns.bans_issued);
  EXPECT_EQ(stats_doc::counter(json, "net", "frames_in"), ns.frames_in);
  EXPECT_EQ(stats_doc::counter(json, "net", "sheds_seen"), ns.sheds_seen);
  EXPECT_EQ(stats_doc::counter(json, "net", "disconnects"), ns.disconnects);
  ::close(fd);
}

}  // namespace
}  // namespace btcfast::net
