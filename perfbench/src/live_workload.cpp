// The live (anonsvc) side of the benchmark.
//
// live_consensus_cell / live_abd_cell run one transport-"live" scenario
// cell layer by layer, as the scenario layer's live runner does, with a
// span around each call into svc/.
//
// run_open_loop_phase drives a 3-node loopback UDP cluster (2 ms pacemaker
// period) with an open-loop, fixed-rate mix of client calls.  One generator
// thread releases each call at its due time, whatever the state of earlier
// calls; the time from due to release is the generator's lateness.  It
// speaks the
// service's client protocol (svc/frame.hpp codecs, u32-length framing)
// over non-blocking TCP connections, one call outstanding per connection:
//   - every reg_write goes on one connection, so the register has a single
//     writer whose writes never overlap;
//   - ws_get and reg_read rotate over the other connections.
// It opens at most max(3, min(4, nproc)) connections.
//
// ws_add is left out of the mix: the service can confirm an add before
// every peer holds the value, so a later get on another node may miss it
// (CHANGES.md, FOUND), and that happens only now and then, under load.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fcntl.h>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "live.hpp"
#include "runtime/codec.hpp"
#include "svc/client.hpp"
#include "svc/daemon.hpp"
#include "svc/frame.hpp"

namespace perfbench {

namespace {

using anon::ClientRequest;
using anon::ClientResponse;
using anon::SvcOp;

constexpr std::size_t kNodes = 3;
constexpr double kRatePerS = 300;  // offered load, below saturation
constexpr auto kOpTimeout = std::chrono::milliseconds(2000);
constexpr auto kPeriod = std::chrono::milliseconds(2);

// One block of the mix; every run issues whole blocks.
struct MixEntry {
  SvcOp op;
  int count;
};
constexpr MixEntry kMixBlock[] = {{SvcOp::kWsGet, 24},
                                  {SvcOp::kRegRead, 18},
                                  {SvcOp::kRegWrite, 8}};
constexpr int kBlockSize = 50;

const char* op_name(SvcOp op) {
  switch (op) {
    case SvcOp::kWsGet: return "ws_get";
    case SvcOp::kRegRead: return "reg_read";
    case SvcOp::kRegWrite: return "reg_write";
    case SvcOp::kWsAdd: return "ws_add";
    case SvcOp::kStatus: return "status";
    case SvcOp::kDecision: return "decision";
  }
  return "?";
}

struct LiveCall {
  SvcOp op = SvcOp::kStatus;
  std::int64_t value = 0;
  std::size_t conn = 0;
  Clock::time_point due, released, sent, done;
  bool ok = false;
  std::vector<anon::Value> values;
};

class Conn {
 public:
  Conn() = default;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool open(std::uint16_t port) {
    const auto deadline = Clock::now() + std::chrono::seconds(2);
    for (;;) {
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd_ < 0) return false;
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) break;
      ::close(fd_);
      fd_ = -1;
      if (Clock::now() > deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
  }

  int fd() const { return fd_; }
  bool alive() const { return fd_ >= 0; }

  // Sends one request; returns its id (0 on a transport error).
  std::uint64_t send(SvcOp op, bool has_value, std::int64_t value) {
    if (fd_ < 0) return 0;
    ClientRequest req;
    req.op = op;
    req.request_id = next_id_++;
    req.has_value = has_value;
    req.value = value;
    const anon::Bytes body = anon::encode_client_request(req);
    anon::ByteWriter w;
    w.u32(static_cast<std::uint32_t>(body.size()));
    anon::Bytes framed = w.take();
    framed.insert(framed.end(), body.begin(), body.end());
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t rc = ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
      if (rc > 0) {
        off += static_cast<std::size_t>(rc);
      } else if (rc < 0 && (errno == EAGAIN || errno == EINTR)) {
        pollfd p{fd_, POLLOUT, 0};
        ::poll(&p, 1, 10);
      } else {
        fail();
        return 0;
      }
    }
    return req.request_id;
  }

  // Drains the socket and returns every complete response.
  std::vector<ClientResponse> receive() {
    std::vector<ClientResponse> out;
    if (fd_ < 0) return out;
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
      if (got > 0) {
        rx_.insert(rx_.end(), buf, buf + got);
        continue;
      }
      if (got == 0 || (errno != EAGAIN && errno != EINTR)) fail();
      break;
    }
    std::size_t pos = 0;
    while (rx_.size() - pos >= 4) {
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i) len |= static_cast<std::uint32_t>(rx_[pos + i]) << (8 * i);
      if (rx_.size() - pos - 4 < len) break;
      const anon::Bytes body(rx_.begin() + static_cast<std::ptrdiff_t>(pos + 4),
                             rx_.begin() + static_cast<std::ptrdiff_t>(pos + 4 + len));
      pos += 4 + len;
      if (auto resp = anon::decode_client_response(body)) out.push_back(std::move(*resp));
    }
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(pos));
    return out;
  }

  // A blocking call outside the timed batch.
  std::optional<ClientResponse> call(SvcOp op, std::chrono::milliseconds timeout) {
    const std::uint64_t id = send(op, false, 0);
    if (id == 0) return std::nullopt;
    const auto deadline = Clock::now() + timeout;
    while (alive() && Clock::now() < deadline) {
      pollfd p{fd_, POLLIN, 0};
      ::poll(&p, 1, 5);
      for (ClientResponse& r : receive())
        if (r.request_id == id) return std::move(r);
    }
    return std::nullopt;
  }

  // Queue of released calls waiting for this connection, and the one in
  // flight.
  std::deque<std::size_t> queue;
  std::optional<std::size_t> in_flight;
  std::uint64_t in_flight_id = 0;

 private:
  void fail() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  anon::Bytes rx_;
};

struct Cluster {
  std::unique_ptr<anon::LiveCluster> cluster;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<anon::Value> proposals;
};

std::size_t connection_count() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(3, std::min<std::size_t>(4, hw));
}

// Boots the cluster, opens the connections and waits for every node's
// consensus decision, which must agree and be one of the proposals.
std::string boot(Cluster& c, InputRng& rng, std::uint64_t seed) {
  anon::LiveClusterOptions opt;
  opt.n = kNodes;
  opt.seed = seed;
  opt.period = kPeriod;
  std::set<std::int64_t> seen;
  while (c.proposals.size() < kNodes) {
    const std::int64_t v = rng.range(1, 1'000'000);
    if (seen.insert(v).second) c.proposals.push_back(anon::Value(v));
  }
  opt.proposals = c.proposals;
  c.cluster = std::make_unique<anon::LiveCluster>(opt);
  if (!c.cluster->start()) return "cluster failed to start: " + c.cluster->error();
  for (std::size_t i = 0; i < connection_count(); ++i) {
    c.conns.push_back(std::make_unique<Conn>());
    if (!c.conns.back()->open(c.cluster->client_port(i % kNodes)))
      return "cannot connect to node " + std::to_string(i % kNodes);
  }
  std::vector<std::optional<anon::Value>> decisions;
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto r = c.conns[i]->call(SvcOp::kDecision, std::chrono::seconds(10));
    if (!r || r->status != anon::SvcStatus::kOk || r->values.size() != 1)
      return "node " + std::to_string(i) + " did not decide";
    decisions.push_back(r->values[0]);
  }
  return check_consensus(decisions, c.proposals, std::vector<bool>(kNodes, false));
}

void shutdown(Cluster& c) {
  if (!c.cluster) return;
  c.cluster->stop_all();
  c.cluster->join();
}

// The call schedule: whole blocks of the mix, shuffled by the seed, with
// unique write values.
std::vector<LiveCall> make_schedule(InputRng& rng, std::size_t blocks,
                                    std::size_t conns, std::int64_t* next_value) {
  std::vector<LiveCall> calls;
  std::size_t reads = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<SvcOp> block;
    for (const MixEntry& m : kMixBlock) block.insert(block.end(), m.count, m.op);
    for (std::size_t i = block.size(); i > 1; --i)
      std::swap(block[i - 1], block[rng.below(i)]);
    for (SvcOp op : block) {
      LiveCall c;
      c.op = op;
      if (op == SvcOp::kRegWrite) {
        c.value = (*next_value)++;
        c.conn = 1;
      } else {
        const std::size_t k = reads++ % (conns - 1);  // skip the writer's
        c.conn = k == 0 ? 0 : k + 1;
      }
      calls.push_back(c);
    }
  }
  return calls;
}

struct Histories {
  std::vector<anon::WsOpRecord> ws;
  std::vector<anon::RegOpRecord> reg;
};

struct BatchResult {
  std::uint64_t failed = 0;
  std::vector<double> late_s;  // release time minus due time
};

// Runs one open-loop batch on the generator thread (the caller's); every
// answered call becomes a span from send to reply.
BatchResult run_batch(Cluster& c, std::vector<LiveCall>& calls,
                      Clock::time_point origin, Histories& hist, Tracer& tr) {
  BatchResult res;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto gap = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRatePerS));
  for (std::size_t i = 0; i < calls.size(); ++i)
    calls[i].due = start + gap * static_cast<Clock::rep>(i);

  std::size_t next_release = 0, finished = 0;
  auto finish = [&](std::size_t idx, bool ok, Clock::time_point when) {
    LiveCall& call = calls[idx];
    call.ok = ok;
    call.done = when;
    ++finished;
  };
  auto pump = [&](Conn& conn) {
    while (!conn.in_flight && !conn.queue.empty()) {
      const std::size_t idx = conn.queue.front();
      conn.queue.pop_front();
      LiveCall& call = calls[idx];
      call.sent = Clock::now();
      const std::uint64_t id =
          conn.send(call.op, call.op == SvcOp::kRegWrite, call.value);
      if (id == 0) {
        finish(idx, false, call.sent);
        continue;
      }
      conn.in_flight = idx;
      conn.in_flight_id = id;
    }
  };

  std::vector<pollfd> fds(c.conns.size());
  while (finished < calls.size()) {
    auto now = Clock::now();
    while (next_release < calls.size() && calls[next_release].due <= now) {
      LiveCall& call = calls[next_release];
      call.released = now;
      c.conns[call.conn]->queue.push_back(next_release);
      ++next_release;
    }
    for (auto& conn : c.conns) {
      if (!conn->alive()) {  // transport gone: everything on it fails
        if (conn->in_flight) finish(*conn->in_flight, false, now);
        conn->in_flight.reset();
        for (std::size_t idx : conn->queue) finish(idx, false, now);
        conn->queue.clear();
        continue;
      }
      if (conn->in_flight && now - calls[*conn->in_flight].sent > kOpTimeout) {
        finish(*conn->in_flight, false, now);  // a late reply is ignored
        conn->in_flight.reset();
      }
      pump(*conn);
    }
    // Sleep until the next due time or a reply, whichever comes first.
    // (A busy-polling generator takes a whole core from the three nodes.)
    Clock::duration wait = std::chrono::milliseconds(5);
    if (next_release < calls.size())
      wait = std::min<Clock::duration>(wait, calls[next_release].due - Clock::now());
    for (std::size_t i = 0; i < fds.size(); ++i)
      fds[i] = pollfd{c.conns[i]->fd(), POLLIN, 0};
    if (wait > Clock::duration::zero()) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      timespec ts{static_cast<time_t>(ns / 1'000'000'000), static_cast<long>(ns % 1'000'000'000)};
      ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    } else {
      ::poll(fds.data(), fds.size(), 0);
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      Conn& conn = *c.conns[i];
      const auto received = conn.receive();
      const auto at = Clock::now();
      for (const ClientResponse& r : received) {
        if (!conn.in_flight || r.request_id != conn.in_flight_id) continue;
        const std::size_t idx = *conn.in_flight;
        conn.in_flight.reset();
        calls[idx].values = r.values;
        finish(idx, r.status == anon::SvcStatus::kOk, at);
      }
      pump(conn);
    }
  }

  const auto to_ns = [&](Clock::time_point t) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count());
  };
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const LiveCall& call = calls[i];
    res.late_s.push_back(seconds_between(call.due, call.released));
    if (!call.ok) ++res.failed;
    else tr.add(std::string("svc.") + op_name(call.op), call.sent, call.done, i);
    // Histories on one clock: [send, reply].  A failed mutation may still
    // take effect, so it stays in the history as never completed; a failed
    // observation returned nothing and is left out.
    const std::uint64_t s = to_ns(call.sent), e = call.ok ? to_ns(call.done) : kNever;
    switch (call.op) {
      case SvcOp::kWsGet:
        if (call.ok) {
          anon::WsOpRecord rec{anon::WsOpRecord::Kind::kGet, anon::Value(), {}, s, e, 2};
          for (const anon::Value& v : call.values) rec.result.insert(v);
          hist.ws.push_back(std::move(rec));
        }
        break;
      case SvcOp::kRegWrite:
        hist.reg.push_back({anon::RegOpRecord::Kind::kWrite, anon::Value(call.value), s, e, 1});
        break;
      case SvcOp::kRegRead:
        if (call.ok) {
          std::optional<anon::Value> v;
          if (!call.values.empty()) v = call.values[0];
          hist.reg.push_back({anon::RegOpRecord::Kind::kRead, v, s, e, 2});
        }
        break;
      default:
        break;
    }
  }
  return res;
}

// The scenario layer's live-cluster options for a spec (transport "live").
anon::LiveClusterOptions cluster_options(const anon::ScenarioSpec& spec) {
  anon::LiveClusterOptions opt;
  opt.n = spec.n;
  opt.seed = spec.seeds.at(0);
  opt.socket = spec.live.socket == anon::LiveSpecSection::Socket::kTcp
                   ? anon::SvcSocketKind::kTcp
                   : anon::SvcSocketKind::kUdp;
  opt.period = std::chrono::milliseconds(spec.live.period_ms);
  opt.max_jitter = std::chrono::milliseconds(spec.live.jitter_ms);
  opt.loss = spec.live.loss;
  opt.watchdog_rounds = spec.live.watchdog_rounds;
  if (spec.stabilization != 0) opt.stabilize_after = spec.stabilization;
  return opt;
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        Clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

anon::ConsensusCellOutcome live_consensus_cell(
    const anon::ScenarioSpec& spec, Tracer* tr,
    std::vector<std::optional<anon::Value>>* decisions) {
  const auto timeout = std::chrono::milliseconds(spec.live.op_timeout_ms);
  anon::LiveClusterOptions opt;
  std::vector<anon::Value> proposals;
  anon::CrashPlan plan;
  {
    ScopedSpan span(tr, "env.inputs");
    opt = cluster_options(spec);
    opt.max_rounds = spec.consensus.max_rounds;
    proposals = spec.initial_values();
    opt.proposals = proposals;
    plan = spec.crash_plan(opt.seed);
    opt.crash_at.assign(spec.n, 0);
    for (std::size_t p = 0; p < spec.n; ++p)
      if (plan.crash_round(p) != anon::kNeverCrashes) opt.crash_at[p] = plan.crash_round(p);
  }
  anon::LiveCluster cluster(opt);
  std::vector<std::unique_ptr<anon::SvcClient>> clients(spec.n);
  {
    ScopedSpan span(tr, "svc.boot");
    if (!cluster.start()) throw std::runtime_error("live cluster failed to start: " + cluster.error());
    for (std::size_t i = 0; i < spec.n; ++i) {
      if (plan.crash_round(i) != anon::kNeverCrashes) continue;  // ask correct nodes only
      clients[i] = std::make_unique<anon::SvcClient>();
      if (!clients[i]->connect(cluster.client_port(i))) clients[i].reset();
    }
  }
  anon::ConsensusCellOutcome cell;
  anon::ConsensusReport& rep = cell.report;
  rep.all_correct_decided = true;
  bool any_timeout = false, first = true;
  std::vector<anon::Value> decided;
  decisions->assign(spec.n, std::nullopt);
  for (std::size_t i = 0; i < spec.n; ++i) {
    if (plan.crash_round(i) != anon::kNeverCrashes) continue;
    if (!clients[i]) {
      rep.all_correct_decided = false;
      continue;
    }
    ScopedSpan span(tr, first ? "svc.first_decision" : "svc.decision");
    first = false;
    const auto r = clients[i]->decision(timeout);
    if (r.ok() && r.values.size() == 1) {
      decided.push_back(r.values[0]);
      (*decisions)[i] = r.values[0];
    } else {
      rep.all_correct_decided = false;
      any_timeout |= r.transport_ok && r.status == anon::SvcStatus::kTimeout;
    }
  }
  {
    ScopedSpan span(tr, "svc.stop");
    cluster.stop_all();
    cluster.join();
  }
  for (const anon::Value& d : decided) {
    if (!(d == decided[0])) rep.agreement = false;
    bool proposed = false;
    for (const anon::Value& p : proposals) proposed |= p == d;
    if (!proposed) rep.validity = false;
  }
  if (!decided.empty()) rep.value = decided[0];
  rep.undecided = any_timeout && !rep.all_correct_decided;
  for (std::size_t i = 0; i < cluster.n(); ++i) {
    const anon::LiveNode& node = cluster.node(i);
    rep.rounds_executed = std::max(rep.rounds_executed, node.rounds_executed());
    rep.sends += node.frames_sent();
    rep.bytes_sent += node.bytes_sent();
    rep.deliveries += node.frames_received();
    rep.fault_drops += node.fault_drops();
    if (!node.decision().has_value()) continue;
    if (rep.first_decision_round == anon::kNoRound || node.decision_round() < rep.first_decision_round)
      rep.first_decision_round = node.decision_round();
    if (plan.crash_round(i) == anon::kNeverCrashes &&
        (rep.last_decision_round == anon::kNoRound || node.decision_round() > rep.last_decision_round))
      rep.last_decision_round = node.decision_round();
  }
  rep.hit_round_limit =
      !rep.all_correct_decided && rep.rounds_executed >= spec.consensus.max_rounds;
  return cell;
}

anon::AbdCellOutcome live_abd_cell(const anon::ScenarioSpec& spec, Tracer* tr,
                                   std::vector<anon::RegOpRecord>* history) {
  const auto timeout = std::chrono::milliseconds(spec.live.op_timeout_ms);
  anon::LiveClusterOptions opt;
  std::size_t reader_node = 0;
  {
    ScopedSpan span(tr, "env.inputs");
    opt = cluster_options(spec);
    opt.crash_at.assign(spec.n, 0);
    for (std::size_t k = 0; k < spec.abd.crash_prefix; ++k) opt.crash_at[spec.n - 1 - k] = 1;
    if (spec.n > spec.abd.crash_prefix + 1) reader_node = spec.n - spec.abd.crash_prefix - 1;
  }
  anon::LiveCluster cluster(opt);
  anon::SvcClient writer, reader;
  bool connected = false;
  {
    ScopedSpan span(tr, "svc.boot");
    if (!cluster.start()) throw std::runtime_error("live cluster failed to start: " + cluster.error());
    connected = writer.connect(cluster.client_port(0)) &&
                reader.connect(cluster.client_port(reader_node));
  }
  anon::AbdCellOutcome cell;
  history->clear();
  if (connected) {
    anon::RegOpRecord w{anon::RegOpRecord::Kind::kWrite, anon::Value(spec.abd.write_value),
                        steady_ns(), 0, 0};
    anon::SvcClient::Result wr;
    {
      ScopedSpan span(tr, "svc.probe_write");
      wr = writer.reg_write(spec.abd.write_value, timeout);
    }
    w.end = wr.ok() ? steady_ns() : std::numeric_limits<std::uint64_t>::max();
    history->push_back(w);
    if (wr.ok()) {
      anon::RegOpRecord r{anon::RegOpRecord::Kind::kRead, std::nullopt, steady_ns(), 0, reader_node};
      anon::SvcClient::Result rr;
      {
        ScopedSpan span(tr, "svc.probe_read");
        rr = reader.reg_read(timeout);
      }
      r.end = steady_ns();
      if (rr.ok()) {
        if (!rr.values.empty()) r.value = rr.values[0];
        history->push_back(r);
      }
      cell.completed = rr.ok() && rr.values.size() == 1 &&
                       rr.values[0] == anon::Value(spec.abd.write_value);
    }
  }
  {
    ScopedSpan span(tr, "svc.stop");
    cluster.stop_all();
    cluster.join();
  }
  for (std::size_t i = 0; i < cluster.n(); ++i) cell.messages += cluster.node(i).frames_sent();
  return cell;
}

void run_open_loop_phase(const RunArgs& args, Tracer& tracer, RunOutput& out) {
  constexpr double kSeconds = 3;
  InputRng rng(args.seed ^ 0x0e11100bULL);
  const std::string where = "workload " + args.workload + ", seed " +
                            std::to_string(args.seed) + ", open-loop phase: ";
  Cluster live;
  if (std::string why = boot(live, rng, args.seed); !why.empty()) {
    shutdown(live);
    out.fail(where + why);
    return;
  }
  const std::size_t blocks =
      static_cast<std::size_t>(std::max(1.0, std::round(kSeconds * kRatePerS / kBlockSize)));
  std::int64_t next_value = 1 + static_cast<std::int64_t>(rng.below(1'000'000)) * 1000;
  std::vector<LiveCall> calls = make_schedule(rng, blocks, live.conns.size(), &next_value);
  Histories hist;
  Conn& probe = *live.conns[2];
  const auto a = probe.call(SvcOp::kStatus, std::chrono::seconds(1));
  const auto ta = Clock::now();
  const BatchResult batch = run_batch(live, calls, ta, hist, tracer);
  const auto b = probe.call(SvcOp::kStatus, std::chrono::seconds(1));
  const auto tb = Clock::now();
  shutdown(live);
  out.attempted += calls.size();
  out.failed += batch.failed;
  if (std::string why = check_weak_set_naive(hist.ws); !why.empty()) out.fail(where + why);
  if (std::string why = check_register_naive(hist.reg); !why.empty()) out.fail(where + why);

  for (const char* kind : {"ws_get", "reg_read", "reg_write"}) {
    const std::vector<double> d = tracer.durations(std::string("svc.") + kind);
    out.set(std::string("svc.") + kind + "_p50_ms", 1e3 * percentile(d, 0.5), "ms");
    out.set(std::string("svc.") + kind + "_p90_ms", 1e3 * percentile(d, 0.9), "ms");
  }
  if (a && b && b->info > a->info)
    out.set("svc.round_ms",
            1e3 * seconds_between(ta, tb) / static_cast<double>(b->info - a->info), "ms");
  std::uint64_t frames = 0, bytes = 0, served = 0;
  for (std::size_t i = 0; i < live.cluster->n(); ++i) {
    frames += live.cluster->node(i).frames_sent();
    bytes += live.cluster->node(i).bytes_sent();
    served += live.cluster->node(i).client_ops();
  }
  if (served > 0) {
    out.set("svc.frames_per_op", static_cast<double>(frames) / static_cast<double>(served),
            "frames/op");
    out.set("svc.bytes_per_op", static_cast<double>(bytes) / static_cast<double>(served), "B/op");
  }
  out.set("svc.gen_late_p50_ms", 1e3 * percentile(batch.late_s, 0.5), "ms");
  out.set("svc.gen_late_max_ms", 1e3 * percentile(batch.late_s, 1.0), "ms");
}

}  // namespace perfbench
