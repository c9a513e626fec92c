#include "svc/node.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>

namespace anon {

namespace {

constexpr std::size_t kMaxRequestBytes = 1u << 16;

bool set_nonblocking_fd(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

LiveNode::LiveNode(LiveNodeOptions opt)
    : opt_(opt),
      jitter_(opt.seed, opt.max_jitter, opt.loss),
      consensus_(std::make_unique<EsConsensus>(opt.proposal)),
      weakset_(std::make_unique<MsWeakSetAutomaton>()) {
  ws_automaton_ = static_cast<MsWeakSetAutomaton*>(&weakset_.automaton());
  // Without a wake fd stop() still works, only at the next poll timeout.
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
}

LiveNode::~LiveNode() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (ClientConn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
  if (transport_) transport_->close();
}

bool LiveNode::open() {
  transport_ = make_transport(opt_.socket);
  if (!transport_->open()) {
    error_ = transport_->error();
    return false;
  }
  if (!open_client_listener()) {
    transport_->close();
    return false;
  }
  return true;
}

std::uint16_t LiveNode::data_port() const {
  return transport_ ? transport_->port() : 0;
}

void LiveNode::connect_peers(const std::vector<SvcEndpoint>& peers) {
  transport_->connect_peers(peers);
}

bool LiveNode::open_client_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    error_ = std::string("socket(client): ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listen_fd_, 64) != 0 || !set_nonblocking_fd(listen_fd_)) {
    error_ = std::string("bind/listen(client): ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    client_port_ = ntohs(addr.sin_port);
  return client_port_ != 0;
}

void LiveNode::stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  // A full counter (EAGAIN) already wakes the poll, so the result is moot.
  [[maybe_unused]] const ssize_t rc = ::write(wake_fd_, &one, sizeof(one));
}

void LiveNode::run() {
  event_loop();
  // Never leave a client hanging: whatever is still pending when the loop
  // ends (max_rounds, crash drill, external stop) resolves as a timeout —
  // the live face of the simulator's `undecided` watchdog outcome.
  fail_all_pending(SvcStatus::kTimeout);
  frames_sent_ = transport_->frames_sent();
  bytes_sent_ = transport_->bytes_sent();
  transport_->close();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  listen_fd_ = -1;
  for (ClientConn& c : conns_)
    if (c.fd >= 0) ::close(c.fd), c.fd = -1;
}

void LiveNode::event_loop() {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  PacemakerOptions popt;
  popt.period = opt_.period;
  popt.min_timeout = opt_.period + std::chrono::milliseconds(2);
  popt.max_timeout = opt_.period * 4 + std::chrono::milliseconds(8);
  popt.seed = opt_.seed + 0x9e3779b9u * (opt_.index + 1);
  popt.peers = opt_.n;
  popt.stabilize_after = opt_.stabilize_after;
  // UDP attributes senders, so rounds can gate on the rotating source's
  // batch (the live round-source property; see pacemaker.hpp).  TCP
  // inbound is unattributed — gating off, decisions are best-effort there.
  popt.gate_on_source = opt_.socket == SvcSocketKind::kUdp;
  popt.self = opt_.index;
  pacemaker_ = std::make_unique<RoundPacemaker>(popt, start);

  std::vector<struct pollfd> fds;
  std::vector<std::size_t> conn_map;
  std::vector<Transport::Datagram> datagrams;

  while (!stop_.load(std::memory_order_acquire)) {
    auto now = Clock::now();

    // Jitter-delayed frames whose due time passed.
    if (!due_.empty()) {
      std::size_t kept = 0;
      for (std::size_t i = 0; i < due_.size(); ++i) {
        if (due_[i].due <= now)
          deliver(due_[i].frame, due_[i].peer, now);
        else
          due_[kept++] = std::move(due_[i]);
      }
      due_.resize(kept);
    }

    if (pacemaker_->can_close(now)) {
      if (pacemaker_->round() > opt_.max_rounds) break;
      if (pacemaker_->round() >= opt_.crash_at) break;  // crash: silent stop
      do_round(now);
      continue;
    }

    // Sleep until the next deadline — or, in a gated wait (deadline passed
    // but the round source's batch is still in flight), until the hard
    // give-up point; an arriving frame wakes the poll earlier.
    const auto wake = now < pacemaker_->deadline() ? pacemaker_->deadline()
                                                   : pacemaker_->hard_deadline();
    auto timeout = std::chrono::duration_cast<std::chrono::milliseconds>(
                       wake - now) +
                   std::chrono::milliseconds(1);
    for (const DueFrame& d : due_)
      timeout = std::min(
          timeout, std::chrono::duration_cast<std::chrono::milliseconds>(
                       d.due - now) +
                       std::chrono::milliseconds(1));
    if (timeout.count() < 0) timeout = std::chrono::milliseconds(0);

    fds.clear();
    const std::size_t tcount = transport_->append_pollfds(&fds);
    const std::size_t listen_at = fds.size();
    if (listen_fd_ >= 0) fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    conn_map.clear();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].fd < 0) continue;
      fds.push_back(pollfd{conns_[i].fd, POLLIN, 0});
      conn_map.push_back(i);
    }
    // Last, so the slices above keep their offsets.  Only stop() writes
    // it, and the loop then ends, so it is never drained.
    if (wake_fd_ >= 0) fds.push_back(pollfd{wake_fd_, POLLIN, 0});
    poll_fds(fds, timeout);

    now = Clock::now();
    datagrams.clear();
    transport_->drain(fds.data(), tcount, &datagrams);
    for (Transport::Datagram& d : datagrams) ingress(std::move(d), now);
    if (listen_fd_ >= 0 && (fds[listen_at].revents & POLLIN)) accept_clients();
    for (std::size_t j = 0; j < conn_map.size(); ++j) {
      const struct pollfd& p = fds[listen_at + (listen_fd_ >= 0 ? 1 : 0) + j];
      if (p.revents & (POLLIN | POLLHUP | POLLERR)) read_client(conn_map[j]);
    }
  }
}

void LiveNode::do_round(std::chrono::steady_clock::time_point now) {
  // Consensus round: compute, broadcast the whole round batch (own message
  // plus relays — Algorithm 1's send(⟨M_i[k_i], k_i⟩)).
  {
    auto out = consensus_.end_of_round();
    std::vector<ValueSet> batch(out.batch.begin(), out.batch.end());
    ServiceFrame f;
    f.kind = SvcFrameKind::kConsensusRound;
    f.epoch = opt_.epoch;
    f.round = out.round;
    f.payload = encode_valueset_batch(batch);
    transport_->broadcast(encode_service_frame(f));
    rounds_executed_ = out.round;
  }
  // Weak-set round on the same cadence.
  {
    auto out = weakset_.end_of_round();
    std::vector<ValueSet> batch(out.batch.begin(), out.batch.end());
    ServiceFrame f;
    f.kind = SvcFrameKind::kWeaksetRound;
    f.epoch = opt_.epoch;
    f.round = out.round;
    f.payload = encode_valueset_batch(batch);
    transport_->broadcast(encode_service_frame(f));
    // Visibility certificate for the in-flight add.  The round just
    // consumed is r = out.round - 1 (its view is still retained).  If every
    // peer's round-r weak-set frame arrived and every round-r message holds
    // the value, then every node's own round-r message — its proposed set —
    // holds it; proposed sets are monotone from round 1 on, so from here
    // every get at every node returns the value.  (Round-1 messages come
    // from initialize() and are always empty, so r >= 2.)
    if (ws_add_active_ && !ws_add_confirmed_ && out.round >= 3) {
      const Round r = out.round - 1;
      std::size_t frames = 0;
      for (const auto& [tag, count] : ws_tag_counts_)
        if (tag == r) frames = count;
      // A full view is one frame from each of the n - 1 peers.  UDP
      // attributes this node's own looped-back frame, which deliver() skips;
      // TCP inbound is unattributed, so there the own frame is counted too
      // and a full view needs n frames.
      const std::size_t full_view =
          opt_.socket == SvcSocketKind::kUdp ? opt_.n - 1 : opt_.n;
      if (frames >= full_view) {
        bool in_all = true;
        for (const ValueSet& m : weakset_.inbox(r))
          if (!m.contains(ws_adds_.front().value)) {
            in_all = false;
            break;
          }
        ws_add_confirmed_ = in_all;
      }
      std::erase_if(ws_tag_counts_,
                    [r](const auto& e) { return e.first + 1 < r; });
    }
  }
  abd_tick();
  pacemaker_->close_round(now);
  stabilized_ = pacemaker_->stabilized();
  stabilized_at_ = pacemaker_->stabilized_at();
  if (!decision_.has_value()) {
    decision_ = consensus_.decision();
    if (decision_.has_value()) decision_round_ = rounds_executed_;
  }
  service_waiters();
}

void LiveNode::ingress(Transport::Datagram&& d,
                       std::chrono::steady_clock::time_point now) {
  auto f = decode_service_frame(d.payload);
  if (!f || f->epoch != opt_.epoch) return;  // malformed or stale cluster
  ++frames_received_;
  // The live fault layer mirrors the simulator's safety contract: frames
  // attributed to the round's rotating source (round mod n) are exempt
  // from every injected fault (env/faults.hpp `exempt_source`) — everyone
  // still hears the source's batch, the property the agreement proof
  // needs, so only termination degrades under loss.  TCP inbound cannot
  // attribute senders, so exemption (and thus the loss knob) is a UDP
  // feature.
  if (d.peer != Transport::kUnknownPeer && opt_.n > 0 &&
      d.peer == f->round % opt_.n) {
    deliver(*f, d.peer, now);
    return;
  }
  const auto delay = jitter_.delivery_delay(opt_.index);
  if (!delay.has_value()) {
    ++fault_drops_;
    return;
  }
  if (delay->count() > 0) {
    due_.push_back(DueFrame{now + *delay, std::move(*f), d.peer});
    return;
  }
  deliver(*f, d.peer, now);
}

void LiveNode::deliver(const ServiceFrame& f, std::size_t peer,
                       std::chrono::steady_clock::time_point now) {
  switch (f.kind) {
    case SvcFrameKind::kConsensusRound: {
      if (f.round == 0) return;
      pacemaker_->note_frame(peer, f.round, now);
      auto batch = decode_valueset_batch(f.payload);
      if (!batch) return;
      consensus_.receive(std::move(*batch), f.round);
      break;
    }
    case SvcFrameKind::kWeaksetRound: {
      if (f.round == 0) return;
      auto batch = decode_valueset_batch(f.payload);
      if (!batch) return;
      weakset_.receive(std::move(*batch), f.round);
      // Count frames per tag for the add-visibility certificate (messages
      // dedup in the inbox — anonymity — but frames are countable).  The
      // node's own frame certifies nothing about the peers.
      if (peer == opt_.index) break;
      bool counted = false;
      for (auto& [tag, count] : ws_tag_counts_)
        if (tag == f.round) {
          ++count;
          counted = true;
        }
      if (!counted) ws_tag_counts_.emplace_back(f.round, 1);
      break;
    }
    case SvcFrameKind::kAbd: {
      auto m = decode_abd_wire(f.payload);
      if (!m) return;
      handle_abd(*m);
      break;
    }
    case SvcFrameKind::kHeartbeat:
      pacemaker_->note_frame(peer, f.round, now);
      break;
  }
}

Bytes LiveNode::abd_frame(const AbdWire& m) const {
  ServiceFrame f;
  f.kind = SvcFrameKind::kAbd;
  f.epoch = opt_.epoch;
  f.round = pacemaker_ ? pacemaker_->round() : 0;
  f.payload = encode_abd_wire(m);
  return encode_service_frame(f);
}

void LiveNode::handle_abd(const AbdWire& m) {
  switch (m.type) {
    case AbdWireType::kQuery: {
      if (m.origin >= opt_.n) return;
      AbdWire resp;
      resp.type = AbdWireType::kQueryResp;
      resp.op_id = m.op_id;
      resp.origin = m.origin;
      resp.replica = static_cast<std::uint32_t>(opt_.index);
      resp.ts = abd_tag_.ts;
      resp.wid = abd_tag_.wid;
      resp.has_value = abd_has_value_;
      resp.value = abd_value_;
      transport_->send_to(m.origin, abd_frame(resp));
      break;
    }
    case AbdWireType::kStore: {
      if (m.origin >= opt_.n) return;
      const AbdTag incoming{m.ts, m.wid};
      if (m.has_value && incoming > abd_tag_) {
        abd_tag_ = incoming;
        abd_has_value_ = true;
        abd_value_ = m.value;
      }
      AbdWire ack;
      ack.type = AbdWireType::kStoreAck;
      ack.op_id = m.op_id;
      ack.origin = m.origin;
      ack.replica = static_cast<std::uint32_t>(opt_.index);
      transport_->send_to(m.origin, abd_frame(ack));
      break;
    }
    case AbdWireType::kQueryResp: {
      for (AbdOp& op : abd_ops_) {
        if (op.op_id != m.op_id || op.store_phase) continue;
        if (m.replica >= op.heard.size() || op.heard[m.replica]) break;
        op.heard[m.replica] = true;
        ++op.heard_count;
        const AbdTag tag{m.ts, m.wid};
        if (m.has_value && (!op.best_has_value || tag > op.best)) {
          op.best = tag;
          op.best_has_value = true;
          op.best_value = m.value;
        }
        if (op.heard_count >= majority()) abd_start_phase(op, true);
        break;
      }
      break;
    }
    case AbdWireType::kStoreAck: {
      for (std::size_t i = 0; i < abd_ops_.size(); ++i) {
        AbdOp& op = abd_ops_[i];
        if (op.op_id != m.op_id || !op.store_phase) continue;
        if (m.replica >= op.heard.size() || op.heard[m.replica]) break;
        op.heard[m.replica] = true;
        ++op.heard_count;
        if (op.heard_count >= majority()) {
          abd_finish(op);
          abd_ops_.erase(abd_ops_.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      }
      break;
    }
  }
}

void LiveNode::abd_start_phase(AbdOp& op, bool store) {
  op.store_phase = store;
  op.heard.assign(opt_.n, false);
  op.heard_count = 0;
  if (store && op.is_write) {
    // Write: tag (max_ts + 1, own id), our value.
    op.best = AbdTag{op.best.ts + 1, static_cast<std::uint32_t>(opt_.index)};
    op.best_has_value = true;
    op.best_value = op.write_value;
  }
  // Read write-back keeps the queried max (the classic atomicity fix);
  // with no value in the system the store phase is a no-op ack round.
  AbdWire m;
  m.type = store ? AbdWireType::kStore : AbdWireType::kQuery;
  m.op_id = op.op_id;
  m.origin = static_cast<std::uint32_t>(opt_.index);
  m.ts = op.best.ts;
  m.wid = op.best.wid;
  m.has_value = op.best_has_value;
  m.value = op.best_value;
  transport_->broadcast(abd_frame(m));
}

void LiveNode::abd_tick() {
  // Retransmit the in-flight phase of every pending op: loss-tolerant
  // quorums by repetition, deduplicated at the coordinator by replica id.
  for (AbdOp& op : abd_ops_) {
    AbdWire m;
    m.type = op.store_phase ? AbdWireType::kStore : AbdWireType::kQuery;
    m.op_id = op.op_id;
    m.origin = static_cast<std::uint32_t>(opt_.index);
    m.ts = op.best.ts;
    m.wid = op.best.wid;
    m.has_value = op.store_phase ? op.best_has_value : false;
    m.value = op.best_value;
    if (!op.store_phase) {
      m.ts = 0;
      m.wid = 0;
      m.value = 0;
    }
    transport_->broadcast(abd_frame(m));
  }
}

void LiveNode::abd_finish(AbdOp& op) {
  ClientResponse resp;
  resp.status = SvcStatus::kOk;
  resp.request_id = op.request_id;
  resp.info = op.best.ts;
  if (!op.is_write && op.best_has_value)
    resp.values.push_back(Value(op.best_value));
  respond(op.conn, resp);
}

void LiveNode::accept_clients() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    if (!set_nonblocking_fd(fd)) {
      ::close(fd);
      continue;
    }
    conns_.push_back(ClientConn{fd, {}});
  }
}

void LiveNode::read_client(std::size_t conn_idx) {
  ClientConn& c = conns_[conn_idx];
  if (c.fd < 0) return;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t got = ::recv(c.fd, buf, sizeof(buf), 0);
    if (got < 0) break;  // EAGAIN
    if (got == 0) {
      ::close(c.fd);
      c.fd = -1;
      break;
    }
    c.buf.insert(c.buf.end(), buf, buf + got);
  }
  std::size_t pos = 0;
  while (c.buf.size() - pos >= 4) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
      len |= static_cast<std::uint32_t>(c.buf[pos + i]) << (8 * i);
    if (len > kMaxRequestBytes) {  // corrupt stream
      if (c.fd >= 0) ::close(c.fd);
      c.fd = -1;
      c.buf.clear();
      return;
    }
    if (c.buf.size() - pos - 4 < len) break;
    Bytes body(c.buf.begin() + pos + 4, c.buf.begin() + pos + 4 + len);
    pos += 4 + len;
    auto req = decode_client_request(body);
    if (!req) {
      ClientResponse resp;
      resp.status = SvcStatus::kError;
      respond(conn_idx, resp);
      continue;
    }
    handle_request(conn_idx, *req);
  }
  if (pos > 0) c.buf.erase(c.buf.begin(), c.buf.begin() + pos);
}

void LiveNode::handle_request(std::size_t conn_idx, const ClientRequest& req) {
  ++client_ops_;
  const Round round = pacemaker_ ? pacemaker_->round() : 0;
  const bool watchdog_fired =
      opt_.watchdog_rounds > 0 && !decision_.has_value() &&
      rounds_executed_ >= opt_.watchdog_rounds;
  switch (req.op) {
    case SvcOp::kStatus: {
      ClientResponse resp;
      resp.status = SvcStatus::kOk;
      resp.request_id = req.request_id;
      resp.info = round;
      if (decision_.has_value()) resp.values.push_back(*decision_);
      respond(conn_idx, resp);
      break;
    }
    case SvcOp::kDecision: {
      if (decision_.has_value()) {
        ClientResponse resp;
        resp.status = SvcStatus::kOk;
        resp.request_id = req.request_id;
        resp.info = rounds_executed_;
        resp.values.push_back(*decision_);
        respond(conn_idx, resp);
      } else if (watchdog_fired) {
        ClientResponse resp;
        resp.status = SvcStatus::kTimeout;
        resp.request_id = req.request_id;
        resp.info = rounds_executed_;
        respond(conn_idx, resp);
      } else {
        decision_waiters_.push_back(PendingWait{conn_idx, req.request_id});
      }
      break;
    }
    case SvcOp::kWsAdd: {
      if (!req.has_value) {
        ClientResponse resp;
        resp.status = SvcStatus::kError;
        resp.request_id = req.request_id;
        respond(conn_idx, resp);
        break;
      }
      ws_adds_.push_back(WsAdd{conn_idx, req.request_id, Value(req.value)});
      service_waiters();
      break;
    }
    case SvcOp::kWsGet: {
      ClientResponse resp;
      resp.status = SvcStatus::kOk;
      resp.request_id = req.request_id;
      resp.info = round;
      for (const Value& v : ws_automaton_->get()) resp.values.push_back(v);
      respond(conn_idx, resp);
      break;
    }
    case SvcOp::kRegRead:
    case SvcOp::kRegWrite: {
      AbdOp op;
      op.is_write = req.op == SvcOp::kRegWrite;
      if (op.is_write && !req.has_value) {
        ClientResponse resp;
        resp.status = SvcStatus::kError;
        resp.request_id = req.request_id;
        respond(conn_idx, resp);
        break;
      }
      op.write_value = req.value;
      op.op_id = (static_cast<std::uint64_t>(opt_.index) << 40) | ++abd_next_op_;
      op.conn = conn_idx;
      op.request_id = req.request_id;
      abd_ops_.push_back(op);
      abd_start_phase(abd_ops_.back(), false);
      break;
    }
  }
}

void LiveNode::respond(std::size_t conn_idx, const ClientResponse& resp) {
  if (conn_idx >= conns_.size()) return;
  ClientConn& c = conns_[conn_idx];
  if (c.fd < 0) return;
  const Bytes body = encode_client_response(resp);
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(body.size()));
  Bytes framed = w.take();
  framed.insert(framed.end(), body.begin(), body.end());
  // Responses are tiny (≪ socket buffer); a short write means the client
  // died — close and let pending ops drop their answers.
  const ssize_t rc = ::send(c.fd, framed.data(), framed.size(), MSG_NOSIGNAL);
  if (rc != static_cast<ssize_t>(framed.size())) {
    ::close(c.fd);
    c.fd = -1;
  }
}

void LiveNode::service_waiters() {
  // Decisions.
  if (decision_.has_value() && !decision_waiters_.empty()) {
    for (const PendingWait& wtr : decision_waiters_) {
      ClientResponse resp;
      resp.status = SvcStatus::kOk;
      resp.request_id = wtr.request_id;
      resp.info = rounds_executed_;
      resp.values.push_back(*decision_);
      respond(wtr.conn, resp);
    }
    decision_waiters_.clear();
  } else if (opt_.watchdog_rounds > 0 && !decision_.has_value() &&
             rounds_executed_ >= opt_.watchdog_rounds &&
             !decision_waiters_.empty()) {
    for (const PendingWait& wtr : decision_waiters_) {
      ClientResponse resp;
      resp.status = SvcStatus::kTimeout;
      resp.request_id = wtr.request_id;
      resp.info = rounds_executed_;
      respond(wtr.conn, resp);
    }
    decision_waiters_.clear();
  }
  // Weak-set adds: the in-flight add completed when the automaton
  // unblocked (its value reached WRITTEN — Algorithm 4 line 11).
  if (ws_add_active_ && !ws_automaton_->add_blocked() && ws_add_confirmed_) {
    const WsAdd& done = ws_adds_.front();
    ClientResponse resp;
    resp.status = SvcStatus::kOk;
    resp.request_id = done.request_id;
    resp.info = rounds_executed_;
    respond(done.conn, resp);
    ws_adds_.pop_front();
    ws_add_active_ = false;
  }
  // Hold adds until the automaton has initialized (first end_of_round):
  // initialize() clears PROPOSED and BLOCK, so an earlier start_add would
  // be silently wiped and "complete" with its value lost.
  if (!ws_add_active_ && !ws_adds_.empty() && weakset_.round() >= 1) {
    ws_automaton_->start_add(ws_adds_.front().value);
    ws_add_active_ = true;
    ws_add_confirmed_ = false;
  }
}

void LiveNode::fail_all_pending(SvcStatus status) {
  for (const PendingWait& wtr : decision_waiters_) {
    ClientResponse resp;
    resp.status = status;
    resp.request_id = wtr.request_id;
    resp.info = rounds_executed_;
    respond(wtr.conn, resp);
  }
  decision_waiters_.clear();
  for (const WsAdd& add : ws_adds_) {
    ClientResponse resp;
    resp.status = status;
    resp.request_id = add.request_id;
    resp.info = rounds_executed_;
    respond(add.conn, resp);
  }
  ws_adds_.clear();
  ws_add_active_ = false;
  for (const AbdOp& op : abd_ops_) {
    ClientResponse resp;
    resp.status = status;
    resp.request_id = op.request_id;
    resp.info = rounds_executed_;
    respond(op.conn, resp);
  }
  abd_ops_.clear();
}

}  // namespace anon
