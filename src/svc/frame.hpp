// The anonsvc wire surface: a small versioned service frame around the
// runtime/codec message formats, plus the client request/response codec
// and the ABD quorum messages.
//
// Peer frame (node ↔ node, anonymous — no sender identity on the wire):
//   u8 magic(0xA7) | u8 version(1) | u8 kind | u64 epoch | u64 round |
//   u32 len | payload[len]
// `epoch` fences cross-cluster traffic (a stray datagram from an older
// cluster on a recycled port decodes fine but is discarded by epoch);
// `round` is the GIRAF round for round-kind frames and unused otherwise.
//
// Round payloads carry a whole GIRAF batch:
//   u32 batch_count | { u32 len | encode_es_message bytes }*
// Both the ES consensus automaton and Algorithm 4's weak-set automaton
// exchange `ValueSet`s, so one batch codec serves both frame kinds.
//
// ABD payloads are deliberately ID-bearing (origin/replica indices): ABD
// is the paper's known-network baseline, and its quorum phases need
// addressable replicas.  Anonymity is a property of the consensus and
// weak-set frames, not of the baseline.
//
// Every decoder is defensive: malformed, truncated, bit-flipped or
// oversized buffers yield nullopt, never UB (tests/codec_harden_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/value.hpp"
#include "giraf/types.hpp"
#include "runtime/codec.hpp"

namespace anon {

inline constexpr std::uint8_t kSvcMagic = 0xA7;
inline constexpr std::uint8_t kSvcWireVersion = 1;

enum class SvcFrameKind : std::uint8_t {
  kConsensusRound = 1,
  kWeaksetRound = 2,
  kAbd = 3,
  kHeartbeat = 4,
};

struct ServiceFrame {
  std::uint8_t version = kSvcWireVersion;
  SvcFrameKind kind = SvcFrameKind::kHeartbeat;
  std::uint64_t epoch = 0;
  std::uint64_t round = 0;
  Bytes payload;

  friend bool operator==(const ServiceFrame&, const ServiceFrame&) = default;
};

Bytes encode_service_frame(const ServiceFrame& f);
std::optional<ServiceFrame> decode_service_frame(const Bytes& in);

// A GIRAF round batch (the payload of kConsensusRound / kWeaksetRound).
Bytes encode_valueset_batch(const std::vector<ValueSet>& batch);
std::optional<std::vector<ValueSet>> decode_valueset_batch(const Bytes& in);

// ---- ABD quorum messages ---------------------------------------------------

enum class AbdWireType : std::uint8_t {
  kQuery = 1,      // coordinator → replicas: send me your (tag, value)
  kQueryResp = 2,  // replica → coordinator
  kStore = 3,      // coordinator → replicas: adopt (tag, value) if newer
  kStoreAck = 4,   // replica → coordinator
};

struct AbdWire {
  AbdWireType type = AbdWireType::kQuery;
  std::uint64_t op_id = 0;   // coordinator-local operation id
  std::uint32_t origin = 0;  // coordinator node index (reply address)
  std::uint32_t replica = 0; // responder node index (quorum dedup)
  std::uint64_t ts = 0;      // tag timestamp
  std::uint32_t wid = 0;     // tag writer id
  bool has_value = false;
  std::int64_t value = 0;

  friend bool operator==(const AbdWire&, const AbdWire&) = default;
};

Bytes encode_abd_wire(const AbdWire& m);
std::optional<AbdWire> decode_abd_wire(const Bytes& in);

// ---- Client request / response ---------------------------------------------

enum class SvcOp : std::uint8_t {
  kStatus = 1,    // node round / decision / stabilization probe
  kDecision = 2,  // block until the consensus instance decided
  kWsAdd = 3,     // weak-set add(v): blocks until v ∈ WRITTEN
  kWsGet = 4,     // weak-set get(): returns PROPOSED immediately
  kRegRead = 5,   // ABD register read
  kRegWrite = 6,  // ABD register write(v)
};

struct ClientRequest {
  std::uint8_t version = kSvcWireVersion;
  SvcOp op = SvcOp::kStatus;
  std::uint64_t request_id = 0;
  bool has_value = false;
  std::int64_t value = 0;  // kWsAdd / kRegWrite operand

  friend bool operator==(const ClientRequest&, const ClientRequest&) = default;
};

enum class SvcStatus : std::uint8_t {
  kOk = 0,
  kTimeout = 1,  // watchdog/deadline fired before the operation completed
  kError = 2,    // malformed request or unsupported op
};

struct ClientResponse {
  std::uint8_t version = kSvcWireVersion;
  SvcStatus status = SvcStatus::kOk;
  std::uint64_t request_id = 0;
  std::uint64_t info = 0;  // op-dependent (status: current round)
  std::vector<Value> values;  // decision / get / read results

  friend bool operator==(const ClientResponse&, const ClientResponse&) = default;
};

Bytes encode_client_request(const ClientRequest& r);
std::optional<ClientRequest> decode_client_request(const Bytes& in);

Bytes encode_client_response(const ClientResponse& r);
std::optional<ClientResponse> decode_client_response(const Bytes& in);

}  // namespace anon
