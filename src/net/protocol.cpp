#include "net/protocol.h"

#include <cstring>

namespace proximity::net {
namespace {

// Little-endian append/read helpers over flat byte buffers. serde's
// BinaryReader/Writer work on iostreams with a checksum trailer — the
// right contract for files, the wrong one for per-message frames.
void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const auto n = out.size();
  out.resize(n + sizeof(v));
  std::memcpy(out.data() + n, &v, sizeof(v));
}

void PutU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const auto n = out.size();
  out.resize(n + sizeof(v));
  std::memcpy(out.data() + n, &v, sizeof(v));
}

void PutF32(std::vector<std::uint8_t>& out, float v) {
  const auto n = out.size();
  out.resize(n + sizeof(v));
  std::memcpy(out.data() + n, &v, sizeof(v));
}

class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> buf) : buf_(buf) {}

  bool ReadU32(std::uint32_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadU64(std::uint64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadI64(std::int64_t* v) { return ReadRaw(v, sizeof(*v)); }
  bool ReadF32(float* v) { return ReadRaw(v, sizeof(*v)); }

  bool ReadBytes(std::size_t n, std::string* out) {
    if (buf_.size() - pos_ < n) return false;
    out->assign(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return true;
  }

  bool AtEnd() const noexcept { return pos_ == buf_.size(); }
  std::size_t Remaining() const noexcept { return buf_.size() - pos_; }

 private:
  bool ReadRaw(void* v, std::size_t n) {
    if (buf_.size() - pos_ < n) return false;
    std::memcpy(v, buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  std::span<const std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

// Patches the length prefix once the payload size is known.
void FinishFrame(std::vector<std::uint8_t>& out, std::size_t len_at) {
  const std::uint32_t payload =
      static_cast<std::uint32_t>(out.size() - len_at - sizeof(std::uint32_t));
  std::memcpy(out.data() + len_at, &payload, sizeof(payload));
}

// Extracts the payload of the first frame, common to both directions.
ParseResult FramePayload(std::span<const std::uint8_t> buf,
                         std::size_t* consumed,
                         std::span<const std::uint8_t>* payload) {
  if (buf.size() < sizeof(std::uint32_t)) return ParseResult::kNeedMore;
  std::uint32_t len = 0;
  std::memcpy(&len, buf.data(), sizeof(len));
  if (len > kMaxFrameBytes) return ParseResult::kError;
  if (buf.size() - sizeof(len) < len) return ParseResult::kNeedMore;
  *payload = buf.subspan(sizeof(len), len);
  *consumed = sizeof(len) + len;
  return ParseResult::kOk;
}

}  // namespace

void AppendFrame(std::vector<std::uint8_t>& out, const Request& request) {
  // The tenant field is emitted only when needed, so a default-tenant
  // frame stays byte-identical to protocol v1.
  const bool has_tenant = request.tenant != kDefaultTenant ||
                          (request.flags & kReqFlagHasTenant) != 0;
  const bool has_trace = request.trace_id != 0 ||
                         (request.flags & kReqFlagHasTrace) != 0;
  const bool has_mutation = request.mutation_op != kMutationNone ||
                            (request.flags & kReqFlagHasMutation) != 0;
  std::uint32_t flags = request.flags;
  if (has_tenant) flags |= kReqFlagHasTenant;
  if (has_trace) flags |= kReqFlagHasTrace;
  if (has_mutation) flags |= kReqFlagHasMutation;
  const std::size_t len_at = out.size();
  PutU32(out, 0);  // patched by FinishFrame
  PutU32(out, kRequestMagic);
  PutU64(out, request.id);
  PutU32(out, flags);
  PutU64(out, request.deadline_us);
  if (has_tenant) PutU32(out, request.tenant);
  if (has_trace) {
    PutU64(out, request.trace_id);
    PutU64(out, request.trace_parent);
  }
  if (has_mutation) {
    PutU32(out, request.mutation_op);
    PutU64(out, request.mutation_target);
  }
  PutU32(out, static_cast<std::uint32_t>(request.text.size()));
  out.insert(out.end(), request.text.begin(), request.text.end());
  FinishFrame(out, len_at);
}

void AppendFrame(std::vector<std::uint8_t>& out, const Response& response) {
  // Like the optional request fields: the distance array is emitted
  // only when set (or the flag is pre-set), so distance-free responses
  // stay byte-identical to v4. A pre-set flag with missing entries
  // emits the default (0.0f) per doc, mirroring tenant-0 / trace-0.
  const bool has_distances = !response.distances.empty() ||
                             (response.flags & kFlagHasDistances) != 0;
  std::uint32_t flags = response.flags;
  if (has_distances) flags |= kFlagHasDistances;
  const std::size_t len_at = out.size();
  PutU32(out, 0);
  PutU32(out, kResponseMagic);
  PutU64(out, response.id);
  PutU32(out, static_cast<std::uint32_t>(response.status));
  PutU32(out, flags);
  PutU64(out, response.queue_ns);
  PutU64(out, response.server_ns);
  PutU32(out, static_cast<std::uint32_t>(response.documents.size()));
  for (const VectorId id : response.documents) {
    PutU64(out, static_cast<std::uint64_t>(id));
  }
  if (has_distances) {
    for (std::size_t i = 0; i < response.documents.size(); ++i) {
      PutF32(out, i < response.distances.size() ? response.distances[i]
                                                : 0.0f);
    }
  }
  FinishFrame(out, len_at);
}

ParseResult ParseFrame(std::span<const std::uint8_t> buf,
                       std::size_t* consumed, Request* out) {
  std::span<const std::uint8_t> payload;
  const ParseResult framed = FramePayload(buf, consumed, &payload);
  if (framed != ParseResult::kOk) return framed;

  Cursor c(payload);
  std::uint32_t magic = 0, text_len = 0;
  if (!c.ReadU32(&magic) || magic != kRequestMagic) return ParseResult::kError;
  if (!c.ReadU64(&out->id) || !c.ReadU32(&out->flags) ||
      !c.ReadU64(&out->deadline_us)) {
    return ParseResult::kError;
  }
  out->tenant = kDefaultTenant;
  if ((out->flags & kReqFlagHasTenant) != 0 && !c.ReadU32(&out->tenant)) {
    return ParseResult::kError;
  }
  out->trace_id = 0;
  out->trace_parent = 0;
  if ((out->flags & kReqFlagHasTrace) != 0 &&
      (!c.ReadU64(&out->trace_id) || !c.ReadU64(&out->trace_parent))) {
    return ParseResult::kError;
  }
  out->mutation_op = kMutationNone;
  out->mutation_target = 0;
  if ((out->flags & kReqFlagHasMutation) != 0) {
    if (!c.ReadU32(&out->mutation_op) || !c.ReadU64(&out->mutation_target)) {
      return ParseResult::kError;
    }
    // An unknown opcode is a protocol error: the stream is well-formed
    // but the request is meaningless, and silently treating it as a
    // query would corrupt the mutation accounting downstream.
    // kMutationNone stays legal — a writer with the flag pre-set emits
    // the field at its default (like tenant 0 / trace 0), and the
    // server dispatches such frames as plain queries.
    if (out->mutation_op != kMutationNone &&
        out->mutation_op != kMutationInsert &&
        out->mutation_op != kMutationDelete) {
      return ParseResult::kError;
    }
  }
  if (!c.ReadU32(&text_len) || !c.ReadBytes(text_len, &out->text) ||
      !c.AtEnd()) {
    return ParseResult::kError;
  }
  return ParseResult::kOk;
}

ParseResult ParseFrame(std::span<const std::uint8_t> buf,
                       std::size_t* consumed, Response* out) {
  std::span<const std::uint8_t> payload;
  const ParseResult framed = FramePayload(buf, consumed, &payload);
  if (framed != ParseResult::kOk) return framed;

  Cursor c(payload);
  std::uint32_t magic = 0, status = 0, ndocs = 0;
  if (!c.ReadU32(&magic) || magic != kResponseMagic) {
    return ParseResult::kError;
  }
  if (!c.ReadU64(&out->id) || !c.ReadU32(&status) ||
      !c.ReadU32(&out->flags) || !c.ReadU64(&out->queue_ns) ||
      !c.ReadU64(&out->server_ns) || !c.ReadU32(&ndocs)) {
    return ParseResult::kError;
  }
  if (status > static_cast<std::uint32_t>(RequestStatus::kInternal)) {
    return ParseResult::kError;
  }
  out->status = static_cast<RequestStatus>(status);
  // A count the payload cannot hold is corrupt; checking it first keeps
  // a damaged count word from reserving up to 32 GiB below.
  if (ndocs > c.Remaining() / sizeof(std::int64_t)) return ParseResult::kError;
  out->documents.clear();
  out->documents.reserve(ndocs);
  for (std::uint32_t i = 0; i < ndocs; ++i) {
    std::int64_t id = 0;
    if (!c.ReadI64(&id)) return ParseResult::kError;
    out->documents.push_back(id);
  }
  out->distances.clear();
  if ((out->flags & kFlagHasDistances) != 0) {
    out->distances.reserve(ndocs);
    for (std::uint32_t i = 0; i < ndocs; ++i) {
      float d = 0.0f;
      if (!c.ReadF32(&d)) return ParseResult::kError;
      out->distances.push_back(d);
    }
  }
  return c.AtEnd() ? ParseResult::kOk : ParseResult::kError;
}

}  // namespace proximity::net
