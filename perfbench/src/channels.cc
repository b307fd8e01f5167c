#include "channels.h"

#include <string>

namespace perfbench {

rar::Result<rar::WireFrame> TracedLoopbackChannel::Call(
    rar::MessageType type, std::string_view payload,
    const rar::CallContext& ctx) {
  const uint64_t id =
      ctx.request_id != 0 ? ctx.request_id : next_request_id_++;
  log_->SetRequestId(id);
  std::string wire;
  rar::WireFrame request;
  std::string parse_error;
  {
    ScopedSpan span(log_, SpanKind::kCodec);
    rar::EncodeWireFrame(id, type, payload, &wire, ctx.deadline_unix_ms);
    size_t offset = 0;
    if (rar::ParseWireFrame(wire, &offset, &request, &parse_error) !=
        rar::FrameParse::kFrame) {
      return rar::Status::Internal("loopback frame failed to round-trip: " +
                                   parse_error);
    }
  }
  std::string response_bytes;
  {
    ScopedSpan span(log_, SpanKind::kHandle, static_cast<uint8_t>(type));
    response_bytes = server_->HandleFrame(request);
  }
  rar::WireFrame response;
  {
    ScopedSpan span(log_, SpanKind::kCodec);
    size_t offset = 0;
    if (rar::ParseWireFrame(response_bytes, &offset, &response,
                            &parse_error) != rar::FrameParse::kFrame) {
      return rar::Status::Internal("server response failed to parse: " +
                                   parse_error);
    }
  }
  if (response.request_id != id) {
    return rar::Status::Internal("response id mismatch");
  }
  return response;
}

}  // namespace perfbench
