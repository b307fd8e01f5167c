// Client channels the traced run uses in place of the program's own.
//
// TracedLoopbackChannel repeats exactly what LoopbackChannel::Call does
// (encode, parse, SessionServer::HandleFrame, parse) with a span around
// each step, so the codec and the server's dispatch are timed apart.
// TracedChannel wraps any channel (TcpChannel here) in one span per call.
// Untraced epochs use LoopbackChannel / TcpChannel directly.
#ifndef PERFBENCH_CHANNELS_H_
#define PERFBENCH_CHANNELS_H_

#include <memory>

#include "common.h"
#include "server/server.h"
#include "server/transport.h"

namespace perfbench {

class TracedLoopbackChannel : public rar::ClientChannel {
 public:
  TracedLoopbackChannel(rar::SessionServer* server, SpanLog* log)
      : server_(server), log_(log) {}

  rar::Result<rar::WireFrame> Call(rar::MessageType type,
                                   std::string_view payload,
                                   const rar::CallContext& ctx) override;

 private:
  rar::SessionServer* server_;
  SpanLog* log_;
  uint64_t next_request_id_ = 1;
};

class TracedChannel : public rar::ClientChannel {
 public:
  TracedChannel(std::shared_ptr<rar::ClientChannel> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  rar::Result<rar::WireFrame> Call(rar::MessageType type,
                                   std::string_view payload,
                                   const rar::CallContext& ctx) override {
    log_->SetRequestId(ctx.request_id);
    ScopedSpan span(log_, SpanKind::kTransportCall,
                    static_cast<uint8_t>(type));
    return inner_->Call(type, payload, ctx);
  }

 private:
  std::shared_ptr<rar::ClientChannel> inner_;
  SpanLog* log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHANNELS_H_
