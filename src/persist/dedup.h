// DedupWindow: a bounded per-session cache of completed request outcomes,
// the server half of the "at-least-once delivery, exactly-once effect"
// contract.
//
// A client that never saw a response cannot know whether its mutation
// landed, so it retries the *same* request id. The window answers the
// retry from the cached response without touching the engine — the
// mutation's effect happens exactly once even though the request arrived
// twice. Eviction is FIFO by completion order; `evicted_watermark()`
// tracks the highest id ever evicted, so a duplicate that is both missing
// from the window *and* at-or-below the watermark is provably a stale
// replay (its original completed long ago) and must be rejected rather
// than re-applied.
//
// Soundness of the bound: channels are single-in-flight per session, so a
// live retry always targets the most recently completed (or never
// completed) id — a window of one entry already covers it. A larger
// window additionally absorbs reordered duplicates a lossy transport
// replays from further back. The unsound alternative — treating an
// evicted id as fresh — would double-apply; kStale exists so that path is
// closed.
//
// Entries store the encoded response payload plus its message type, so
// the hit path can also verify the duplicate asks for the same operation.
//
// `RunOnce` is the whole exactly-once protocol, written once for every
// served mutation: probe, execute only a fresh id, record the encoded
// response. Its two executors differ only in what they run and which lock
// the caller holds across the call — the in-memory server's per-session
// mutex, or DurableSession's session mutex (which also spans the WAL
// append and fsync).
#ifndef RAR_PERSIST_DEDUP_H_
#define RAR_PERSIST_DEDUP_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <utility>

#include "persist/wal_format.h"
#include "util/status.h"

namespace rar {

// Wire request-type bytes of the deduped mutations, stored in each window
// entry. They equal server/protocol.h's MessageType values (wire-stable,
// never renumbered; server.cc static_asserts the match) and live here so
// the persist layer does not depend on the serving layer it backs.
constexpr uint8_t kWireRegisterQueryByte = 2;
constexpr uint8_t kWireRegisterStreamByte = 3;
constexpr uint8_t kWireApplyByte = 4;

/// Register response payload (u32 session handle), byte-identical to the
/// wire's kRegisterQueryOk / kRegisterStreamOk payload.
inline std::string EncodeHandlePayload(uint32_t handle) {
  std::string out;
  BinWriter w(&out);
  w.U32(handle);
  return out;
}

/// Apply response payload: the wire's kApplyOk ApplyResult
/// (server/protocol.h), so a cached outcome is served verbatim.
inline std::string EncodeApplyResultPayload(uint32_t facts_added,
                                            uint64_t wal_sequence) {
  std::string out;
  BinWriter w(&out);
  w.U32(facts_added);
  w.U64(wal_sequence);
  return out;
}

class DedupWindow {
 public:
  /// \brief One cached outcome.
  struct Entry {
    uint8_t type = 0;  ///< wire MessageType byte of the original request
    std::string response_payload;
  };

  enum class Verdict {
    kFresh,  ///< never seen: execute, then Record
    kHit,    ///< cached: answer from *entry, do not execute
    kStale,  ///< evicted long ago: reject, never re-execute
  };

  explicit DedupWindow(size_t capacity = 256) : capacity_(capacity) {}

  /// Classifies `request_id`; on kHit `*entry` points at the cached
  /// outcome (valid until the next Record).
  Verdict Probe(uint64_t request_id, const Entry** entry) const {
    auto it = entries_.find(request_id);
    if (it != entries_.end()) {
      if (entry != nullptr) *entry = &it->second;
      return Verdict::kHit;
    }
    if (request_id <= evicted_watermark_ && evicted_watermark_ != 0) {
      return Verdict::kStale;
    }
    return Verdict::kFresh;
  }

  /// \brief What RunOnce did with one request.
  struct Outcome {
    enum class Kind {
      kFresh,         ///< executed now; response is the new outcome
      kHit,           ///< answered from the window; nothing executed
      kTypeMismatch,  ///< id cached for a different operation: a client bug
      kStale,         ///< evicted long ago: reject, never re-execute
    };
    Kind kind = Kind::kFresh;
    std::string response;  ///< encoded response payload (kFresh, kHit)
  };

  /// The exactly-once protocol: probes `request_id`; only a fresh id runs
  /// `execute` (a callable returning Result<std::string>, the encoded
  /// response), whose success is recorded under `type`. A failed execute
  /// records nothing and returns its status, so a retry re-executes.
  template <typename Execute>
  Result<Outcome> RunOnce(uint64_t request_id, uint8_t type,
                          Execute&& execute) {
    const Entry* cached = nullptr;
    switch (Probe(request_id, &cached)) {
      case Verdict::kHit:
        if (cached->type != type) {
          return Outcome{Outcome::Kind::kTypeMismatch, {}};
        }
        return Outcome{Outcome::Kind::kHit, cached->response_payload};
      case Verdict::kStale:
        return Outcome{Outcome::Kind::kStale, {}};
      case Verdict::kFresh:
        break;
    }
    Result<std::string> response = std::forward<Execute>(execute)();
    RAR_RETURN_NOT_OK(response.status());
    Record(request_id, type, *response);
    return Outcome{Outcome::Kind::kFresh, std::move(response).value()};
  }

  /// Records a completed request's outcome (call only after kFresh).
  void Record(uint64_t request_id, uint8_t type, std::string response) {
    if (capacity_ == 0) return;
    auto [it, inserted] =
        entries_.emplace(request_id, Entry{type, std::move(response)});
    if (!inserted) return;
    order_.push_back(request_id);
    while (order_.size() > capacity_) {
      const uint64_t evicted = order_.front();
      order_.pop_front();
      entries_.erase(evicted);
      if (evicted > evicted_watermark_) evicted_watermark_ = evicted;
    }
  }

  size_t size() const { return order_.size(); }
  size_t capacity() const { return capacity_; }
  /// Highest request id ever evicted (0 = nothing evicted yet).
  uint64_t evicted_watermark() const { return evicted_watermark_; }

  /// Entries oldest-first, for snapshot serialization.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint64_t id : order_) {
      auto it = entries_.find(id);
      fn(id, it->second);
    }
  }

  /// Snapshot restore: re-seeds the watermark before entries re-Record.
  void RestoreWatermark(uint64_t watermark) { evicted_watermark_ = watermark; }

 private:
  size_t capacity_;
  std::unordered_map<uint64_t, Entry> entries_;
  std::deque<uint64_t> order_;  ///< completion order, for FIFO eviction
  uint64_t evicted_watermark_ = 0;
};

}  // namespace rar

#endif  // RAR_PERSIST_DEDUP_H_
