// Shared plumbing of the fixed-work benchmark: run arguments, the timed
// phase's clocks, exact latency percentiles, in-memory spans for the
// traced run, and the result line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Parsed command line (see README.md for the meaning of each flag).
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (one TSV row per span).
  std::string trace_out;
  /// Scratch directory for the durable workload's WAL directories.
  std::string data_dir;
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process user+sys CPU time in nanoseconds (all threads).
uint64_t ProcessCpuNs();

/// Peak resident set size of the process in MiB.
double PeakRssMb();

/// Exact percentile (nearest rank) of unsorted samples; sorts in place.
double PercentileOf(std::vector<uint64_t>* samples, double p);

double Median(std::vector<double> values);

/// Names of the spans the traced run records. Each names the layer whose
/// public function the span encloses.
enum class SpanKind : uint8_t {
  kOp,             ///< one client operation (root)
  kCodec,          ///< protocol: frame encode/parse in the bench channel
  kHandle,         ///< server: SessionServer::HandleFrame
  kTransportCall,  ///< transport: TcpChannel::Call
  kIrCall,         ///< relevance: RelevanceAnalyzer::Immediate
  kLtrCall,        ///< relevance: RelevanceAnalyzer::LongTerm
  kContained,      ///< containment: ContainmentEngine::Contained
  kRegister,       ///< stream: RarClient::RegisterStream during set-up
  kNumKinds,
};

const char* SpanName(SpanKind kind);

/// One recorded span. `parent` indexes the same SpanLog (-1 for roots);
/// spans of one client request share `request_id` (0 outside requests).
struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t request_id = 0;
  int32_t parent = -1;
  SpanKind kind = SpanKind::kOp;
  /// Request type for kOp / kHandle spans (wire MessageType byte).
  uint8_t detail = 0;
};

/// Per-thread span store: spans stay in memory until the run ends. Not
/// thread-safe; every client thread owns one.
class SpanLog {
 public:
  int32_t Open(SpanKind kind, uint8_t detail = 0);
  void Close(int32_t index);
  /// Stamps the request id onto every open span that has none yet.
  void SetRequestId(uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    open_.clear();
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null log records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind, uint8_t detail = 0)
      : log_(log), index_(log != nullptr ? log->Open(kind, detail) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Span statistics folded over every traced epoch.
class SpanStats {
 public:
  /// Folds one thread's spans in: per-kind durations, per-request-type
  /// handle durations, and the share of root-op time direct children
  /// cover.
  void Add(const std::vector<Span>& spans);

  /// Mean duration of a kind in microseconds (0 when none recorded).
  double MeanUs(SpanKind kind) const;
  double MeanUs(SpanKind kind, uint8_t detail) const;
  double SumUs(SpanKind kind) const;
  size_t Count(SpanKind kind) const {
    return durations_[static_cast<int>(kind)].size();
  }
  /// Child-covered share of root op time (0..1; 0 without children).
  double Coverage() const;

 private:
  std::vector<uint64_t> durations_[static_cast<int>(SpanKind::kNumKinds)];
  std::map<std::pair<int, uint8_t>, std::pair<uint64_t, uint64_t>> by_detail_;
  uint64_t root_ns_ = 0;
  uint64_t child_ns_ = 0;
};

/// Writes spans as TSV (kind, detail, request id, parent, start, end).
bool WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& per_thread);

/// Ordered metric set for the result line.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Prints the final result line (the last line of stdout).
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics);

/// What every workload hands back to main.
struct WorkloadResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  /// Exact work counters, printed beside the op count on every run.
  std::vector<std::pair<std::string, uint64_t>> work;
  std::vector<std::string> errors;    ///< failed output checks
  std::vector<std::string> failures;  ///< failed operations
};

/// Timed-phase accumulator shared by the workloads. Each end-to-end
/// metric is computed per epoch and the run reports the median over its
/// epochs, so a burst of noise from the host moves few epochs.
struct PhaseTotals {
  uint64_t ops = 0;
  std::vector<double> setup_s;  ///< one per epoch
  std::vector<double> ops_per_s, op_p50_us, op_p90_us, cpu_us_per_op;
  /// Timed-phase wall split by whether the epoch was traced (traced runs
  /// alternate, so both halves hold the same amount of work).
  uint64_t traced_wall_ns = 0;
  uint64_t traced_ops = 0;
  uint64_t untraced_wall_ns = 0;
  uint64_t untraced_ops = 0;

  /// Folds in one epoch's timed phase: wall and CPU time, and the
  /// client-observed latency of every op it ran.
  void AddEpoch(bool traced, uint64_t wall, uint64_t cpu,
                std::vector<uint64_t> op_ns);
  /// Fills the end-to-end metrics every workload reports.
  void FillEndToEnd(Metrics* m) const;
  /// Traced-vs-untraced throughput loss in percent.
  double TraceOverheadPct() const;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
