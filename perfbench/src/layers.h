// Per-layer accounting: the counters, histograms and trace events the
// program already exports (EngineStats, ObsSnapshot, the trace ring,
// RecoveryInfo), folded over a run's epochs, plus the benchmark's own
// spans. FillPerLayer reports every per-layer metric on every workload; a
// layer the workload does not exercise reads 0.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "engine/stats.h"
#include "obs/obs.h"

namespace perfbench {

struct LayerTotals {
  /// Engine counters summed over the timed phases.
  uint64_t checks = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t uncached_ir = 0;
  uint64_t uncached_ltr = 0;
  uint64_t ir_time_ns = 0;
  uint64_t ltr_time_ns = 0;
  uint64_t stream_rechecks = 0;
  /// Stream waves in the traced epochs' trace rings, and the bindings
  /// those waves looked at.
  uint64_t traced_waves = 0;
  uint64_t traced_walked = 0;
  uint64_t wal_records = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_fsyncs = 0;
  /// Histograms merged over the timed phases.
  rar::ObsSnapshot obs;

  uint64_t ops = 0;       ///< planned workload ops
  uint64_t queries = 0;   ///< mediate: queries answered
  uint64_t rounds = 0;    ///< mediate: mediator rounds
  uint64_t accesses = 0;  ///< mediate: source accesses performed
  /// mediate: open-pool queries answered false although the accessible
  /// part satisfies them.
  uint64_t incomplete_answers = 0;
  uint64_t applies = 0;   ///< serve_*: client Apply requests
  std::vector<uint64_t> apply_ns;  ///< serve_*: client-observed Apply
  std::vector<double> recover_s;   ///< serve_durable: Open per epoch
  uint64_t replayed_facts = 0;
  double replay_s = 0;
  /// Share of op time covered by exported decider/apply/source time
  /// (mediate, whose ops have no benchmark-visible children).
  uint64_t exported_cover_ns = 0;
  uint64_t op_ns_total = 0;

  SpanStats spans;
  bool has_spans = false;

  /// Adds the delta between two engine stats snapshots.
  void AddEngine(const rar::EngineStats& before, const rar::EngineStats& after);
};

/// Resets every histogram of an engine's observability bundle (only while
/// no thread records into it).
void ResetObs(rar::EngineObservability* obs);

/// Trace-ring size and sampling for engines of traced epochs: every
/// event is kept, so the wave events of one epoch fit in the ring.
rar::ObsOptions TracedObsOptions();

/// Folds the wave events recorded since `since_ns` into `t` (traced
/// epochs only; the ring records nothing otherwise).
void AddWaveEvents(const rar::EngineObservability& obs, uint64_t since_ns,
                   LayerTotals* t);

/// Sets every per-layer metric (README.md lists them with the end-to-end
/// metric each should move).
void FillPerLayer(LayerTotals* t, double trace_overhead_pct, Metrics* m);

/// The exact counters printed on every run: the work counters, and the
/// mediator's incomplete answers.
std::vector<std::pair<std::string, uint64_t>> WorkCounters(
    const LayerTotals& t);

/// Everything one run accumulates over its epochs.
struct RunTotals {
  PhaseTotals phase;
  LayerTotals layers;
  WorkloadResult result;
  /// Spans of the last traced epoch, one vector per client thread.
  std::vector<std::vector<Span>> last_spans;
};

/// Shared tail of every workload: the end-to-end metrics untraced, the
/// per-layer metrics and the span file traced, and the work counters.
WorkloadResult FinishRun(const RunArgs& args, RunTotals* run);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
