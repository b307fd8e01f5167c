#include "layers.h"

#include <cstdio>

#include "server/protocol.h"

namespace perfbench {

void LayerTotals::AddEngine(const rar::EngineStats& before,
                            const rar::EngineStats& after) {
  checks += after.checks() - before.checks();
  cache_hits += after.cache_hits - before.cache_hits;
  cache_misses += after.cache_misses - before.cache_misses;
  uncached_ir += after.uncached_ir_checks - before.uncached_ir_checks;
  uncached_ltr += after.uncached_ltr_checks - before.uncached_ltr_checks;
  ir_time_ns += after.ir_time_ns - before.ir_time_ns;
  ltr_time_ns += after.ltr_time_ns - before.ltr_time_ns;
  stream_rechecks += after.stream_rechecks - before.stream_rechecks;
  wal_records += after.wal_records - before.wal_records;
  wal_bytes += after.wal_bytes - before.wal_bytes;
  wal_fsyncs += after.wal_fsyncs - before.wal_fsyncs;
}

void ResetObs(rar::EngineObservability* obs) {
  for (rar::Histogram* h :
       {&obs->ir_decider_ns, &obs->ltr_decider_ns, &obs->apply_ns,
        &obs->batch_ns, &obs->wave_ns, &obs->wave_width, &obs->queue_wait_ns,
        &obs->source_ns, &obs->wal_fsync_ns, &obs->wal_commit_ns,
        &obs->server_request_ns, &obs->server_apply_ns, &obs->server_poll_ns,
        &obs->server_register_ns}) {
    h->Reset();
  }
}

rar::ObsOptions TracedObsOptions() {
  rar::ObsOptions o;
  o.trace_capacity = size_t{1} << 17;
  o.trace_sample_period = 1;
  return o;
}

void AddWaveEvents(const rar::EngineObservability& obs, uint64_t since_ns,
                   LayerTotals* t) {
  const rar::TraceBuffer& ring = obs.trace();
  for (const rar::TraceEvent& e : ring.LastEvents(ring.capacity())) {
    if (e.kind != rar::TraceEventKind::kWave || e.timestamp_ns < since_ns) {
      continue;
    }
    ++t->traced_waves;
    t->traced_walked += e.a + e.b;  // rechecked + skipped in the wave
  }
}

namespace {

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

uint8_t Type(rar::MessageType t) { return static_cast<uint8_t>(t); }

}  // namespace

void FillPerLayer(LayerTotals* t, double trace_overhead_pct, Metrics* m) {
  const rar::ObsSnapshot& o = t->obs;
  SpanStats& sp = t->spans;

  m->Set("engine.checks_per_query", Ratio(t->checks, t->ops), "checks/op");
  m->Set("engine.cache_hit_ratio",
         Ratio(t->cache_hits, t->cache_hits + t->cache_misses), "ratio");
  m->Set("engine.cache_probes", t->cache_hits + t->cache_misses, "count");
  m->Set("relevance.uncached_checks", t->uncached_ir + t->uncached_ltr,
         "count");
  m->Set("relevance.ir_decider_us", Ratio(Us(t->ir_time_ns), t->uncached_ir),
         "us");
  m->Set("relevance.ltr_decider_us",
         Ratio(Us(t->ltr_time_ns), t->uncached_ltr), "us");
  m->Set("relevance.ir_call_us", sp.MeanUs(SpanKind::kIrCall), "us");
  m->Set("relevance.ltr_call_us", sp.MeanUs(SpanKind::kLtrCall), "us");
  m->Set("containment.contained_us", sp.MeanUs(SpanKind::kContained), "us");
  m->Set("sim.rounds_per_query", Ratio(t->rounds, t->queries),
         "rounds/query");
  m->Set("sim.accesses_per_query", Ratio(t->accesses, t->queries),
         "accesses/query");
  m->Set("engine.apply_p50_us", Us(o.apply_ns.Percentile(50)), "us");
  m->Set("engine.apply_p99_us", Us(o.apply_ns.Percentile(99)), "us");
  m->Set("stream.wave_p50_us", Us(o.wave_ns.Percentile(50)), "us");
  m->Set("stream.wave_p99_us", Us(o.wave_ns.Percentile(99)), "us");
  m->Set("stream.rechecks_per_apply", Ratio(t->stream_rechecks, t->applies),
         "bindings/apply");
  // Bindings a wave looks at (trace ring, traced epochs) times the waves
  // each apply runs (wave_ns count, all epochs).
  m->Set("stream.bindings_walked_per_apply",
         Ratio(t->traced_walked, t->traced_waves) *
             Ratio(t->obs.wave_ns.count, t->applies),
         "bindings/apply");
  m->Set("stream.register_us", sp.MeanUs(SpanKind::kRegister), "us");
  m->Set("server.handle_apply_us",
         sp.MeanUs(SpanKind::kHandle, Type(rar::MessageType::kApply)), "us");
  m->Set("server.handle_poll_us",
         sp.MeanUs(SpanKind::kHandle, Type(rar::MessageType::kPoll)), "us");
  m->Set("server.handle_ack_us",
         sp.MeanUs(SpanKind::kHandle, Type(rar::MessageType::kAcknowledge)),
         "us");
  // Encode + parse of the request and parse of the response, per request.
  m->Set("protocol.codec_us",
         Ratio(sp.SumUs(SpanKind::kCodec), sp.Count(SpanKind::kHandle)), "us");
  m->Set("server.apply_p50_us", PercentileOf(&t->apply_ns, 50) / 1e3, "us");
  m->Set("server.apply_p99_us", PercentileOf(&t->apply_ns, 99) / 1e3, "us");
  m->Set("persist.records_per_fsync", Ratio(t->wal_records, t->wal_fsyncs),
         "records/fsync");
  m->Set("persist.fsync_us", Us(o.wal_fsync_ns.mean()), "us");
  m->Set("persist.commit_wait_us", Us(o.wal_commit_ns.mean()), "us");
  m->Set("persist.wal_bytes_per_apply", Ratio(t->wal_bytes, t->applies),
         "bytes/apply");
  m->Set("persist.replay_facts_per_s", Ratio(t->replayed_facts, t->replay_s),
         "facts/s");
  m->Set("persist.recover_s", Median(t->recover_s), "s");
  const double call_us = sp.MeanUs(SpanKind::kTransportCall);
  m->Set("transport.call_us", call_us, "us");
  m->Set("transport.overhead_us",
         call_us == 0 ? 0 : call_us - Us(o.server_request_ns.mean()), "us");
  double coverage = sp.Coverage();
  if (!t->has_spans || coverage == 0) {
    coverage = Ratio(t->exported_cover_ns, t->op_ns_total);
  }
  m->Set("trace.coverage", coverage, "ratio");
  m->Set("trace.overhead_pct", trace_overhead_pct, "%");
  for (const auto& [name, value] : WorkCounters(*t)) {
    m->Set(name, static_cast<double>(value), "count");
  }
}

std::vector<std::pair<std::string, uint64_t>> WorkCounters(
    const LayerTotals& t) {
  return {{"work.engine_checks", t.checks},
          {"work.uncached_checks", t.uncached_ir + t.uncached_ltr},
          {"work.stream_rechecks", t.stream_rechecks},
          {"work.wal_records", t.wal_records},
          {"sim.incomplete_answers", t.incomplete_answers}};
}

WorkloadResult FinishRun(const RunArgs& args, RunTotals* run) {
  WorkloadResult& result = run->result;
  result.attempted = run->phase.ops;
  result.correct = result.errors.empty();
  run->layers.ops = run->phase.ops;
  if (args.trace) {
    FillPerLayer(&run->layers, run->phase.TraceOverheadPct(),
                 &result.metrics);
    if (!WriteSpans(args.trace_out, run->last_spans)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.trace_out.c_str());
    }
  } else {
    run->phase.FillEndToEnd(&result.metrics);
  }
  result.work = WorkCounters(run->layers);
  return std::move(result);
}

}  // namespace perfbench
