// Workload `mediate`: Mediator::AnswerBoolean, serialized on one thread
// with exact responses, over seeded generated scenarios. Almost all time
// goes to engine checks and the IR/LTR/containment deciders; no server,
// stream or WAL code runs.
//
// Each epoch answers the same fixed mix of queries (README.md, "Inputs"):
// random schemas with dependent, independent and mixed methods (single
// CQs and two-disjunct UCQs), chain-production families whose LTR checks
// go through containment, and the multi-relation family. The check:
// `answered` must equal whether the query holds on the accessible part of
// the hidden instance, computed by oracle.h. On the open-pool cases (see
// RandomCase) only soundness is checked, and the answers that stop short
// of the accessible part are counted.
#include <memory>
#include <string>
#include <vector>

#include "containment/access_containment.h"
#include "oracle.h"
#include "layers.h"
#include "relevance/relevance.h"
#include "sim/deep_web.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Case {
  rar::Scenario s;
  rar::Configuration hidden;
  rar::UnionQuery query;
  /// Hidden facts may use values the mediator cannot propose (RandomCase).
  bool open_pool = false;
};

/// Queries per epoch of each random family, and chain cases. Every
/// kOpenPoolEvery-th case of the two families with independent methods is
/// an open-pool case.
constexpr int kDependentCases = 600;
constexpr int kIndependentCases = 600;
constexpr int kUnionCases = 450;
constexpr int kChainCases = 180;
constexpr int kOpenPoolEvery = 3;

/// Adds `count` random facts over `pool` to `conf`.
void AddRandomFacts(rar::Rng* rng, const rar::Schema& schema,
                    const std::vector<rar::Value>& pool, int count,
                    rar::Configuration* conf) {
  for (int i = 0; i < count; ++i) {
    rar::Fact f;
    f.relation = static_cast<rar::RelationId>(rng->Below(schema.num_relations()));
    for (int pos = 0; pos < schema.relation(f.relation).arity(); ++pos) {
      f.values.push_back(rng->Pick(pool));
    }
    conf->AddFact(f);
  }
}

Case RandomCase(rar::Rng* rng, double independent_prob, int disjuncts,
                bool open_pool) {
  rar::RandomScenarioOptions opts;
  opts.num_relations = 3;
  opts.max_arity = 2;
  opts.num_constants = 4;
  opts.num_facts = 4;
  opts.independent_prob = independent_prob;
  Case c;
  c.s = rar::RandomScenario(rng, opts);
  const rar::Schema& schema = *c.s.schema;
  // The hidden instance extends the known facts. With dependent methods
  // only, it draws from a larger constant pool, so accesses discover
  // values the mediator has not seen yet. Where a method is independent,
  // only the open-pool cases do so: LTR lets an independent access take
  // any value, while the frontier proposes known values only, so a
  // value-discovering access is judged irrelevant and the mediator can
  // stop short of the accessible part. The other cases draw from the
  // known constants, where the answer must be exact.
  c.open_pool = open_pool;
  const int pool_size =
      independent_prob > 0 && !open_pool ? opts.num_constants : 6;
  std::vector<rar::Value> pool;
  for (int i = 0; i < pool_size; ++i) {
    pool.push_back(schema.InternConstant("k" + std::to_string(i)));
  }
  c.hidden = c.s.conf;
  AddRandomFacts(rng, schema, pool, 8, &c.hidden);
  for (int d = 0; d < disjuncts; ++d) {
    const int atoms = disjuncts > 1 ? 2 : static_cast<int>(rng->Range(2, 3));
    c.query.disjuncts.push_back(rar::RandomQuery(rng, c.s, atoms, 3, 0.15));
  }
  return c;
}

Case ChainCase(rar::Rng* rng, int chain_length) {
  rar::ChainFamily f = rar::MakeChainFamily(chain_length);
  Case c;
  c.s = f.scenario;
  c.query = f.contained;
  const rar::Schema& schema = *c.s.schema;
  const rar::RelationId r = 0;
  // Hidden path c1 -> c2 -> ... -> c_h: the chain query holds on the
  // accessible part iff h >= chain_length.
  const int h = static_cast<int>(rng->Range(1, chain_length + 1));
  std::vector<rar::Value> nodes;
  for (int i = 0; i <= h; ++i) {
    nodes.push_back(schema.InternConstant("c" + std::to_string(i)));
  }
  c.hidden = c.s.conf;
  for (int i = 1; i < h; ++i) c.hidden.AddFact(rar::Fact(r, {nodes[i], nodes[i + 1]}));
  // Forward shortcuts: extra responses that never lengthen the path.
  for (int k = 0; k < 2 && h >= 2; ++k) {
    const int i = static_cast<int>(rng->Below(h - 1));
    const int j = static_cast<int>(rng->Range(i + 2, h));
    c.hidden.AddFact(rar::Fact(r, {nodes[i], nodes[j]}));
  }
  return c;
}

std::vector<Case> MakeEpochCases(uint64_t seed, int epoch) {
  rar::Rng rng(seed * 1000003ull + static_cast<uint64_t>(epoch) * 7919ull + 17);
  std::vector<Case> cases;
  for (int i = 0; i < kDependentCases; ++i) {
    cases.push_back(RandomCase(&rng, 0.0, 1, false));
  }
  for (int i = 0; i < kIndependentCases; ++i) {
    cases.push_back(RandomCase(&rng, 1.0, 1, i % kOpenPoolEvery == 0));
  }
  for (int i = 0; i < kUnionCases; ++i) {
    cases.push_back(RandomCase(&rng, 0.5, 2, i % kOpenPoolEvery == 0));
  }
  for (int i = 0; i < kChainCases; ++i) cases.push_back(ChainCase(&rng, 2 + i % 3));
  rar::MultiRelationFamily mr = rar::MakeMultiRelationFamily(2, 4);
  for (const rar::UnionQuery& q : mr.queries) {
    Case c;
    c.s = mr.scenario;
    c.hidden = mr.hidden;
    c.query = q;
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Well-formed accesses at the initial configuration (at most `cap`).
std::vector<rar::Access> InitialAccesses(const Case& c, size_t cap) {
  PlainInstance inst = PlainInstance::Of(c.s.conf);
  std::vector<rar::Access> out;
  for (rar::AccessMethodId m = 0; m < c.s.acs.size() && out.size() < cap; ++m) {
    const rar::AccessMethod& method = c.s.acs.method(m);
    const rar::Relation& rel = c.s.schema->relation(method.relation);
    std::vector<rar::Value> binding;
    bool ok = true;
    for (int pos : method.input_positions) {
      std::vector<rar::Value> vals = inst.AdomOf(rel.attributes[pos].domain);
      if (vals.empty()) {
        ok = false;
        break;
      }
      binding.push_back(vals[out.size() % vals.size()]);
    }
    if (ok) out.push_back(rar::Access{m, binding});
  }
  return out;
}

/// Traced epochs only: spans around the deciders' public entry points,
/// called directly on the epoch's inputs at their initial configuration.
void DeciderPass(const std::vector<Case>& cases, SpanLog* log) {
  for (const Case& c : cases) {
    const rar::Schema& schema = *c.s.schema;
    rar::RelevanceAnalyzer analyzer(schema, c.s.acs);
    for (const rar::Access& a : InitialAccesses(c, 3)) {
      {
        ScopedSpan span(log, SpanKind::kIrCall);
        (void)analyzer.Immediate(c.s.conf, a, c.query);
      }
      {
        ScopedSpan span(log, SpanKind::kLtrCall);
        (void)analyzer.LongTerm(c.s.conf, a, c.query);
      }
    }
    // The containment question the Prop 3.5 decider asks: is the query
    // minus one subgoal contained in the query under access limitations?
    const rar::ConjunctiveQuery& cq = c.query.disjuncts[0];
    if (cq.atoms.size() < 2) continue;
    rar::UnionQuery weaker;
    weaker.disjuncts.push_back(cq);
    weaker.disjuncts[0].atoms.pop_back();
    rar::Configuration seeded = c.s.conf;
    rar::SeedQueryConstants(&seeded, c.query, schema);
    rar::ContainmentEngine engine(schema, c.s.acs);
    rar::ContainmentOptions opts;
    opts.build_witness = false;
    ScopedSpan span(log, SpanKind::kContained);
    (void)engine.Contained(weaker, c.query, seeded, opts);
  }
}

}  // namespace

WorkloadResult RunMediate(const RunArgs& args) {
  RunTotals run;
  WorkloadResult& result = run.result;
  LayerTotals& layers = run.layers;
  SpanLog log;

  rar::MediatorOptions mopts;
  mopts.max_rounds = 100000;
  mopts.pipelined = false;
  mopts.engine.num_threads = 1;

  for (int epoch = 0; epoch < EpochsFor(args); ++epoch) {
    const bool traced = EpochTraced(args, epoch);
    const uint64_t setup_t0 = NowNs();
    std::vector<Case> cases = MakeEpochCases(args.seed, epoch);
    run.phase.setup_s.push_back((NowNs() - setup_t0) / 1e9);

    std::vector<rar::MediationOutcome> outcomes;
    outcomes.reserve(cases.size());
    std::vector<uint64_t> op_ns;
    op_ns.reserve(cases.size());
    std::vector<char> ok(cases.size(), 1);

    const uint64_t cpu0 = ProcessCpuNs();
    const uint64_t t0 = NowNs();
    for (const Case& c : cases) {
      rar::DeepWebSource source(c.s.schema.get(), &c.s.acs, c.hidden);
      rar::Mediator mediator(*c.s.schema, c.s.acs);
      const uint64_t op0 = NowNs();
      rar::Result<rar::MediationOutcome> out =
          mediator.AnswerBoolean(c.query, c.s.conf, &source, mopts);
      op_ns.push_back(NowNs() - op0);
      if (!out.ok()) {
        ++result.failed;
        ok[outcomes.size()] = 0;
        result.failures.push_back("AnswerBoolean: " + out.status().ToString());
        outcomes.emplace_back();
        continue;
      }
      outcomes.push_back(std::move(*out));
    }
    const uint64_t wall = NowNs() - t0;
    run.phase.AddEpoch(traced, wall, ProcessCpuNs() - cpu0, op_ns);

    // Output check against the accessible part (outside the timed phase).
    for (size_t i = 0; i < cases.size(); ++i) {
      if (!ok[i]) continue;
      const Case& c = cases[i];
      PlainInstance reach =
          AccessiblePart(*c.s.schema, c.s.acs, c.hidden, c.s.conf);
      const bool expected = NaiveEvaluator(reach.facts).Holds(c.query);
      if (c.open_pool && expected && !outcomes[i].answered) {
        ++layers.incomplete_answers;
        continue;
      }
      if (outcomes[i].answered != expected) {
        result.errors.push_back(
            "epoch " + std::to_string(epoch) + " case " + std::to_string(i) +
            ": answered=" + (outcomes[i].answered ? "true" : "false") +
            " but the accessible part says " + (expected ? "true" : "false") +
            " for " + c.query.ToString(*c.s.schema));
      }
    }

    const rar::EngineStats zero;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const rar::MediationOutcome& out = outcomes[i];
      layers.AddEngine(zero, out.engine);
      layers.obs.Merge(out.obs);
      layers.rounds += static_cast<uint64_t>(out.rounds);
      layers.accesses += static_cast<uint64_t>(out.accesses_performed);
      layers.exported_cover_ns += out.engine.ir_time_ns +
                                  out.engine.ltr_time_ns + out.obs.apply_ns.sum +
                                  out.obs.source_ns.sum;
      layers.op_ns_total += op_ns[i];
    }
    layers.queries += cases.size();

    if (traced) {
      log.Clear();
      DeciderPass(cases, &log);
      layers.spans.Add(log.spans());
      layers.has_spans = true;
      run.last_spans = {log.spans()};
    }
  }

  return FinishRun(args, &run);
}

}  // namespace perfbench
