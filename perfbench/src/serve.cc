// Workloads serve_stream, serve_durable and serve_tcp: a SessionServer
// driven by in-process clients, each workload a fixed list of requests.
//
// Every epoch builds a fresh universe of independent groups. Group g owns
// domain Dg, relation Ag(Dg, Dg) with one dependent method bound on its
// first attribute, and the standing query Q_g(X) :- Ag(X, Y), Ag(Y, Z).
// Its apply script walks a path: step i performs ag(v_i) and receives
// Ag(v_i, v_i+1), plus, with probability 1/2, a back edge Ag(v_i, v_r) to
// an earlier value. Every apply therefore hits its streams' footprint and
// grows the active domain: one class of apply, so no percentile sits on
// the edge between a hit and a miss class. Groups share nothing, so the
// exact work counters do not depend on how client threads interleave.
//
// Output checks (README.md): poll cursors have no gaps; at the end of each
// epoch every binding's `certain` matches naive evaluation and its
// `relevant` matches a fresh RelevanceAnalyzer on the final configuration
// (serve_stream, serve_tcp); the reopened durable engine holds exactly the
// acknowledged responses with the VersionVector it had before the close
// (serve_durable).
#include <sched.h>

#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "channels.h"
#include "layers.h"
#include "oracle.h"
#include "persist/durable.h"
#include "relevance/relevance.h"
#include "server/client.h"
#include "server/server.h"
#include "server/transport.h"
#include "stream/registry.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rar::MessageType;

struct Step {
  rar::Access access;
  std::vector<rar::Fact> response;
};

struct Universe {
  std::shared_ptr<rar::Schema> schema;
  rar::AccessMethodSet acs;
  rar::Configuration bootstrap;
  std::vector<rar::DomainId> domain;
  std::vector<rar::UnionQuery> query;
  std::vector<std::vector<Step>> script;
};

Universe MakeUniverse(int groups, int steps, rar::Rng* rng) {
  Universe u;
  u.schema = std::make_shared<rar::Schema>();
  rar::Schema& schema = *u.schema;
  std::vector<rar::RelationId> rels;
  for (int g = 0; g < groups; ++g) {
    const std::string tag = std::to_string(g);
    u.domain.push_back(schema.AddDomain("D" + tag));
    rels.push_back(*schema.AddRelation(
        "A" + tag, std::vector<rar::DomainId>{u.domain[g], u.domain[g]}));
  }
  u.acs = rar::AccessMethodSet(u.schema.get());
  u.bootstrap = rar::Configuration(u.schema.get());
  u.script.resize(groups);
  for (int g = 0; g < groups; ++g) {
    const std::string tag = std::to_string(g);
    const rar::AccessMethodId m =
        *u.acs.Add("a" + tag, rels[g], {0}, /*dependent=*/true);
    std::vector<rar::Value> v;
    for (int i = 0; i <= steps; ++i) {
      v.push_back(schema.InternConstant("g" + tag + "v" + std::to_string(i)));
    }
    u.bootstrap.AddSeedConstant(v[0], u.domain[g]);
    for (int i = 0; i < steps; ++i) {
      Step s;
      s.access = rar::Access{m, {v[i]}};
      s.response.push_back(rar::Fact(rels[g], {v[i], v[i + 1]}));
      if (rng->Chance(0.5)) {
        s.response.push_back(
            rar::Fact(rels[g], {v[i], v[rng->Below(i + 1)]}));
      }
      u.script[g].push_back(std::move(s));
    }
    rar::ConjunctiveQuery cq;
    const rar::VarId x = cq.AddVar("X", u.domain[g]);
    const rar::VarId y = cq.AddVar("Y", u.domain[g]);
    const rar::VarId z = cq.AddVar("Z", u.domain[g]);
    cq.atoms.push_back(rar::Atom{
        rels[g], {rar::Term::MakeVar(x), rar::Term::MakeVar(y)}});
    cq.atoms.push_back(rar::Atom{
        rels[g], {rar::Term::MakeVar(y), rar::Term::MakeVar(z)}});
    cq.head = {x};
    rar::UnionQuery q;
    q.disjuncts.push_back(std::move(cq));
    (void)q.Validate(schema);
    u.query.push_back(std::move(q));
  }
  return u;
}

rar::Rng EpochRng(uint64_t seed, int epoch) {
  return rar::Rng(seed * 2654435761ull + static_cast<uint64_t>(epoch) * 97 + 5);
}

/// Q_b: the query with its head variables replaced by `head`.
rar::UnionQuery Instantiate(const rar::UnionQuery& q,
                            const std::vector<rar::Value>& head) {
  rar::UnionQuery out;
  for (const rar::ConjunctiveQuery& cq : q.disjuncts) {
    rar::ConjunctiveQuery b = cq;
    for (rar::Atom& atom : b.atoms) {
      for (rar::Term& t : atom.terms) {
        for (size_t i = 0; i < cq.head.size(); ++i) {
          if (t.is_var() && t.var == cq.head[i]) {
            t = rar::Term::MakeConst(head[i]);
            break;
          }
        }
      }
    }
    b.head.clear();
    out.disjuncts.push_back(std::move(b));
  }
  return out;
}

/// Expected (certain, relevant) per head value of one group's stream.
using Expected = std::map<uint64_t, std::pair<bool, bool>>;

/// Computes the expected binding verdicts of group g from the facts the
/// clients saw acknowledged: certainty by naive evaluation, relevance by a
/// fresh analyzer over the pending accesses of the group. Accesses on
/// other groups' relations cannot be immediately relevant to Q_g (IR needs
/// the accessed relation in the query), so they are not enumerated.
Expected ExpectedFor(const Universe& u, int g, const PlainInstance& inst,
                     const rar::Configuration& conf,
                     const std::set<uint64_t>& performed) {
  const rar::Schema& schema = *u.schema;
  rar::RelevanceAnalyzer analyzer(schema, u.acs);
  NaiveEvaluator eval(inst.facts);
  const std::vector<rar::Value> adom = inst.AdomOf(u.domain[g]);
  std::vector<rar::Access> pending;
  const rar::AccessMethodId m = u.script[g][0].access.method;
  for (const rar::Value& v : adom) {
    if (performed.count(v.Packed()) == 0) pending.push_back(rar::Access{m, {v}});
  }
  Expected out;
  for (const rar::Value& v : adom) {
    const bool certain = eval.Holds(u.query[g], {v});
    bool relevant = false;
    if (!certain) {
      const rar::UnionQuery qb = Instantiate(u.query[g], {v});
      for (const rar::Access& a : pending) {
        if (analyzer.Immediate(conf, a, qb)) {
          relevant = true;
          break;
        }
      }
    }
    out[v.Packed()] = {certain, relevant};
  }
  return out;
}

void CheckSnapshot(const Universe& u, const Expected& expected,
                   const rar::StreamSnapshot& snap, const std::string& who,
                   std::vector<std::string>* errors) {
  size_t concrete = 0;
  for (const rar::BindingView& b : snap.bindings) {
    const std::string name = u.schema->ValueToString(b.binding[0]);
    if (b.has_fresh) {
      if (b.certain) errors->push_back(who + ": fresh binding is certain");
      continue;
    }
    ++concrete;
    auto it = expected.find(b.binding[0].Packed());
    if (it == expected.end()) {
      errors->push_back(who + ": binding " + name +
                        " is not in the active domain");
      continue;
    }
    if (b.certain != it->second.first || b.relevant != it->second.second) {
      errors->push_back(who + ": binding " + name + " served certain=" +
                        std::to_string(b.certain) + " relevant=" +
                        std::to_string(b.relevant) + ", expected " +
                        std::to_string(it->second.first) + "/" +
                        std::to_string(it->second.second));
    }
  }
  if (concrete != expected.size()) {
    errors->push_back(who + ": " + std::to_string(concrete) +
                      " concrete bindings, active domain has " +
                      std::to_string(expected.size()));
  }
}

/// One client session with its stream cursor.
struct Session {
  std::shared_ptr<rar::ClientChannel> channel;  ///< may be shared by sessions
  std::unique_ptr<rar::RarClient> client;
  uint32_t handle = 0;
  uint64_t cursor = 0;
  uint64_t gaps = 0;
};

std::string StatusText(const rar::Status& s) { return s.ToString(); }
template <typename T>
std::string StatusText(const rar::Result<T>& r) {
  return r.status().ToString();
}

/// Per-client-thread recorder: client-observed latency of every planned
/// op, the op span in traced epochs, and failures.
struct ClientThread {
  SpanLog log;
  bool traced = false;
  std::vector<uint64_t> op_ns;
  std::vector<uint64_t> apply_ns;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  template <typename Fn>
  auto Op(MessageType type, Fn&& fn) {
    ScopedSpan span(traced ? &log : nullptr, SpanKind::kOp,
                    static_cast<uint8_t>(type));
    const uint64_t t0 = NowNs();
    auto r = fn();
    const uint64_t d = NowNs() - t0;
    op_ns.push_back(d);
    if (type == MessageType::kApply) apply_ns.push_back(d);
    if (!r.ok()) {
      ++failed;
      failures.push_back(std::string(rar::ToString(type)) + ": " +
                         StatusText(r));
    }
    return r;
  }

  void Apply(Session& s, const Step& step) {
    Op(MessageType::kApply,
       [&] { return s.client->Apply(step.access, step.response); });
  }
  void Poll(Session& s) {
    rar::Result<rar::StreamDelta> delta = Op(
        MessageType::kPoll, [&] { return s.client->Poll(s.handle, s.cursor); });
    if (!delta.ok()) return;
    for (const rar::StreamEvent& ev : delta->events) {
      if (ev.sequence != s.cursor + 1) ++s.gaps;
      s.cursor = ev.sequence;
    }
  }
  void Ack(Session& s) {
    Op(MessageType::kAcknowledge,
       [&] { return s.client->Acknowledge(s.handle, s.cursor); });
  }
  void Ping(Session& s) {
    Op(MessageType::kPing, [&] { return s.client->Ping(); });
  }
  void Snapshot(Session& s) {
    Op(MessageType::kSnapshot, [&] { return s.client->Snapshot(s.handle); });
  }
};

/// One epoch of a serve_* workload: its client threads, the set-up span
/// log, and the marks that bracket the timed phase.
class Epoch {
 public:
  Epoch(int threads, bool traced) : traced_(traced) {
    for (int t = 0; t < threads; ++t) {
      threads_.push_back(std::make_unique<ClientThread>());
      threads_.back()->traced = traced;
    }
  }

  bool traced() const { return traced_; }
  SpanLog* setup_log() { return traced_ ? &setup_log_ : nullptr; }

  /// Channel for a session driven by client thread `t`: the traced copy of
  /// LoopbackChannel in traced epochs, LoopbackChannel itself otherwise.
  std::shared_ptr<rar::ClientChannel> Loopback(rar::SessionServer* server,
                                               int t) {
    if (traced_) {
      return std::make_shared<TracedLoopbackChannel>(server,
                                                     &threads_[t]->log);
    }
    return std::make_shared<rar::LoopbackChannel>(server);
  }
  /// Wraps a channel of client thread `t` in a span per call when traced.
  std::shared_ptr<rar::ClientChannel> Traced(
      std::shared_ptr<rar::ClientChannel> ch, int t) {
    if (!traced_) return ch;
    return std::make_shared<TracedChannel>(std::move(ch), &threads_[t]->log);
  }

  /// Ends set-up (begun at `setup_t0`) and starts the timed phase.
  void StartTimed(uint64_t setup_t0, rar::RelevanceEngine* engine,
                  RunTotals* run) {
    run->phase.setup_s.push_back((NowNs() - setup_t0) / 1e9);
    for (auto& t : threads_) t->log.Clear();  // drop set-up request spans
    before_ = engine->stats();
    ResetObs(&engine->obs());
    cpu0_ = ProcessCpuNs();
    t0_ = NowNs();
  }

  /// Runs `fn(thread, t)` on one std::thread per client thread.
  template <typename Fn>
  void Drive(Fn fn) {
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads_.size(); ++t) {
      workers.emplace_back([&, t] { fn(*threads_[t], static_cast<int>(t)); });
    }
    for (std::thread& w : workers) w.join();
  }

  /// Ends the timed phase and folds the engine's counters, histograms and
  /// wave events and every client thread into the run totals.
  void EndTimed(const rar::RelevanceEngine& engine, RunTotals* run) {
    const uint64_t wall = NowNs() - t0_;
    const uint64_t cpu = ProcessCpuNs() - cpu0_;
    LayerTotals& layers = run->layers;
    layers.AddEngine(before_, engine.stats());
    layers.obs.Merge(engine.obs().Snapshot());
    AddWaveEvents(engine.obs(), t0_, &layers);
    std::vector<uint64_t> op_ns;
    if (traced_) {
      run->last_spans.clear();
      layers.spans.Add(setup_log_.spans());
      layers.has_spans = true;
    }
    for (auto& t : threads_) {
      op_ns.insert(op_ns.end(), t->op_ns.begin(), t->op_ns.end());
      layers.apply_ns.insert(layers.apply_ns.end(), t->apply_ns.begin(),
                             t->apply_ns.end());
      layers.applies += t->apply_ns.size();
      run->result.failed += t->failed;
      for (std::string& f : t->failures) {
        run->result.failures.push_back(std::move(f));
      }
      if (traced_) {
        layers.spans.Add(t->log.spans());
        run->last_spans.push_back(t->log.spans());
      }
    }
    run->phase.AddEpoch(traced_, wall, cpu, std::move(op_ns));
  }

 private:
  bool traced_;
  std::vector<std::unique_ptr<ClientThread>> threads_;
  SpanLog setup_log_;
  rar::EngineStats before_;
  uint64_t cpu0_ = 0;
  uint64_t t0_ = 0;
};

/// Engine options of one epoch: a pinned pool size, and in traced epochs
/// a trace ring that keeps every event.
rar::EngineOptions EngineOptionsFor(int num_threads, bool traced) {
  rar::EngineOptions eopts;
  eopts.num_threads = num_threads;
  if (traced) eopts.obs = TracedObsOptions();
  return eopts;
}

/// Opens a session over `channel`; registers a stream on `query` unless
/// it is null. Registration is timed as a stream-layer span when traced.
Session OpenSession(std::shared_ptr<rar::ClientChannel> channel,
                    const Universe& u, const rar::UnionQuery* query,
                    SpanLog* setup_log, std::vector<std::string>* errors) {
  Session s;
  s.channel = std::move(channel);
  s.client = std::make_unique<rar::RarClient>(s.channel.get(), u.schema.get(),
                                              &u.acs);
  rar::Status hello = s.client->Hello();
  if (!hello.ok()) errors->push_back("Hello: " + hello.ToString());
  if (query != nullptr) {
    rar::StreamOptions opts;
    opts.retain_events = true;
    // Waves run on the applying client thread: the thread count stays the
    // pinned client count, and no wave waits on another client's tasks in
    // the shared worker pool (WorkerPool::Wait is pool-wide).
    opts.parallel_threshold = SIZE_MAX;
    ScopedSpan span(setup_log, SpanKind::kRegister);
    rar::Result<uint32_t> h = s.client->RegisterStream(*query, opts);
    if (h.ok()) {
      s.handle = *h;
    } else {
      errors->push_back("RegisterStream: " + h.status().ToString());
    }
  }
  // Warm-up: one round trip per session before the timed phase.
  rar::Result<rar::PingResponse> ping = s.client->Ping();
  if (!ping.ok()) errors->push_back("Ping: " + ping.status().ToString());
  return s;
}

/// The facts and performed accesses the clients saw acknowledged.
struct Applied {
  PlainInstance inst;
  std::vector<std::set<uint64_t>> performed;  ///< per group: v_i packed
};

Applied AppliedThrough(const Universe& u, int steps) {
  Applied a;
  a.inst = PlainInstance::Of(u.bootstrap);
  a.performed.resize(u.script.size());
  for (size_t g = 0; g < u.script.size(); ++g) {
    for (int i = 0; i < steps; ++i) {
      const Step& s = u.script[g][i];
      a.performed[g].insert(s.access.binding[0].Packed());
      for (const rar::Fact& f : s.response) a.inst.Add(*u.schema, f);
    }
  }
  return a;
}

/// Snapshot check of every session's stream against the oracle.
void CheckStreams(const Universe& u, const Applied& applied,
                  std::vector<Session>* sessions,
                  const std::vector<int>& group_of, int epoch,
                  std::vector<std::string>* errors) {
  const rar::Configuration conf = applied.inst.ToConfiguration(u.schema.get());
  std::map<int, Expected> expected;
  for (size_t i = 0; i < sessions->size(); ++i) {
    Session& s = (*sessions)[i];
    const int g = group_of[i];
    const std::string who =
        "epoch " + std::to_string(epoch) + " session " + std::to_string(i);
    if (s.gaps != 0) {
      errors->push_back(who + ": " + std::to_string(s.gaps) + " cursor gaps");
    }
    if (expected.count(g) == 0) {
      expected[g] = ExpectedFor(u, g, applied.inst, conf, applied.performed[g]);
    }
    rar::Result<rar::StreamSnapshot> snap = s.client->Snapshot(s.handle);
    if (!snap.ok()) {
      errors->push_back(who + ": Snapshot: " + snap.status().ToString());
      continue;
    }
    CheckSnapshot(u, expected[g], *snap, who, errors);
  }
}

}  // namespace


// ---------------------------------------------------------------------------
// serve_stream: in-memory SessionServer over LoopbackChannel. Each group
// has one applier session and kSubscribers subscriber sessions, all with
// standing streams on the group's query; kThreads pinned client threads
// own disjoint groups. A step is one Apply, then every subscriber of the
// group polls from its cursor; subscribers acknowledge on every fourth
// step, so the median falls inside the poll class and the 90th percentile
// inside the apply class. One client thread: with two, ops_per_s spread
// 34% between runs while CPU per op spread 9%, because throughput depended
// on how the threads' applies interleaved on the engine's locks.

WorkloadResult RunServeStream(const RunArgs& args) {
  constexpr int kGroups = 12;
  constexpr int kSubscribers = 4;
  constexpr int kThreads = 1;
  constexpr int kSteps = 200;
  RunTotals run;

  for (int epoch = 0; epoch < EpochsFor(args); ++epoch) {
    Epoch ep(kThreads, EpochTraced(args, epoch));
    const uint64_t setup_t0 = NowNs();
    rar::Rng rng = EpochRng(args.seed, epoch);
    const Universe u = MakeUniverse(kGroups, kSteps, &rng);
    rar::RelevanceEngine engine(*u.schema, u.acs, u.bootstrap,
                                EngineOptionsFor(2, ep.traced()));
    rar::RelevanceStreamRegistry registry(&engine);
    rar::SessionServer server(&engine, &registry);
    std::vector<Session> appliers;
    std::vector<Session> subscribers;
    std::vector<int> sub_group;
    for (int g = 0; g < kGroups; ++g) {
      appliers.push_back(OpenSession(ep.Loopback(&server, g % kThreads), u,
                                     nullptr, nullptr, &run.result.errors));
      for (int k = 0; k < kSubscribers; ++k) {
        subscribers.push_back(OpenSession(ep.Loopback(&server, g % kThreads),
                                          u, &u.query[g], ep.setup_log(),
                                          &run.result.errors));
        sub_group.push_back(g);
      }
    }
    ep.StartTimed(setup_t0, &engine, &run);
    ep.Drive([&](ClientThread& ct, int t) {
      for (int i = 0; i < kSteps; ++i) {
        for (int g = t; g < kGroups; g += kThreads) {
          ct.Apply(appliers[g], u.script[g][i]);
          for (int k = 0; k < kSubscribers; ++k) {
            Session& s = subscribers[g * kSubscribers + k];
            ct.Poll(s);
            if (i % 4 == 3) ct.Ack(s);
          }
        }
      }
    });
    ep.EndTimed(engine, &run);
    CheckStreams(u, AppliedThrough(u, kSteps), &subscribers, sub_group, epoch,
                 &run.result.errors);
  }
  return FinishRun(args, &run);
}

// ---------------------------------------------------------------------------
// serve_durable: the same server shape over a DurableSession. kAppliers
// applier threads apply concurrently to disjoint groups while one
// subscriber thread holds one session per group; it polls each group after
// every fourth step of the appliers (waiting on a condition variable for
// them, never spinning) and acknowledges on every second round. Applies
// and acknowledgements are WAL-logged; polls are not. The untraced run's
// WAL uses FsyncPolicy::kNone: on the reference VM the shared disk's fsync
// latency moved every end-to-end metric of a kGroupCommit run by 14-90%
// between runs (README.md). The traced run, whose per-layer metrics have
// no bound, uses kGroupCommit in all its epochs, so that the fsync metrics
// are measured. Each epoch ends by closing the directory and timing
// DurableSession::Open on it.

namespace {

/// Steps completed per applier thread, which the subscriber waits on.
class Progress {
 public:
  explicit Progress(int appliers) : done_(appliers, 0) {}
  void Advance(int applier) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++done_[applier];
    }
    cv_.notify_all();
  }
  void WaitAll(int at_least) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      for (int d : done_) {
        if (d < at_least) return false;
      }
      return true;
    });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> done_;
};

/// Reopens `dir`, times the recovery, and checks the reopened engine
/// against the acknowledged responses and the pre-close versions.
void ReopenAndCheck(const Universe& u, const std::string& dir,
                    const rar::PersistOptions& popts,
                    const rar::EngineOptions& eopts,
                    const rar::VersionVector& versions,
                    const PlainInstance& acknowledged, const std::string& who,
                    RunTotals* run) {
  const uint64_t r0 = NowNs();
  auto reopened =
      rar::DurableSession::Open(*u.schema, u.acs, u.bootstrap, dir, popts,
                                eopts);
  const double recover_s = (NowNs() - r0) / 1e9;
  if (!reopened.ok()) {
    run->result.errors.push_back(who + ": reopen: " +
                                 reopened.status().ToString());
    return;
  }
  run->layers.recover_s.push_back(recover_s);
  run->layers.replayed_facts += (*reopened)->recovery().replayed_facts;
  run->layers.replay_s += recover_s;
  const rar::RelevanceEngine& back = (*reopened)->engine();
  if (!(back.versions() == versions)) {
    run->result.errors.push_back(who + ": VersionVector changed across reopen");
  }
  if (PlainInstance::Of(back.SnapshotConfig()).facts != acknowledged.facts) {
    run->result.errors.push_back(
        who + ": reopened facts differ from the acknowledged responses");
  }
}

}  // namespace

WorkloadResult RunServeDurable(const RunArgs& args) {
  constexpr int kAppliers = 3;
  constexpr int kGroups = 9;
  constexpr int kSteps = 320;
  RunTotals run;
  rar::PersistOptions popts;
  popts.fsync_policy =
      args.trace ? rar::FsyncPolicy::kGroupCommit : rar::FsyncPolicy::kNone;

  for (int epoch = 0; epoch < EpochsFor(args); ++epoch) {
    Epoch ep(kAppliers + 1, EpochTraced(args, epoch));
    const rar::EngineOptions eopts = EngineOptionsFor(1, ep.traced());
    const std::string dir = args.data_dir + "/epoch-" + std::to_string(epoch);
    const std::string who = "epoch " + std::to_string(epoch);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);

    const uint64_t setup_t0 = NowNs();
    rar::Rng rng = EpochRng(args.seed, epoch);
    const Universe u = MakeUniverse(kGroups, kSteps, &rng);
    auto opened = rar::DurableSession::Open(*u.schema, u.acs, u.bootstrap, dir,
                                            popts, eopts);
    if (!opened.ok()) {
      run.result.errors.push_back("DurableSession::Open: " +
                                  opened.status().ToString());
      break;
    }
    std::unique_ptr<rar::DurableSession> durable = std::move(*opened);
    auto server = std::make_unique<rar::SessionServer>(durable.get());
    std::vector<Session> appliers;
    std::vector<Session> subscribers;
    for (int g = 0; g < kGroups; ++g) {
      appliers.push_back(OpenSession(ep.Loopback(server.get(), g % kAppliers),
                                     u, nullptr, nullptr, &run.result.errors));
      subscribers.push_back(OpenSession(ep.Loopback(server.get(), kAppliers),
                                        u, &u.query[g], ep.setup_log(),
                                        &run.result.errors));
    }
    ep.StartTimed(setup_t0, &durable->engine(), &run);
    Progress progress(kAppliers);
    ep.Drive([&](ClientThread& ct, int t) {
      if (t < kAppliers) {
        for (int i = 0; i < kSteps; ++i) {
          for (int g = t; g < kGroups; g += kAppliers) {
            ct.Apply(appliers[g], u.script[g][i]);
          }
          progress.Advance(t);
        }
        return;
      }
      for (int round = 0; round < kSteps / 4; ++round) {
        progress.WaitAll(4 * (round + 1));
        for (Session& s : subscribers) {
          ct.Poll(s);
          if (round % 2 == 1) ct.Ack(s);
        }
      }
    });
    ep.EndTimed(durable->engine(), &run);

    for (size_t i = 0; i < subscribers.size(); ++i) {
      if (subscribers[i].gaps != 0) {
        run.result.errors.push_back(who + " subscriber " + std::to_string(i) +
                                    ": cursor gaps");
      }
    }
    const rar::VersionVector versions = durable->engine().versions();
    appliers.clear();
    subscribers.clear();
    server.reset();
    durable.reset();
    ReopenAndCheck(u, dir, popts, eopts, versions,
                   AppliedThrough(u, kSteps).inst, who, &run);
    std::filesystem::remove_all(dir, ec);
  }
  std::error_code ec;
  std::filesystem::remove_all(args.data_dir, ec);
  return FinishRun(args, &run);
}

// ---------------------------------------------------------------------------
// serve_tcp: the serve_stream server code behind TcpServer's poll(2)
// thread. kConnections TcpChannel connections, one client thread each;
// every connection carries kGroupsPerConnection sessions, one per group,
// and drives a fixed mix per step of each session: Apply, Poll, Ping,
// Acknowledge every second step and Snapshot every eighth.
//
// All of the workload's threads run on one CPU. Each request then hands
// off between a client thread and the poll thread on the same CPU. Across
// CPUs, the wake-up latency of a vCPU on a shared VM moved ops_per_s
// between 11,900 and 20,400 over six seeds, against 17,400 to 21,500 for
// the same seeds pinned, run alternately (README.md).

namespace {

/// Restricts the calling thread, and so every thread it starts later, to
/// the lowest-numbered CPU it may run on.
bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

}  // namespace

WorkloadResult RunServeTcp(const RunArgs& args) {
  constexpr int kConnections = 2;
  constexpr int kGroupsPerConnection = 6;
  constexpr int kGroups = kConnections * kGroupsPerConnection;
  constexpr int kSteps = 180;
  RunTotals run;
  if (!PinToOneCpu()) {
    run.result.errors.push_back("cannot restrict the run to one CPU");
    return FinishRun(args, &run);
  }

  for (int epoch = 0; epoch < EpochsFor(args); ++epoch) {
    Epoch ep(kConnections, EpochTraced(args, epoch));
    const uint64_t setup_t0 = NowNs();
    rar::Rng rng = EpochRng(args.seed, epoch);
    const Universe u = MakeUniverse(kGroups, kSteps, &rng);
    rar::RelevanceEngine engine(*u.schema, u.acs, u.bootstrap,
                                EngineOptionsFor(1, ep.traced()));
    rar::RelevanceStreamRegistry registry(&engine);
    rar::SessionServer server(&engine, &registry);
    rar::TcpServer tcp(&server);
    rar::Result<uint16_t> port = tcp.Start(0);
    if (!port.ok()) {
      run.result.errors.push_back("TcpServer::Start: " +
                                  port.status().ToString());
      break;
    }
    std::vector<Session> sessions;
    std::vector<int> group_of;
    for (int c = 0; c < kConnections; ++c) {
      auto conn = rar::TcpChannel::Connect("127.0.0.1", *port);
      if (!conn.ok()) {
        run.result.errors.push_back("TcpChannel::Connect: " +
                                    conn.status().ToString());
        break;
      }
      std::shared_ptr<rar::ClientChannel> ch = ep.Traced(std::move(*conn), c);
      for (int j = 0; j < kGroupsPerConnection; ++j) {
        const int g = c * kGroupsPerConnection + j;
        sessions.push_back(OpenSession(ch, u, &u.query[g], ep.setup_log(),
                                       &run.result.errors));
        group_of.push_back(g);
      }
    }
    if (!run.result.errors.empty()) break;
    ep.StartTimed(setup_t0, &engine, &run);
    ep.Drive([&](ClientThread& ct, int c) {
      for (int i = 0; i < kSteps; ++i) {
        for (int j = 0; j < kGroupsPerConnection; ++j) {
          const int g = c * kGroupsPerConnection + j;
          Session& s = sessions[g];
          ct.Apply(s, u.script[g][i]);
          ct.Poll(s);
          ct.Ping(s);
          if (i % 2 == 1) ct.Ack(s);
          if (i % 8 == 7) ct.Snapshot(s);
        }
      }
    });
    ep.EndTimed(engine, &run);
    CheckStreams(u, AppliedThrough(u, kSteps), &sessions, group_of, epoch,
                 &run.result.errors);
    sessions.clear();
    tcp.Stop();
  }
  return FinishRun(args, &run);
}

}  // namespace perfbench
