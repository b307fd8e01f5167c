#include "oracle.h"

#include <tuple>

namespace perfbench {

bool PlainInstance::Add(const rar::Schema& schema, const rar::Fact& fact) {
  if (!facts.insert(fact).second) return false;
  const rar::Relation& rel = schema.relation(fact.relation);
  for (int pos = 0; pos < fact.arity(); ++pos) {
    adom.insert({fact.values[pos].Packed(), rel.attributes[pos].domain});
  }
  return true;
}

PlainInstance PlainInstance::Of(const rar::Configuration& conf) {
  PlainInstance out;
  const rar::Schema& schema = *conf.schema();
  for (rar::RelationId r = 0; r < schema.num_relations(); ++r) {
    for (const rar::Fact& f : conf.FactsOf(r)) out.Add(schema, f);
  }
  for (const rar::TypedValue& tv : conf.AdomEntries()) {
    out.adom.insert({tv.value.Packed(), tv.domain});
  }
  return out;
}

std::vector<rar::Value> PlainInstance::AdomOf(rar::DomainId domain) const {
  std::vector<rar::Value> out;
  for (const auto& [packed, dom] : adom) {
    if (dom != domain) continue;
    const uint32_t id = static_cast<uint32_t>(packed);
    out.push_back((packed >> 32) == 0 ? rar::Value::Constant(id)
                                      : rar::Value::Null(id));
  }
  return out;
}

rar::Configuration PlainInstance::ToConfiguration(
    const rar::Schema* schema) const {
  rar::Configuration conf(schema);
  for (const rar::Fact& f : facts) conf.AddFact(f);
  for (const auto& [packed, dom] : adom) {
    const uint32_t id = static_cast<uint32_t>(packed);
    conf.AddSeedConstant((packed >> 32) == 0 ? rar::Value::Constant(id)
                                             : rar::Value::Null(id),
                         dom);
  }
  return conf;
}

namespace {

/// Calls `fn` for every tuple of the cartesian product of `pools`.
template <typename Fn>
void ForEachTuple(const std::vector<std::vector<rar::Value>>& pools,
                  std::vector<rar::Value>* tuple, size_t i, Fn&& fn) {
  if (i == pools.size()) {
    fn(*tuple);
    return;
  }
  for (const rar::Value& v : pools[i]) {
    tuple->push_back(v);
    ForEachTuple(pools, tuple, i + 1, fn);
    tuple->pop_back();
  }
}

}  // namespace

PlainInstance AccessiblePart(const rar::Schema& schema,
                             const rar::AccessMethodSet& acs,
                             const rar::Configuration& hidden,
                             const rar::Configuration& initial) {
  PlainInstance inst = PlainInstance::Of(initial);
  std::set<std::pair<rar::AccessMethodId, std::vector<rar::Value>>> performed;
  bool changed = true;
  while (changed) {
    changed = false;
    for (rar::AccessMethodId m = 0; m < acs.size(); ++m) {
      const rar::AccessMethod& method = acs.method(m);
      const rar::Relation& rel = schema.relation(method.relation);
      std::vector<std::vector<rar::Value>> pools;
      for (int pos : method.input_positions) {
        pools.push_back(inst.AdomOf(rel.attributes[pos].domain));
      }
      std::vector<std::vector<rar::Value>> bindings;
      std::vector<rar::Value> tuple;
      ForEachTuple(pools, &tuple, 0, [&](const std::vector<rar::Value>& b) {
        if (performed.insert({m, b}).second) bindings.push_back(b);
      });
      for (const std::vector<rar::Value>& b : bindings) {
        for (const rar::Fact& f : hidden.FactsOf(method.relation)) {
          bool match = true;
          for (size_t i = 0; i < b.size(); ++i) {
            if (f.values[method.input_positions[i]] != b[i]) {
              match = false;
              break;
            }
          }
          if (match && inst.Add(schema, f)) changed = true;
        }
      }
      if (!bindings.empty()) changed = true;
    }
  }
  return inst;
}

NaiveEvaluator::NaiveEvaluator(const std::set<rar::Fact>& facts) {
  for (const rar::Fact& f : facts) {
    by_relation_[f.relation].push_back(&f);
    for (int pos = 0; pos < f.arity(); ++pos) {
      by_value_[{f.relation, pos, f.values[pos].Packed()}].push_back(&f);
    }
  }
}

bool NaiveEvaluator::Holds(const rar::UnionQuery& query,
                           const std::vector<rar::Value>& head) const {
  for (const rar::ConjunctiveQuery& cq : query.disjuncts) {
    std::vector<rar::Value> assignment(cq.num_vars());
    std::vector<char> bound(cq.num_vars(), 0);
    bool consistent = true;
    for (size_t i = 0; i < head.size() && i < cq.head.size(); ++i) {
      const rar::VarId v = cq.head[i];
      if (bound[v] && assignment[v] != head[i]) consistent = false;
      assignment[v] = head[i];
      bound[v] = 1;
    }
    if (consistent && Extend(cq, 0, &assignment, &bound)) return true;
  }
  return false;
}

bool NaiveEvaluator::Extend(const rar::ConjunctiveQuery& cq, size_t atom,
                            std::vector<rar::Value>* assignment,
                            std::vector<char>* bound) const {
  if (atom == cq.atoms.size()) return true;
  const rar::Atom& a = cq.atoms[atom];
  // Probe through the first position whose value is already known.
  const std::vector<const rar::Fact*>* candidates = nullptr;
  static const std::vector<const rar::Fact*> kNone;
  for (size_t pos = 0; pos < a.terms.size() && candidates == nullptr; ++pos) {
    const rar::Term& t = a.terms[pos];
    rar::Value v;
    if (t.is_const()) {
      v = t.constant;
    } else if ((*bound)[t.var]) {
      v = (*assignment)[t.var];
    } else {
      continue;
    }
    auto it = by_value_.find({a.relation, static_cast<int>(pos), v.Packed()});
    candidates = it == by_value_.end() ? &kNone : &it->second;
  }
  if (candidates == nullptr) {
    auto it = by_relation_.find(a.relation);
    candidates = it == by_relation_.end() ? &kNone : &it->second;
  }
  for (const rar::Fact* f : *candidates) {
    std::vector<rar::VarId> newly;
    bool ok = true;
    for (size_t pos = 0; pos < a.terms.size() && ok; ++pos) {
      const rar::Term& t = a.terms[pos];
      const rar::Value& v = f->values[pos];
      if (t.is_const()) {
        ok = t.constant == v;
      } else if ((*bound)[t.var]) {
        ok = (*assignment)[t.var] == v;
      } else {
        (*assignment)[t.var] = v;
        (*bound)[t.var] = 1;
        newly.push_back(t.var);
      }
    }
    if (ok && Extend(cq, atom + 1, assignment, bound)) return true;
    for (rar::VarId v : newly) (*bound)[v] = 0;
  }
  return false;
}

}  // namespace perfbench
