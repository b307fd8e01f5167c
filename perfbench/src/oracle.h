// Reference computations the output checks compare against. They share no
// code with the layers under test beyond the data types: a plain fact set,
// the accessible-part fixpoint over a hidden instance, and a naive
// backtracking evaluator for Boolean UCQs.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <map>
#include <set>
#include <utility>
#include <vector>

#include "access/access_method.h"
#include "query/query.h"
#include "relational/configuration.h"

namespace perfbench {

/// Facts plus the typed active domain (value, domain), kept as plain sets.
struct PlainInstance {
  std::set<rar::Fact> facts;
  std::set<std::pair<uint64_t, rar::DomainId>> adom;  ///< (Value::Packed, domain)

  /// Adds a fact and its values, typed by the relation's attributes.
  bool Add(const rar::Schema& schema, const rar::Fact& fact);
  /// Facts and typed active domain of a configuration (seeds included).
  static PlainInstance Of(const rar::Configuration& conf);
  std::vector<rar::Value> AdomOf(rar::DomainId domain) const;
  /// The instance as a Configuration (for the fresh decider calls).
  rar::Configuration ToConfiguration(const rar::Schema* schema) const;
};

/// The facts obtainable from `initial` by performing every well-formed
/// access against `hidden` with exact responses, to a fixpoint. Bindings
/// of every method range over the typed active domain of its inputs.
PlainInstance AccessiblePart(const rar::Schema& schema,
                             const rar::AccessMethodSet& acs,
                             const rar::Configuration& hidden,
                             const rar::Configuration& initial);

/// Naive evaluation over a fact set, indexed by (relation, position, value).
class NaiveEvaluator {
 public:
  explicit NaiveEvaluator(const std::set<rar::Fact>& facts);

  /// True when some disjunct has a homomorphism into the facts. Head
  /// variables of disjunct d are bound to `head` when it is non-empty.
  bool Holds(const rar::UnionQuery& query,
             const std::vector<rar::Value>& head = {}) const;

 private:
  bool Extend(const rar::ConjunctiveQuery& cq, size_t atom,
              std::vector<rar::Value>* assignment,
              std::vector<char>* bound) const;

  std::map<rar::RelationId, std::vector<const rar::Fact*>> by_relation_;
  std::map<std::tuple<rar::RelationId, int, uint64_t>,
           std::vector<const rar::Fact*>>
      by_value_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
