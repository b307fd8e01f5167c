// The four workloads. Each runs a fixed amount of work set by --seconds
// (epochs of identical shape, inputs drawn from --seed), checks its
// outputs against the reference computations in oracle.h, and returns its
// metrics: end-to-end ones untraced, per-layer ones traced.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Epochs in one run: two per requested second. Each epoch's timed phase
/// takes roughly half a second on the reference machine (README.md).
inline int EpochsFor(const RunArgs& args) { return 2 * args.seconds; }

/// In a traced run every odd epoch is traced and every even one is not,
/// so the two halves give the tracing overhead on equal work.
inline bool EpochTraced(const RunArgs& args, int epoch) {
  return args.trace && epoch % 2 == 1;
}

WorkloadResult RunMediate(const RunArgs& args);
WorkloadResult RunServeStream(const RunArgs& args);
WorkloadResult RunServeDurable(const RunArgs& args);
WorkloadResult RunServeTcp(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
