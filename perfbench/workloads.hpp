// The benchmark's workloads. Each runs its correctness gates before any
// timing (throwing GateFailure), then fills `report` with the end-to-end
// metrics (args.trace == false) or the per-layer metrics (args.trace).
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_pretrain_cqc(const Args& args, Report& report);
void run_encode_open(const Args& args, Report& report);
void run_search_mixed(const Args& args, Report& report);

}  // namespace perfbench
