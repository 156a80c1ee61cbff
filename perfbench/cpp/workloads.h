// The workloads.  Each fills `report` with its end-to-end metrics (untraced
// run) or per-layer metrics (traced run) and the correctness checks;
// README.md beside this directory says why each exists.
#pragma once

#include "common.h"

namespace perfbench {

void RunDirectStable(const RunOptions& options, Report& report);
void RunGenMixed(const RunOptions& options, Report& report);
void RunSimFig10(const RunOptions& options, Report& report);

/// The router and control-plane layers (cluster.*, ctrl.*), traced at
/// `direct`'s ladder; direct-stable's traced run calls it.
void RunClusterLayers(const RunOptions& direct, Report& report);

}  // namespace perfbench
