#pragma once

// The traced run (--trace 1): per-layer metrics, timed from the
// benchmark's own files around calls into each src/ module's public
// functions, on the workload's own inputs.  Nothing inside the program is
// instrumented; program counters are read by name, and a counter the
// program no longer has is reported absent (-1), not as a failure.

#include "common.hpp"

namespace perfbench {

void run_ledger(const Options& options, Report& report);

}  // namespace perfbench
