// Per-layer measurements of the traced run that come from calling each
// module's public functions directly, timed from the benchmark's side:
// engine (ShardedPebEngine::*WithStats, with a TraceBuilder for the shard
// spans), peb (the workload's single PebTree on the same queries), spatial
// (ZIntervalsForWindow on the PRQ windows) and policy (friend lists).
#pragma once

#include "common.h"
#include "engine/sharded_engine.h"
#include "eval/workload.h"
#include "open_loop.h"

namespace perfbench {

/// Runs `calls` PRQs and `calls` PkNNs of `corpus` on the engine and the
/// single tree from one thread (nothing else may run on either) and adds
/// the engine.*, peb.*, spatial.* and policy.friends_per_issuer metrics.
void MeasureLayers(peb::eval::Workload& workload,
                   peb::engine::ShardedPebEngine& engine,
                   const QueryCorpus& corpus, size_t calls, MetricSink* out);

}  // namespace perfbench
