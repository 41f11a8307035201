// Shard-plan construction for the sharded simulation step.
//
// The step partitions hosts into contiguous shards and fans per-host work
// (demand refresh, utilization/SLA accounting) across a ShardExecutor.
// With a fat-tree fabric attached the shards are the fabric's pods — pods
// are contiguous ascending host ranges, they match the locality structure
// policies already reason about (pack_local, local probes), and they are
// the unit hierarchical Megh's per-pod learners own. Topology-free runs
// fall back to fixed-size blocks.
//
// The plan is a pure function of (topology, host count) — never of the job
// count — and every cross-shard merge in the step is exact, so decision
// outputs are bit-identical at any SimulationConfig::jobs.
#pragma once

#include "common/parallel.hpp"
#include "sim/network.hpp"

namespace megh {

/// Hosts per block when no fabric is attached. 256 keeps a block's hoisted
/// host arrays L1/L2-resident during a pod's candidate scans while still
/// giving an 800-host fleet enough shards to spread over 8 workers.
inline constexpr int kDefaultShardHosts = 256;

/// Build the step's shard plan: one shard per fat-tree pod when `network`
/// covers the fleet (the last pod is clipped to num_hosts), else
/// kDefaultShardHosts-sized blocks.
ShardPlan make_step_shards(const FatTreeTopology* network, int num_hosts);

}  // namespace megh
