// Shard-plan construction for the sharded simulation step.
//
// The step partitions hosts into contiguous shards and fans per-host work
// (demand refresh, utilization/SLA accounting) across a ShardExecutor once
// the fleet reaches kMinParallelStepHosts.
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

/// Hosts per block when no fabric is attached — the step's shards and,
/// without a fabric, hierarchical Megh's pods. A 256-host pod keeps its
/// hoisted per-host candidate arrays (a few KiB each) cache-resident.
inline constexpr int kDefaultShardHosts = 256;

/// Smallest fleet whose per-host step phases (demand refresh, utilization
/// snapshot, settle accounting) fan out over the executor; smaller fleets
/// run them serially. Each phase is a few tens of nanoseconds per host, so
/// below this a pool dispatch costs more than it saves: on a 4-vCPU Xeon,
/// a policy-free run at jobs 4 was slower than at jobs 1 up to 4000 hosts
/// and faster from 4800. Hierarchical Megh's pod phase fans out at any
/// size.
inline constexpr int kMinParallelStepHosts = 4096;

/// Build the step's shard plan: one shard per fat-tree pod when `network`
/// covers the fleet (the last pod is clipped to num_hosts), else
/// kDefaultShardHosts-sized blocks.
ShardPlan make_step_shards(const FatTreeTopology* network, int num_hosts);

}  // namespace megh
