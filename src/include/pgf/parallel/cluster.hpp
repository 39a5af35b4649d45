// Shared-nothing cluster configuration (paper Sec. 3.5).
//
// Each node owns one local disk (the paper's simplification) and
// communicates by message passing. Node 0 doubles as the coordinator,
// holding the grid-file scales and directory; requests it sends to itself
// cost no network time.
#pragma once

#include <cstdint>
#include <vector>

#include "pgf/decluster/types.hpp"
#include "pgf/parallel/disk_model.hpp"
#include "pgf/parallel/network.hpp"

namespace pgf {

struct ClusterConfig {
    std::uint32_t nodes = 4;
    /// Local disks per node. The paper's machine had seven disks per SP-2
    /// processor; the declustering then targets nodes * disks_per_node
    /// disks, and a node's disks serve their block lists in parallel.
    std::uint32_t disks_per_node = 1;
    DiskParams disk{};
    NetworkParams network{};
    /// Size of one qualified record shipped back to the coordinator.
    std::size_t record_bytes = 52;
    /// Size of one block request in a coordinator -> worker message.
    std::size_t request_bytes = 16;
    /// Coordinator CPU cost to translate a query against the directory,
    /// plus per-bucket request-building cost.
    double query_translate_s = 200e-6;
    double per_request_s = 2e-6;
};

/// Splits a query's bucket list into per-node block lists — the
/// coordinator's request building, shared by the DES server and
/// QueryEngine. Disk d lives on node d / disks_per_node. A node's list is
/// its disks' bins in disk order, each bin in bucket-list order, so every
/// disk's blocks form one contiguous run of its node's list (the longest
/// run is the Sec. 2.2 response metric max_i N_i). Throws CheckError if a
/// bucket's disk lies outside the cluster.
std::vector<std::vector<std::uint32_t>> partition_node_blocks(
    const std::vector<std::uint32_t>& buckets, const Assignment& assignment,
    std::uint32_t nodes, std::uint32_t disks_per_node);

}  // namespace pgf
