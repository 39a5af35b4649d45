#include "pgf/parallel/cluster.hpp"

#include "pgf/util/check.hpp"

namespace pgf {

std::vector<std::vector<std::uint32_t>> partition_node_blocks(
    const std::vector<std::uint32_t>& buckets, const Assignment& assignment,
    std::uint32_t nodes, std::uint32_t disks_per_node) {
    const std::uint32_t total_disks = nodes * disks_per_node;
    // Counting sort by disk: count each disk's bin, turn the counts into
    // each bin's start within its node's list, then place the buckets in
    // list order. One count array; no per-disk vectors.
    std::vector<std::uint32_t> next(total_disks, 0);
    for (std::uint32_t b : buckets) {
        const std::uint32_t disk = assignment.disk_of[b];
        PGF_CHECK(disk < total_disks,
                  "assignment references a disk outside the cluster");
        ++next[disk];
    }
    std::vector<std::vector<std::uint32_t>> per_node(nodes);
    for (std::uint32_t n = 0; n < nodes; ++n) {
        std::uint32_t start = 0;
        for (std::uint32_t d = n * disks_per_node;
             d < (n + 1) * disks_per_node; ++d) {
            const std::uint32_t count = next[d];
            next[d] = start;
            start += count;
        }
        per_node[n].resize(start);
    }
    for (std::uint32_t b : buckets) {
        const std::uint32_t disk = assignment.disk_of[b];
        per_node[disk / disks_per_node][next[disk]++] = b;
    }
    return per_node;
}

}  // namespace pgf
