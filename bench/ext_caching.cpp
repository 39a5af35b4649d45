// Extension experiment — buffer-pool hit rates across replacement
// policies and declustering-aware prefetch.
//
// The pluggable-policy pool (pgf/storage/replacement.hpp) claims LRU-K
// and LFU resist exactly the access patterns that hurt plain LRU on the
// paper's workloads: skewed traffic (most queries revisit the hot-spot
// clusters' buckets) and repeated ranges interleaved with large polluting
// scans. This bench measures that directly: a single-node QueryEngine
// serves three workloads over the hotspot.2d paged grid file —
//
//   uniform  — square queries uniform over the domain (no reuse
//              structure; every policy should look alike, the control),
//   hotspot  — query centers drawn from the data points themselves, so
//              the clusters' buckets are re-referenced heavily (skew),
//   scan-mix — a small set of repeated hot ranges with every 8th query a
//              large polluting scan (the scan-resistance stressor: one
//              scan floods a small pool and evicts the hot set under LRU),
//
// sweeping policy {lru, lru-k, clock, lfu} x prefetch {off, on} x
// pool-pages {16, 64, 256}. Every configuration starts cold (fresh
// engine) and serves the whole workload once; the reported hit rate is
// the demand hit fraction over the full pass and io/q is physical page
// reads (misses + prefetch reads) per query — read-ahead cannot hide
// I/O in that column. Correctness anchor: for a fixed workload every
// configuration must return the same total record count (policies may
// only change *when* pages are read, never what the queries see); any
// divergence aborts with exit 1.
//
// --bench-json <file> writes schema pgf-bench-caching-v1 (understood by
// tools/bench_diff, which gates on p99 latency and miss percentage).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"

#include "pgf/parallel/query_engine.hpp"

namespace pgf::bench {
namespace {

/// One measured cell of the sweep.
struct CellResult {
    std::string name;      ///< "<workload>/p=<pages>/<policy>/pf=<on|off>"
    std::string workload;
    std::string policy;
    bool prefetch = false;
    std::size_t pool_pages = 0;
    ServingReport report;
    BufferPool::Stats pool;  ///< the single node pool's counters
};

/// Physical page reads per query: demand misses plus read-ahead reads.
double io_per_query(const CellResult& r) {
    if (r.report.queries == 0) return 0.0;
    return static_cast<double>(r.pool.misses + r.pool.prefetch_issued) /
           static_cast<double>(r.report.queries);
}

/// Square rect of `area_ratio` of the domain's area centered at `c`
/// (clamped to the domain).
Rect<2> square_at(const Rect<2>& domain, const Point<2>& c,
                  double area_ratio) {
    const double side = std::sqrt(area_ratio);
    Rect<2> q;
    for (std::size_t i = 0; i < 2; ++i) {
        const double len = side * domain.extent(i);
        q.lo[i] = std::max(domain.lo[i], c[i] - 0.5 * len);
        q.hi[i] = std::min(domain.hi[i], c[i] + 0.5 * len);
    }
    return q;
}

/// Skewed workload: query centers are data points, so the hot clusters'
/// buckets absorb most of the traffic.
std::vector<Rect<2>> hotspot_queries(const Dataset<2>& ds, double area_ratio,
                                     std::size_t count, Rng& rng) {
    std::vector<Rect<2>> queries;
    queries.reserve(count);
    const auto n = static_cast<std::uint32_t>(ds.points.size());
    for (std::size_t i = 0; i < count; ++i) {
        const Point<2>& c = ds.points[rng.below(n)];
        queries.push_back(square_at(ds.domain, c, area_ratio));
    }
    return queries;
}

/// Scan-resistance workload: 7 of 8 queries repeat one of `hot_set` small
/// ranges; every 8th is a fresh large scan that floods a small pool.
std::vector<Rect<2>> scan_mix_queries(const Dataset<2>& ds,
                                      std::size_t count, Rng& rng) {
    constexpr std::size_t kHotRects = 4;
    constexpr double kHotArea = 0.005;
    constexpr double kScanArea = 0.25;
    std::vector<Rect<2>> hot_set;
    hot_set.reserve(kHotRects);
    const auto n = static_cast<std::uint32_t>(ds.points.size());
    for (std::size_t i = 0; i < kHotRects; ++i) {
        const Point<2>& c = ds.points[rng.below(n)];
        hot_set.push_back(square_at(ds.domain, c, kHotArea));
    }
    std::vector<Rect<2>> queries;
    queries.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (i % 8 == 7) {
            Point<2> c;
            for (std::size_t d = 0; d < 2; ++d) {
                c[d] = rng.uniform(ds.domain.lo[d], ds.domain.hi[d]);
            }
            queries.push_back(square_at(ds.domain, c, kScanArea));
        } else {
            queries.push_back(
                hot_set[rng.below(static_cast<std::uint32_t>(
                    hot_set.size()))]);
        }
    }
    return queries;
}

bool write_caching_json(const Options& opt, const std::string& path,
                        const std::vector<CellResult>& results) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "[bench-json] FAILED to write " << path << "\n";
        return false;
    }
    out << "{\n"
        << "  \"schema\": \"pgf-bench-caching-v1\",\n"
        << "  \"binary\": \"ext_caching\",\n"
        << "  \"queries\": " << opt.queries << ",\n"
        << "  \"seed\": " << opt.seed << ",\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CellResult& r = results[i];
        out << "    {\"name\": \"" << r.name << "\", \"workload\": \""
            << r.workload << "\", \"policy\": \"" << r.policy
            << "\", \"prefetch\": " << (r.prefetch ? "true" : "false")
            << ", \"pool_pages\": " << r.pool_pages
            << ", \"hit_rate\": " << r.pool.hit_rate()
            << ", \"hits\": " << r.pool.hits
            << ", \"misses\": " << r.pool.misses
            << ", \"evictions\": " << r.pool.evictions
            << ", \"prefetch_issued\": " << r.pool.prefetch_issued
            << ", \"prefetch_hits\": " << r.pool.prefetch_hits
            << ", \"io_per_query\": " << io_per_query(r)
            << ", \"qps\": " << r.report.qps
            << ", \"p50_ms\": " << r.report.p50_ms
            << ", \"p99_ms\": " << r.report.p99_ms
            << ", \"records\": " << r.report.records_returned << "}"
            << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cerr << "[bench-json] " << path << "\n";
    return true;
}

int run(int argc, char** argv) {
    Options opt(argc, argv);

    print_banner(opt,
                 "Extension — replacement policies and prefetch vs hit rate",
                 "hotspot.2d paged grid file, 1-node QueryEngine; demand "
                 "hit rate, physical reads/query and p50/p99 latency vs "
                 "policy x prefetch x pool-pages x workload");
    Rng rng(opt.seed);
    // Hit rates are a property of the disk image, so the workbench is
    // always built paged.
    const Workbench<2> bench(make_hotspot2d(rng, 10000), true);
    const PagedGridFile<2>& pgf2 = *bench.paged;
    std::cout << bench.summary() << "\n";

    // Every bucket on the one node's one disk: this bench isolates the
    // caching behavior, not the declustering (ext_serving covers that).
    Assignment assignment;
    assignment.num_disks = 1;
    assignment.disk_of.assign(pgf2.bucket_count(), 0);

    struct Workload {
        std::string name;
        std::vector<Rect<2>> queries;
    };
    Rng qrng(opt.seed + 15000);
    std::vector<Workload> workloads;
    workloads.push_back(
        {"uniform",
         square_queries(bench.dataset.domain, 0.02, opt.queries, qrng)});
    workloads.push_back(
        {"hotspot",
         hotspot_queries(bench.dataset, 0.02, opt.queries, qrng)});
    workloads.push_back(
        {"scan-mix", scan_mix_queries(bench.dataset, opt.queries, qrng)});

    const std::vector<std::size_t> pool_sweep{16, 64, 256};
    const std::vector<ReplacementPolicy> policies{
        ReplacementPolicy::kLru, ReplacementPolicy::kLruK,
        ReplacementPolicy::kClock, ReplacementPolicy::kLfu};

    std::vector<CellResult> results;
    bool consistent = true;
    for (const Workload& wl : workloads) {
        std::vector<QueryEngine<2>::Query> engine_queries(
            wl.queries.begin(), wl.queries.end());
        TextTable table({"pool", "policy", "prefetch", "hit rate", "io/q",
                         "p50 ms", "p99 ms"});
        std::uint64_t expected_records = 0;
        bool have_expected = false;
        for (std::size_t pool_pages : pool_sweep) {
            for (ReplacementPolicy policy : policies) {
                for (bool prefetch : {false, true}) {
                    ServingConfig cfg;
                    cfg.nodes = 1;
                    cfg.workers_per_node = 1;
                    cfg.pool_pages = pool_pages;
                    cfg.concurrency = 1;
                    cfg.pool_config.policy = policy;
                    cfg.prefetch = prefetch;
                    // Fresh engine per cell: every configuration starts
                    // cold and serves the whole workload once.
                    QueryEngine<2> engine(pgf2, assignment, cfg);
                    auto out = engine.run(engine_queries);

                    CellResult r;
                    r.workload = wl.name;
                    r.policy = to_string(policy);
                    r.prefetch = prefetch;
                    r.pool_pages = pool_pages;
                    r.name = wl.name + "/p=" + std::to_string(pool_pages) +
                             "/" + r.policy +
                             (prefetch ? "/pf=on" : "/pf=off");
                    r.report = out.report;
                    r.pool = out.report.node_pools.at(0);
                    if (!have_expected) {
                        expected_records = r.report.records_returned;
                        have_expected = true;
                    } else if (r.report.records_returned !=
                               expected_records) {
                        consistent = false;
                    }
                    table.add(pool_pages, r.policy,
                              prefetch ? "on" : "off",
                              format_double(r.pool.hit_rate(), 3),
                              format_double(io_per_query(r)),
                              format_double(r.report.p50_ms, 3),
                              format_double(r.report.p99_ms, 3));
                    results.push_back(std::move(r));
                }
            }
        }
        emit(opt, table, "ext_caching_" + wl.name);
    }

    if (!opt.bench_json.empty()) {
        write_caching_json(opt, opt.bench_json, results);
    }
    if (!consistent) {
        std::cerr << "ext_caching: record counts DIVERGED across pool "
                     "configurations of one workload\n";
        return 1;
    }
    return 0;
}

}  // namespace
}  // namespace pgf::bench

int main(int argc, char** argv) { return pgf::bench::run(argc, argv); }
