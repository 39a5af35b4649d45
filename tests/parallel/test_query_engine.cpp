#include "pgf/parallel/query_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "pgf/decluster/registry.hpp"
#include "pgf/disksim/metrics.hpp"
#include "pgf/parallel/pgf_server.hpp"
#include "pgf/util/rng.hpp"
#include "pgf/workload/query_gen.hpp"
#include "../storage/temp_path.hpp"

namespace pgf {
namespace {

using Records = std::vector<GridRecord<2>>;

Records sorted_by_id(Records records) {
    std::sort(records.begin(), records.end(),
              [](const GridRecord<2>& a, const GridRecord<2>& b) {
                  return a.id < b.id;
              });
    return records;
}

void expect_same_records(const Records& got, const Records& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << "record " << i;
        EXPECT_EQ(got[i].point, want[i].point) << "record " << i;
    }
}

/// A paged grid file the engine serves, flushed and ready.
struct Fixture {
    Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
    std::filesystem::path path = test::unique_temp_path("query_engine");
    PagedGridFile<2> pf;
    GridStructure gs;

    static PagedGridFile<2>::Config small_pages() {
        PagedGridFile<2>::Config cfg;
        cfg.page_size = PagedBucketStore<2>::page_size_for(8);
        return cfg;
    }

    explicit Fixture(std::size_t n_points = 2500)
        : pf(path.string(), domain, small_pages()) {
        Rng rng(3);
        for (std::uint64_t i = 0; i < n_points; ++i) {
            pf.insert({{rng.uniform(), rng.uniform()}}, i);
        }
        pf.flush();
        gs = pf.structure();
    }

    ~Fixture() { std::filesystem::remove(path); }

    Assignment assignment(std::uint32_t disks) const {
        return decluster(gs, Method::kMinimax, disks, {.seed = 7});
    }

    ServingConfig config(unsigned workers, std::size_t concurrency = 8,
                         std::size_t pool_pages = 1024) const {
        ServingConfig c;
        c.nodes = 4;
        c.workers_per_node = workers;
        c.concurrency = concurrency;
        c.pool_pages = pool_pages;
        return c;
    }

    /// A mixed workload: range queries plus partial-match queries on each
    /// single attribute (the paper's two query classes).
    std::vector<QueryEngine<2>::Query> mixed_queries(std::size_t n_rect,
                                                     std::uint64_t seed) const {
        Rng rng(seed);
        std::vector<QueryEngine<2>::Query> qs;
        for (const Rect<2>& q : square_queries(domain, 0.05, n_rect, rng)) {
            qs.push_back(q);
        }
        for (std::size_t i = 0; i < n_rect / 4; ++i) {
            PartialMatch<2> pm;
            pm.key[i % 2] = rng.uniform();
            qs.push_back(pm);
        }
        return qs;
    }

    /// Serial reference through the single-threaded paged query path.
    Records serial(const QueryEngine<2>::Query& q) const {
        if (const Rect<2>* rect = std::get_if<Rect<2>>(&q)) {
            return pf.query_records(*rect);
        }
        return pf.query_records(std::get<PartialMatch<2>>(q));
    }
};

TEST(PartitionNodeBlocks, BinsPerDiskThenConcatenatesPerNode) {
    // 2 nodes x 2 disks. Buckets in query order hit disks 3,0,3,2,0:
    // node 0 owns disks {0,1}, node 1 owns {2,3}; within a node the bins
    // come out disk-major, each bin in query-list order.
    Assignment a;
    a.num_disks = 4;
    a.disk_of = {3, 0, 3, 2, 0};
    const std::vector<std::uint32_t> buckets{0, 1, 2, 3, 4};
    auto nodes = partition_node_blocks(buckets, a, 2, 2);
    ASSERT_EQ(nodes.size(), 2u);
    EXPECT_EQ(nodes[0], (std::vector<std::uint32_t>{1, 4}));
    EXPECT_EQ(nodes[1], (std::vector<std::uint32_t>{3, 0, 2}));
}

TEST(PartitionNodeBlocks, MatchesDesResponseMetric) {
    // With one disk per node, a node's block list IS its disk's bin, so
    // the longest list must equal the Sec. 2.2 response-time metric the
    // DES server charges (computed by independent code in disksim).
    Fixture f;
    Assignment a = f.assignment(4);
    Rng rng(11);
    auto queries = square_queries(f.domain, 0.05, 30, rng);
    QueryScratch scratch;
    std::vector<std::uint32_t> buckets;
    for (const Rect<2>& q : queries) {
        f.pf.query_buckets(q, scratch, buckets);
        auto nodes = partition_node_blocks(buckets, a, 4, 1);
        std::size_t covered = 0;
        std::uint32_t worst = 0;
        for (const auto& blocks : nodes) {
            covered += blocks.size();
            worst = std::max<std::uint32_t>(
                worst, static_cast<std::uint32_t>(blocks.size()));
        }
        EXPECT_EQ(covered, buckets.size());
        EXPECT_EQ(worst, response_time(buckets, a));
    }
}

TEST(QueryEngine, MatchesSerialPathAndIsDeterministicAcrossThreadCounts) {
    Fixture f;
    Assignment a = f.assignment(4);
    auto queries = f.mixed_queries(40, 17);

    std::vector<Records> serial;
    for (const auto& q : queries) serial.push_back(sorted_by_id(f.serial(q)));

    std::vector<std::vector<Records>> per_workers;
    for (unsigned workers : {1u, 2u, 8u}) {
        QueryEngine<2> engine(f.pf, a, f.config(workers));
        auto out = engine.run(queries);
        ASSERT_EQ(out.results.size(), queries.size()) << workers;
        // Multiset equality with the serial path...
        for (std::size_t i = 0; i < queries.size(); ++i) {
            expect_same_records(sorted_by_id(out.results[i]), serial[i]);
        }
        per_workers.push_back(std::move(out.results));
    }
    // ...and the *gathered order* (node-major, block-list order) depends
    // only on (structure, assignment, query) — identical at every thread
    // count, without sorting.
    for (std::size_t w = 1; w < per_workers.size(); ++w) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
            expect_same_records(per_workers[w][i], per_workers[0][i]);
        }
    }
}

TEST(QueryEngine, AgreesWithDesServerOnWorkCounters) {
    // The threaded engine and the DES simulation partition identically, so
    // their structural counters — the paper's response blocks included —
    // must agree exactly. With two disks per node a node's list is its
    // disks' bins, not the query's bucket order filtered per node.
    Fixture f;
    Assignment a = f.assignment(4);
    Rng rng(19);
    auto rects = square_queries(f.domain, 0.05, 25, rng);
    std::vector<QueryEngine<2>::Query> queries(rects.begin(), rects.end());
    // Independent oracle for the response metric (disksim's per-disk count).
    std::uint64_t oracle = 0;
    QueryScratch scratch;
    std::vector<std::uint32_t> buckets;
    for (const Rect<2>& q : rects) {
        f.pf.query_buckets(q, scratch, buckets);
        oracle += response_time(buckets, a);
    }

    for (std::uint32_t disks_per_node : {1u, 2u}) {
        SCOPED_TRACE(disks_per_node);
        ClusterConfig cc;
        cc.nodes = 4 / disks_per_node;
        cc.disks_per_node = disks_per_node;
        ParallelGridFileServer<2, PagedGridFile<2>> server(f.pf, a, cc);
        BatchResult des = server.execute(rects);

        ServingConfig sc = f.config(2);
        sc.nodes = cc.nodes;
        sc.disks_per_node = disks_per_node;
        QueryEngine<2> engine(f.pf, a, sc);
        auto out = engine.run(queries);

        EXPECT_EQ(out.report.queries, des.queries);
        EXPECT_EQ(out.report.total_blocks, des.total_blocks);
        EXPECT_EQ(des.response_blocks, oracle);
        EXPECT_EQ(out.report.response_blocks, des.response_blocks);
        EXPECT_EQ(out.report.records_returned, des.records_returned);
    }
}

TEST(QueryEngine, StressTinyPoolManyThreadsMixedQueries) {
    // The TSan anchor: 4 nodes x 4 workers + a routing front end over a
    // pool of only 4 frames per node (the minimum: one pinned page per
    // team worker), with a full admission window of mixed range and
    // partial-match queries — maximum contention on the pool latch, the
    // queues and the completion path. Three batches reuse the same engine.
    Fixture f(3000);
    Assignment a = f.assignment(4);
    QueryEngine<2> engine(f.pf, a, f.config(4, 16, 4));
    for (std::uint64_t round = 0; round < 3; ++round) {
        auto queries = f.mixed_queries(48, 100 + round);
        auto out = engine.run(queries);
        ASSERT_EQ(out.results.size(), queries.size());
        std::uint64_t records = 0;
        for (std::size_t i = 0; i < queries.size(); ++i) {
            Records want = sorted_by_id(f.serial(queries[i]));
            expect_same_records(sorted_by_id(out.results[i]), want);
            records += want.size();
        }
        EXPECT_EQ(out.report.records_returned, records);
        EXPECT_EQ(out.report.queries, queries.size());
        ASSERT_EQ(out.latencies_ms.size(), queries.size());
        for (double ms : out.latencies_ms) EXPECT_GE(ms, 0.0);
    }
}

TEST(QueryEngine, TotalBlocksMatchesDirectoryLookup) {
    Fixture f;
    Assignment a = f.assignment(4);
    Rng rng(23);
    auto rects = square_queries(f.domain, 0.05, 20, rng);
    std::uint64_t expected = 0;
    QueryScratch scratch;
    std::vector<std::uint32_t> buckets;
    for (const Rect<2>& q : rects) {
        f.pf.query_buckets(q, scratch, buckets);
        expected += buckets.size();
    }
    QueryEngine<2> engine(f.pf, a, f.config(2));
    std::vector<QueryEngine<2>::Query> queries(rects.begin(), rects.end());
    auto out = engine.run(queries);
    EXPECT_EQ(out.report.total_blocks, expected);
    EXPECT_GT(out.report.qps, 0.0);
    EXPECT_GE(out.report.p99_ms, out.report.p50_ms);
    EXPECT_GE(out.report.max_ms, out.report.p99_ms);
}

TEST(QueryEngine, PoolsWarmAcrossRunsAndDropCachesResets) {
    Fixture f;
    Assignment a = f.assignment(4);
    QueryEngine<2> engine(f.pf, a, f.config(2));
    Rng rng(29);
    auto rects = square_queries(f.domain, 0.08, 20, rng);
    std::vector<QueryEngine<2>::Query> queries(rects.begin(), rects.end());

    auto cold = engine.run(queries);
    std::uint64_t cold_misses = 0;
    ASSERT_EQ(cold.report.node_pools.size(), 4u);
    for (const auto& s : cold.report.node_pools) cold_misses += s.misses;
    EXPECT_GT(cold_misses, 0u);

    auto warm = engine.run(queries);
    std::uint64_t warm_misses = 0;
    std::uint64_t warm_hits = 0;
    for (const auto& s : warm.report.node_pools) {
        warm_misses += s.misses;
        warm_hits += s.hits;
    }
    EXPECT_EQ(warm_misses, 0u);  // 1024 frames/node hold the working set
    EXPECT_EQ(warm_hits, warm.report.total_blocks);

    engine.drop_caches();
    auto cold2 = engine.run(queries);
    std::uint64_t cold2_misses = 0;
    for (const auto& s : cold2.report.node_pools) cold2_misses += s.misses;
    EXPECT_EQ(cold2_misses, cold_misses);
}

TEST(QueryEngine, EmptyBatchAndMissQuery) {
    Fixture f(600);
    Assignment a = f.assignment(4);
    QueryEngine<2> engine(f.pf, a, f.config(1));
    auto out = engine.run({});
    EXPECT_EQ(out.report.queries, 0u);
    EXPECT_DOUBLE_EQ(out.report.qps, 0.0);
    // A query missing the domain fans out to zero nodes yet must still
    // complete (submit() completes it directly).
    Rect<2> miss{{{5.0, 5.0}}, {{6.0, 6.0}}};
    auto out2 = engine.run({QueryEngine<2>::Query(miss)});
    EXPECT_EQ(out2.report.queries, 1u);
    EXPECT_EQ(out2.report.total_blocks, 0u);
    ASSERT_EQ(out2.results.size(), 1u);
    EXPECT_TRUE(out2.results[0].empty());
}

TEST(QueryEngine, SubmitDrainResultWithoutRun) {
    Fixture f(800);
    Assignment a = f.assignment(4);
    QueryEngine<2> engine(f.pf, a, f.config(2, 2));  // window of two
    Rng rng(31);
    auto rects = square_queries(f.domain, 0.05, 10, rng);
    std::vector<std::size_t> tickets;
    for (const Rect<2>& q : rects) tickets.push_back(engine.submit(q));
    engine.drain();
    for (std::size_t i = 0; i < rects.size(); ++i) {
        EXPECT_EQ(tickets[i], i);
        expect_same_records(sorted_by_id(engine.result(tickets[i])),
                            sorted_by_id(f.pf.query_records(rects[i])));
    }
}

TEST(QueryEngine, RejectsBadConfigs) {
    Fixture f(600);
    Assignment a = f.assignment(4);
    // Pool smaller than the team: a worker could starve pinning its page.
    EXPECT_THROW(QueryEngine<2>(f.pf, a, f.config(8, 8, 4)), CheckError);
    // Assignment width must match nodes * disks_per_node.
    ServingConfig eight = f.config(1);
    eight.nodes = 8;
    EXPECT_THROW(QueryEngine<2>(f.pf, a, eight), CheckError);
    Assignment short_a;
    short_a.num_disks = 4;
    short_a.disk_of.assign(1, 0);
    EXPECT_THROW(QueryEngine<2>(f.pf, short_a, f.config(1)), CheckError);
    ServingConfig zero = f.config(1);
    zero.concurrency = 0;
    EXPECT_THROW(QueryEngine<2>(f.pf, a, zero), CheckError);
}

TEST(QueryEngine, MultiDiskPartitionServedCorrectly) {
    // 2 nodes x 2 disks: the engine's per-node lists are disk bins
    // concatenated, not a plain per-node filter — results must still match
    // the serial path and cover every block.
    Fixture f;
    Assignment a = f.assignment(4);  // 4 disks on 2 nodes
    ServingConfig cfg;
    cfg.nodes = 2;
    cfg.disks_per_node = 2;
    cfg.workers_per_node = 2;
    cfg.concurrency = 4;
    QueryEngine<2> engine(f.pf, a, cfg);
    auto queries = f.mixed_queries(20, 37);
    auto out = engine.run(queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
        expect_same_records(sorted_by_id(out.results[i]),
                            sorted_by_id(f.serial(queries[i])));
    }
}

}  // namespace
}  // namespace pgf
