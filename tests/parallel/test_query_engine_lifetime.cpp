// Lifetime and sharing of QueryEngine's per-query and routing state.
//
// submit() routes each query on the calling thread. run() frees the
// previous batch's QueryState objects as soon as the engine is drained,
// and a query that fans out to a single node can complete on that node's
// team the instant it is pushed, so the router must not read its state
// after that push. Concurrent submitters share one routing scratch behind
// a latch, and routing must not throw once the query counts as in flight.
#include "pgf/parallel/query_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <thread>
#include <utility>
#include <vector>

#include "pgf/util/rng.hpp"
#include "pgf/workload/query_gen.hpp"
#include "../storage/temp_path.hpp"

namespace pgf {
namespace {

/// A flushed paged grid file of `n` uniform points with small pages.
struct SmallFile {
    Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
    std::filesystem::path path;
    PagedGridFile<2> pf;

    static PagedGridFile<2>::Config small_pages() {
        PagedGridFile<2>::Config cfg;
        cfg.page_size = PagedBucketStore<2>::page_size_for(8);
        return cfg;
    }

    SmallFile(const char* tag, std::uint64_t n, std::uint64_t seed)
        : path(test::unique_temp_path(tag)),
          pf(path.string(), domain, small_pages()) {
        Rng rng(seed);
        for (std::uint64_t i = 0; i < n; ++i) {
            pf.insert({{rng.uniform(), rng.uniform()}}, i);
        }
        pf.flush();
    }

    ~SmallFile() { std::filesystem::remove(path); }
};

TEST(QueryEngineLifetime, SingleTargetBackToBackRunsNeverTouchFreedState) {
    // With every bucket on disk 0, node 0 is the only target of every
    // query: a read of the state after the push (e.g. scanning the other
    // nodes' block lists) races the next run()'s reset, which
    // AddressSanitizer reports as a heap-use-after-free.
    SmallFile f("query_engine_lifetime", 800, 5);
    Assignment all_on_disk0;
    all_on_disk0.num_disks = 4;
    all_on_disk0.disk_of.assign(f.pf.bucket_count(), 0);
    ServingConfig cfg;
    cfg.nodes = 4;
    cfg.workers_per_node = 1;
    cfg.concurrency = 4;
    QueryEngine<2> engine(f.pf, all_on_disk0, cfg);

    const Rect<2> q{{{0.40, 0.40}}, {{0.45, 0.45}}};
    const std::size_t want = f.pf.query_records(q).size();
    const std::vector<QueryEngine<2>::Query> one{q};
    for (int i = 0; i < 20000; ++i) {
        auto out = engine.run(one);
        ASSERT_EQ(out.results.size(), 1u);
        ASSERT_EQ(out.results[0].size(), want) << "iteration " << i;
        ASSERT_EQ(out.report.queries, 1u);
    }
}

TEST(QueryEngineLifetime, RejectsAssignmentDiskOutsideClusterUpFront) {
    // Routing runs inside submit() after the query is counted in flight;
    // a bad disk index must fail at construction, not strand a query that
    // drain() would then wait for forever.
    SmallFile f("query_engine_bad_disk", 50, 6);
    Assignment bad;
    bad.num_disks = 4;
    bad.disk_of.assign(f.pf.bucket_count(), 7);
    ServingConfig cfg;
    cfg.nodes = 4;
    EXPECT_THROW(QueryEngine<2>(f.pf, bad, cfg), CheckError);
}

TEST(QueryEngineLifetime, ConcurrentSubmittersShareRoutingScratch) {
    // Every ticket must gather exactly the serial path's records (run
    // under the tsan preset, this also checks the routing latch).
    SmallFile f("query_engine_submitters", 1500, 9);
    Assignment round_robin;
    round_robin.num_disks = 4;
    for (std::uint32_t b = 0; b < f.pf.bucket_count(); ++b) {
        round_robin.disk_of.push_back(b % 4);
    }
    ServingConfig cfg;
    cfg.nodes = 4;
    cfg.workers_per_node = 2;
    cfg.concurrency = 6;
    cfg.prefetch = true;
    QueryEngine<2> engine(f.pf, round_robin, cfg);

    constexpr std::size_t kSubmitters = 3;
    std::vector<std::vector<std::pair<std::size_t, Rect<2>>>> issued(
        kSubmitters);
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            Rng qrng(40 + t);
            for (const Rect<2>& q : square_queries(f.domain, 0.03, 40, qrng)) {
                issued[t].emplace_back(engine.submit(q), q);
            }
        });
    }
    for (auto& th : submitters) th.join();
    engine.drain();

    auto by_id = [](const GridRecord<2>& a, const GridRecord<2>& b) {
        return a.id < b.id;
    };
    for (const auto& list : issued) {
        for (const auto& [ticket, q] : list) {
            auto got = engine.result(ticket);
            auto want = f.pf.query_records(q);
            std::sort(got.begin(), got.end(), by_id);
            std::sort(want.begin(), want.end(), by_id);
            ASSERT_EQ(got.size(), want.size()) << "ticket " << ticket;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].id, want[i].id) << "ticket " << ticket;
            }
        }
    }
}

}  // namespace
}  // namespace pgf
