// perfbench — the repository benchmark.
//
// One workload per process:
//
//   perfbench --workload <serve-resident|serve-paging|ingest-recover>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--out <dir>] [--commit <sha>]
//
// Every workload drives the same end-to-end life cycle of a paged grid
// file, each weighted towards the layers it is meant to stress:
//
//   setup    generated points -> ExtSorter -> bulk_load_stream -> flush
//            (WAL on) -> decluster() -> QueryEngine start
//   serve    warm-up, then a closed loop at admission window 1, then one
//            at window 4 (2 nodes x 1 worker, 4 disks per node, M = 8)
//   ingest   point inserts with a group commit every 1000 inserts; after
//            the last commit the FaultInjector is armed and inserts
//            continue until the injected crash
//   recover  PagedGridFile RecoverTag reopen of a copy of the crash state
//
// Every served query is checked against the serial query path and a
// seeded sample against a brute-force scan; every recovered file passes
// the deep audit and must hold exactly a prefix of the insert sequence
// that covers every committed insert. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// The traced run times calls into each layer from this file (a serial
// replay of every window-1 query through private node pools), keeps the
// spans in memory and writes them to <out>/spans-*.csv at exit.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "pgf/analysis/paged_audit.hpp"
#include "pgf/core/extsort.hpp"
#include "pgf/core/point_source.hpp"
#include "pgf/decluster/registry.hpp"
#include "pgf/disksim/metrics.hpp"
#include "pgf/parallel/node_backing.hpp"
#include "pgf/parallel/query_engine.hpp"
#include "pgf/storage/fault_injection.hpp"
#include "pgf/storage/page.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/storage/recovery.hpp"
#include "pgf/util/rng.hpp"
#include "pgf/util/thread_pool.hpp"
#include "pgf/workload/datasets.hpp"
#include "pgf/workload/query_gen.hpp"

#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using pgf::Assignment;
using pgf::BufferPool;
using pgf::GridRecord;
using pgf::PagedGridFile;
using pgf::Point;
using pgf::Rect;

double since_s(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- cluster shape -----------------------------------------------------------

constexpr std::uint32_t kNodes = 2;
constexpr std::uint32_t kDisksPerNode = 4;  // M = 8 disks
constexpr unsigned kWorkersPerNode = 1;
constexpr std::size_t kWindow = 4;
/// Engine threads (node teams + dispatcher) plus the submitting thread.
constexpr unsigned kServeThreads = kNodes * kWorkersPerNode + 1 + 1;
constexpr std::uint64_t kCommitEvery = 1000;
/// Post-commit inserts available before the armed crash must have hit.
constexpr std::uint64_t kCrashTail = 20000;
constexpr std::size_t kSortChunk = 1 << 18;
/// Queries per window-4 batch (the engine drains between batches).
constexpr std::size_t kBatch = 512;
/// Samples a percentile summary needs for p99 under the ten-beyond rule.
constexpr std::size_t kMinLatencySamples = 1000;
/// Alternating window-1 / window-4 slices per serve phase.
constexpr int kRounds = 8;

// -- workloads ---------------------------------------------------------------

struct Spec {
    const char* name;
    std::uint64_t load_records;
    std::uint64_t insert_records;
    pgf::Method method;
    double query_ratio;       ///< query volume / domain volume
    bool centres_from_data;   ///< query centres at data points (skewed reuse)
    std::size_t node_pool_pages;  ///< 0 = every page of the node
    /// Frames of the file's own pool, used by the load, the serial oracle
    /// and the inserts: all pages on the serve workloads (so the oracle
    /// stays cheap), far fewer than the file on ingest-recover.
    std::size_t builder_pool_pages;
    double serve_share;       ///< share of --seconds per serve phase
    int setups_per_cycle;     ///< setups timed per cycle (the last serves)
    int recoveries_per_cycle;
    int min_cycles;           ///< cycles repeat until --seconds elapse
};

// Why each workload exists is recorded in BENCHMARK.json; the short form:
// serve-resident fits the node pools (translation, hand-off, decode),
// serve-paging is larger than them (miss path, page read, CRC), and
// ingest-recover spends its time on sort, load, WAL and replay.
const Spec kSpecs[] = {
    {"serve-resident", 180000, 10000, pgf::Method::kMinimax, 0.01, false, 0,
     2048, 0.45, 3, 2, 1},
    {"serve-paging", 1000000, 50000, pgf::Method::kHilbert, 0.0001, true,
     4096, 32768, 0.45, 3, 2, 1},
    {"ingest-recover", 1000000, 100000, pgf::Method::kHilbert, 0.0001, false,
     256, 256, 0.075, 2, 1, 2},
};

// -- arguments ---------------------------------------------------------------

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir;
    std::string out_dir;
    std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
    bool have_workload = false;
    bool have_workdir = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) return false;
        const std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
            have_workload = true;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
        } else if (k == "--seconds") {
            a.seconds = std::stod(v);
        } else if (k == "--trace") {
            if (v != "0" && v != "1") return false;
            a.trace = v == "1";
        } else if (k == "--workdir") {
            a.workdir = v;
            have_workdir = true;
        } else if (k == "--out") {
            a.out_dir = v;
        } else if (k == "--commit") {
            a.commit = v;
        } else {
            return false;
        }
    }
    return have_workload && have_workdir && a.seconds > 0.0;
}

// -- result bookkeeping ------------------------------------------------------

struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    void op(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) fail(what);
    }
    /// A failure of an operation already counted as attempted.
    void fail(const std::string& what) {
        ++failed;
        if (notes.size() < 20) notes.push_back(what);
    }
};

struct MetricOut {
    std::string name;
    double value;
    std::string unit;
};

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    std::ostringstream s;
    s << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
    return s.str();
}

double peak_rss_mb() {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

unsigned nproc() {
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1u;
}

/// "p99=1.23 (n=4000, highest supported p99.9)" — the percentile rule.
std::string describe(const std::vector<double>& v, const char* unit) {
    std::ostringstream s;
    s << std::fixed << std::setprecision(3) << "p50=" << percentile(v, 50)
      << unit << " p99=" << percentile(v, 99) << unit << " (n=" << v.size()
      << ", highest supported percentile p" << supported_percentile(v.size())
      << ")";
    return s.str();
}

// -- records -----------------------------------------------------------------

template <std::size_t D>
void sort_by_id(std::vector<GridRecord<D>>& r) {
    std::sort(r.begin(), r.end(),
              [](const GridRecord<D>& a, const GridRecord<D>& b) {
                  return a.id < b.id;
              });
}

/// Order-sensitive digest of an id-sorted record list (ids + coordinate
/// bits), so oracle comparisons need not keep every result.
template <std::size_t D>
std::uint64_t digest(const std::vector<GridRecord<D>>& sorted) {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ sorted.size();
    auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        h *= 0x100000001b3ULL;
    };
    for (const GridRecord<D>& r : sorted) {
        mix(r.id);
        for (std::size_t i = 0; i < D; ++i) {
            const double x = r.point[i];
            std::uint64_t bits = 0;
            std::memcpy(&bits, &x, sizeof bits);
            mix(bits);
        }
    }
    return h;
}

template <std::size_t D>
bool point_less(const Point<D>& a, const Point<D>& b) {
    for (std::size_t i = 0; i < D; ++i) {
        if (a[i] != b[i]) return a[i] < b[i];
    }
    return false;
}

// -- inputs ------------------------------------------------------------------

template <std::size_t D>
struct Inputs {
    Rect<D> domain{};
    std::size_t capacity = 0;
    std::vector<Point<D>> load;
    std::vector<Point<D>> inserts;  ///< insert_records + kCrashTail
};

template <std::size_t D>
Inputs<D> split_inputs(pgf::Dataset<D> ds, pgf::Rng& rng, const Spec& spec) {
    rng.shuffle(ds.points);
    Inputs<D> in;
    in.domain = ds.domain;
    in.capacity = ds.bucket_capacity;
    const auto n = static_cast<std::ptrdiff_t>(spec.load_records);
    in.load.assign(ds.points.begin(), ds.points.begin() + n);
    in.inserts.assign(ds.points.begin() + n, ds.points.end());
    return in;
}

Inputs<4> make_inputs4(const Spec& spec, std::uint64_t seed) {
    pgf::Rng rng(seed);
    constexpr std::size_t kSnapshots = 12;
    const std::uint64_t total =
        spec.load_records + spec.insert_records + kCrashTail;
    const std::size_t per = (total + kSnapshots - 1) / kSnapshots;
    return split_inputs<4>(pgf::make_dsmc4d(rng, kSnapshots, per), rng, spec);
}

Inputs<2> make_inputs2(const Spec& spec, std::uint64_t seed) {
    pgf::Rng rng(seed);
    const std::uint64_t total =
        spec.load_records + spec.insert_records + kCrashTail;
    pgf::Dataset<2> ds = std::string(spec.name) == "serve-paging"
                             ? pgf::make_hotspot2d(rng, total)
                             : pgf::make_uniform2d(rng, total);
    return split_inputs<2>(std::move(ds), rng, spec);
}

/// Square range queries of the spec's volume ratio; centres uniform over
/// the domain or drawn from the loaded points.
template <std::size_t D>
class QueryGen {
public:
    QueryGen(const Spec& spec, const Inputs<D>& in, std::uint64_t seed)
        : in_(in),
          from_data_(spec.centres_from_data),
          side_(pgf::query_side_fraction(spec.query_ratio, D)),
          rng_(seed ^ 0x51ed270b7a0f3c1dULL) {}

    Rect<D> next() {
        Point<D> c;
        if (from_data_) {
            c = in_.load[rng_.below(static_cast<std::uint32_t>(in_.load.size()))];
        } else {
            for (std::size_t i = 0; i < D; ++i) {
                c[i] = rng_.uniform(in_.domain.lo[i], in_.domain.hi[i]);
            }
        }
        Rect<D> q;
        for (std::size_t i = 0; i < D; ++i) {
            const double half = 0.5 * side_ * in_.domain.extent(i);
            q.lo[i] = c[i] - half;
            q.hi[i] = c[i] + half;
        }
        return q;
    }

    /// Deterministic brute-force sample: about one query in 48, at most
    /// kBruteMax per run.
    static bool sample(std::uint64_t index) {
        std::uint64_t h = (index + 1) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 29;
        return h % 48 == 0;
    }

private:
    const Inputs<D>& in_;
    bool from_data_;
    double side_;
    pgf::Rng rng_;
};

constexpr std::size_t kBruteMax = 48;
constexpr std::size_t kLogPerWindow = 20000;
/// Served queries kept before they are verified and dropped: a fixed
/// bound, so peak RSS does not depend on how fast the engine served.
constexpr std::size_t kVerifyEvery = 4096;

// -- per-run state -----------------------------------------------------------

/// Engine node-pool counters summed over the served batches.
struct PoolTotals {
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    void add(const BufferPool::Stats& s) {
        hits += s.hits;
        misses += s.misses;
        evictions += s.evictions;
    }
};

template <std::size_t D>
struct Served {
    Rect<D> q{};
    std::uint64_t digest = 0;
    double latency_ms = 0.0;
    int window = 1;
    bool traced = false;
    bool sampled = false;                 ///< checked by brute force too
    std::vector<Point<D>> sample_points;  ///< sorted served points if sampled
};

/// Per-query paper metrics, aggregated as they are computed.
struct PaperStats {
    std::uint64_t queries = 0, buckets = 0, node_max = 0, resp = 0;
    double over_opt = 0;
    std::uint64_t over_opt_n = 0;
    std::vector<std::uint64_t> resp_hist;  ///< queries per response time

    void add(std::uint32_t n_buckets, std::uint32_t resp_blocks,
             std::uint32_t node_max_blocks, std::uint32_t disks) {
        ++queries;
        buckets += n_buckets;
        node_max += node_max_blocks;
        resp += resp_blocks;
        if (resp_hist.size() <= resp_blocks) resp_hist.resize(resp_blocks + 1);
        ++resp_hist[resp_blocks];
        if (n_buckets > 0) {
            const double opt = std::ceil(static_cast<double>(n_buckets) / disks);
            over_opt += resp_blocks / opt;
            ++over_opt_n;
        }
    }
    double per_query(std::uint64_t total) const {
        return queries == 0 ? 0.0 : static_cast<double>(total) / queries;
    }
    /// Nearest-rank percentile of the response-time histogram.
    double resp_percentile(double p) const {
        const std::size_t rank =
            std::max<std::size_t>(1, nearest_rank(queries, p));
        std::uint64_t seen = 0;
        for (std::size_t r = 0; r < resp_hist.size(); ++r) {
            seen += resp_hist[r];
            if (seen >= rank) return static_cast<double>(r);
        }
        return 0.0;
    }
};

struct SetupTimes {
    double run_form_s = 0, bulk_load_s = 0, merge_s = 0, flush_s = 0,
           assign_s = 0, engine_s = 0, total_s = 0;
    pgf::extsort::ExtSortStats sort{};
};

struct IngestTimes {
    std::uint64_t inserts = 0;
    std::uint64_t splits = 0;
    std::uint64_t wal_records = 0, wal_bytes = 0, wal_flushes = 0;
    std::uint64_t device_writes = 0;
    std::uint64_t writebacks = 0;
};

struct Collected {
    std::vector<SetupTimes> setups;
    std::vector<double> load_rate;  ///< records/s per kept load
    // serving
    std::vector<double> solo_ms, solo_traced_ms, win4_ms;
    std::vector<double> win4_batch_wall_s;
    std::vector<double> win4_traced_batch_wall_s;
    PoolTotals pools;
    std::uint64_t served_after_warmup = 0;
    std::vector<double> overhead_us, submit_wait_us;
    PaperStats paper;
    std::uint64_t decoded = 0, returned = 0;
    // The paper metric beside latency, for the first kLogPerWindow queries
    // of each window (bounded, so peak RSS does not grow with speed).
    std::vector<std::tuple<int, double, std::uint32_t, std::uint32_t,
                           std::uint32_t>> query_log;
    std::size_t logged[2] = {0, 0};
    // ingest
    std::vector<IngestTimes> ingests;
    std::vector<double> insert_us, commit_us;
    std::vector<double> commit_group_s;  ///< wall time of each 1000 inserts
    // recovery
    std::vector<double> recover_s;
    std::vector<double> replay_s;
    pgf::ReplayStats replay{};
    double log_per_user = 0, file_per_user = 0;
};

// -- the workload driver -----------------------------------------------------

template <std::size_t D>
class Runner {
public:
    Runner(const Spec& spec, const Args& args, Inputs<D> inputs,
           Tracer& tracer, Tally& tally, unsigned sort_threads)
        : spec_(spec),
          args_(args),
          in_(std::move(inputs)),
          tracer_(tracer),
          tally_(tally),
          sort_threads_(sort_threads),
          gen_(spec, in_, args.seed) {}

    Collected run() {
        const auto t0 = Clock::now();
        for (int cycle = 0;; ++cycle) {
            run_cycle(cycle);
            if (cycle + 1 >= spec_.min_cycles &&
                since_s(t0) >= args_.seconds * 0.8) {
                break;
            }
            if (cycle + 1 >= 4 * spec_.min_cycles) break;
        }
        return std::move(c_);
    }

private:
    using Engine = pgf::QueryEngine<D>;
    using Query = typename Engine::Query;
    using Records = std::vector<GridRecord<D>>;

    struct Built {
        std::unique_ptr<pgf::FaultInjector> injector;
        std::unique_ptr<PagedGridFile<D>> gf;
        Assignment assignment;
        std::size_t node_pool_pages = 0;
        std::unique_ptr<Engine> engine;
        std::string data_path, wal_path;
    };

    std::string path(const std::string& leaf) const {
        return (fs::path(args_.workdir) / leaf).string();
    }

    typename PagedGridFile<D>::Config file_config(
        const std::string& wal_path, pgf::FaultInjector* injector) const {
        typename PagedGridFile<D>::Config cfg;
        cfg.page_size = pgf::PagedBucketStore<D>::page_size_for(in_.capacity);
        cfg.pool_pages = spec_.builder_pool_pages;
        cfg.wal_path = wal_path;
        cfg.fault_injector = injector;
        return cfg;
    }

    /// Times ExtSorter::next calls made by bulk_load_stream (the load's
    /// merge time) and records them as child spans.
    class TimedSource final : public pgf::PointSource<D> {
    public:
        TimedSource(pgf::PointSource<D>& inner, Tracer& t, std::int64_t parent,
                    std::uint64_t request)
            : inner_(inner), t_(t), parent_(parent), request_(request) {}
        std::size_t next(std::span<Point<D>> out) override {
            Tracer::Scope s(t_, "core.extsort.next", request_, parent_);
            const auto t0 = Clock::now();
            const std::size_t n = inner_.next(out);
            seconds += since_s(t0);
            return n;
        }
        double seconds = 0;

    private:
        pgf::PointSource<D>& inner_;
        Tracer& t_;
        std::int64_t parent_;
        std::uint64_t request_;
    };

    Built setup(std::uint64_t index) {
        Built b;
        b.data_path = path("data.pgf");
        b.wal_path = path("data.wal");
        SetupTimes st;
        Tracer::Scope root(tracer_, "setup", index);
        const auto t0 = Clock::now();
        b.injector = std::make_unique<pgf::FaultInjector>();
        {
            pgf::ThreadPool sort_pool(sort_threads_ - 1);
            pgf::extsort::ExtSortConfig scfg;
            scfg.chunk_records = kSortChunk;
            scfg.pool = &sort_pool;
            scfg.temp_dir = path("sort");
            fs::create_directories(scfg.temp_dir);
            pgf::VectorPointSource<D> src(in_.load);
            auto t = Clock::now();
            std::int64_t sp = tracer_.begin("core.extsort.run_form", index,
                                            root.id());
            pgf::extsort::ExtSorter<D> sorter(src, in_.domain, scfg);
            tracer_.end(sp);
            st.run_form_s = since_s(t);
            st.sort = sorter.stats();

            b.gf = std::make_unique<PagedGridFile<D>>(
                b.data_path, in_.domain,
                file_config(b.wal_path, b.injector.get()));
            t = Clock::now();
            sp = tracer_.begin("gridfile.bulk_load_stream", index, root.id());
            std::uint64_t loaded = 0;
            if (tracer_.enabled()) {
                TimedSource timed(sorter, tracer_, sp, index);
                loaded = b.gf->bulk_load_stream(timed);
                st.merge_s = timed.seconds;
            } else {
                loaded = b.gf->bulk_load_stream(sorter);
            }
            tracer_.end(sp);
            st.bulk_load_s = since_s(t);
            t = Clock::now();
            sp = tracer_.begin("storage.flush", index, root.id());
            b.gf->flush();
            tracer_.end(sp);
            st.flush_s = since_s(t);
            PGF_CHECK(loaded == in_.load.size(), "load lost records");
        }
        auto t = Clock::now();
        std::int64_t sp = tracer_.begin("decluster.assign", index, root.id());
        b.assignment = pgf::decluster(b.gf->structure(), spec_.method,
                                      kNodes * kDisksPerNode,
                                      {.seed = args_.seed});
        tracer_.end(sp);
        st.assign_s = since_s(t);

        b.node_pool_pages = spec_.node_pool_pages;
        if (b.node_pool_pages == 0) {  // resident: a node's every page
            std::vector<std::size_t> per_node(kNodes, 0);
            for (std::uint32_t d : b.assignment.disk_of) {
                ++per_node[d / kDisksPerNode];
            }
            b.node_pool_pages =
                *std::max_element(per_node.begin(), per_node.end());
        }
        pgf::ServingConfig cfg;
        cfg.nodes = kNodes;
        cfg.disks_per_node = kDisksPerNode;
        cfg.workers_per_node = kWorkersPerNode;
        cfg.pool_pages = b.node_pool_pages;
        cfg.concurrency = kWindow;
        t = Clock::now();
        sp = tracer_.begin("parallel.engine_start", index, root.id());
        b.engine = std::make_unique<Engine>(*b.gf, b.assignment, cfg);
        tracer_.end(sp);
        st.engine_s = since_s(t);
        st.total_s = since_s(t0);
        c_.setups.push_back(st);
        c_.load_rate.push_back(
            static_cast<double>(in_.load.size()) /
            (st.run_form_s + st.bulk_load_s + st.flush_s));
        return b;
    }

    static void remove_files(const Built& b) {
        std::error_code ec;
        fs::remove(b.data_path, ec);
        fs::remove(b.wal_path, ec);
    }

    void mark(const char* phase) const {
        std::cout << "# cycle phase " << phase << " done at " << std::fixed
                  << std::setprecision(2) << since_s(start_) << " s\n";
    }

    void run_cycle(int cycle) {
        Built b;
        for (int s = 0; s < spec_.setups_per_cycle; ++s) {
            if (b.gf) {
                b.engine.reset();
                b.gf.reset();
                remove_files(b);
            }
            b = setup(static_cast<std::uint64_t>(cycle) * 16 +
                      static_cast<std::uint64_t>(s));
        }
        mark("setup");
        serve(b);
        b.engine.reset();
        ingest(b, cycle);
        remove_files(b);
    }

    // -- serving ---------------------------------------------------------------

    /// Layer replay of one query through private node pools: translate,
    /// partition, and per node fetch/decode/filter, each a span; page reads
    /// and CRCs of the missed pages are timed directly afterwards.
    struct Replay {
        std::vector<std::unique_ptr<pgf::NodeBacking>> nodes;
        std::unique_ptr<pgf::PageFile> file;
        pgf::QueryScratch scratch;
        std::vector<std::uint32_t> buckets;
        Records page;
        std::vector<std::byte> raw;
    };

    double replay(Built& b, Replay& r, const Rect<D>& q, std::uint64_t req,
                  std::int64_t root) {
        auto sp = tracer_.begin("gridfile.translate", req, root);
        b.gf->query_buckets(q, r.scratch, r.buckets);
        tracer_.end(sp);
        const double translate_us = tracer_.duration_us(sp);
        sp = tracer_.begin("parallel.partition", req, root);
        auto per_node = pgf::partition_node_blocks(r.buckets, b.assignment,
                                                   kNodes, kDisksPerNode);
        tracer_.end(sp);
        const double partition_us = tracer_.duration_us(sp);
        double slowest_us = 0;
        std::vector<std::uint64_t> missed;
        Records out;
        for (std::uint32_t n = 0; n < kNodes; ++n) {
            if (per_node[n].empty()) continue;
            BufferPool& pool = r.nodes[n]->pool;
            const auto ns = tracer_.begin("parallel.node", req, root);
            for (std::uint32_t bucket : per_node[n]) {
                const std::uint64_t page = b.gf->bucket_page(bucket);
                const std::uint64_t m0 = pool.misses();
                auto f = tracer_.begin("storage.pool.fetch", req, ns);
                auto ref = pool.fetch(page);
                tracer_.end(f);
                if (pool.misses() != m0) {
                    tracer_.rename(f, "storage.pool.fetch_miss");
                    missed.push_back(page);
                } else {
                    tracer_.rename(f, "storage.pool.fetch_hit");
                }
                auto d = tracer_.begin("storage.decode", req, ns);
                PagedGridFile<D>::Store::decode_page(ref.data(), r.page);
                tracer_.end(d);
                auto fl = tracer_.begin("storage.filter", req, ns);
                for (const GridRecord<D>& rec : r.page) {
                    if (q.contains(rec.point)) out.push_back(rec);
                }
                tracer_.end(fl);
                c_.decoded += r.page.size();
            }
            tracer_.end(ns);
            slowest_us = std::max(slowest_us, tracer_.duration_us(ns));
        }
        c_.returned += out.size();
        r.raw.resize(r.file->page_size());
        for (std::uint64_t page : missed) {
            auto rd = tracer_.begin("storage.page_read", req, root);
            r.file->read(page, r.raw);
            tracer_.end(rd);
            auto cr = tracer_.begin("storage.crc", req, root);
            volatile std::uint32_t crc = pgf::crc32c(
                std::span<const std::byte>(r.raw).subspan(4));
            (void)crc;
            tracer_.end(cr);
        }
        return translate_us + partition_us + slowest_us;
    }

    void keep_sample(Served<D>& s, const Records& sorted) {
        s.sample_points.reserve(sorted.size());
        for (const auto& rec : sorted) s.sample_points.push_back(rec.point);
        std::sort(s.sample_points.begin(), s.sample_points.end(),
                  point_less<D>);
    }

    void record(const Rect<D>& q, Records result, double latency_ms,
                int window, bool traced) {
        sort_by_id(result);
        Served<D> s;
        s.q = q;
        s.digest = digest(result);
        s.latency_ms = latency_ms;
        s.window = window;
        s.traced = traced;
        if (brute_samples_ < kBruteMax && gen_.sample(served_count_)) {
            s.sampled = true;
            keep_sample(s, result);
            ++brute_samples_;
        }
        ++served_count_;
        served_.push_back(std::move(s));
    }

    /// Waits, after a batch, until the engine's dispatcher has let go of
    /// every query in it. QueryEngine::dispatch_loop reads a query's block
    /// lists for the nodes after the last one it hands the query to, so the
    /// query can complete, and the next run() free it, while the dispatcher
    /// still reads it (see "Known defect" in README.md). A query that
    /// touches no bucket completes on the dispatcher itself, which pops
    /// queries in order, so once it is drained no earlier query is held.
    /// Runs outside every timed window and adds no entry to a batch the
    /// benchmark reads.
    void settle(Built& b) {
        Rect<D> none = in_.domain;
        none.hi = none.lo;
        (void)b.engine->submit(none);
        b.engine->drain();
    }

    /// Window 1: one query in flight; latency is the engine's admit-to-
    /// completion time. With `traced`, each query is also replayed layer by
    /// layer and the engine's overhead over that critical path recorded.
    void window1(Built& b, double seconds, std::size_t need, bool traced,
                 Replay* rp) {
        std::vector<Query> one(1);
        const auto t0 = Clock::now();
        for (std::uint64_t n = 0;; ++n) {
            const double el = since_s(t0);
            if ((el >= seconds && n >= need) || el >= 3 * seconds + 5) {
                break;
            }
            const Rect<D> q = gen_.next();
            one[0] = q;
            const std::uint64_t req = served_count_;
            const auto root = traced ? tracer_.begin("query", req) : -1;
            const auto es =
                traced ? tracer_.begin("parallel.engine_run", req, root) : -1;
            auto out = b.engine->run(one);
            tracer_.end(es);
            const double lat = out.latencies_ms[0];
            for (const auto& s : out.report.node_pools) c_.pools.add(s);
            ++c_.served_after_warmup;
            if (traced) {
                const double critical_us = replay(b, *rp, q, req, root);
                c_.overhead_us.push_back(lat * 1e3 - critical_us);
                c_.solo_traced_ms.push_back(lat);
            } else {
                c_.solo_ms.push_back(lat);
            }
            tracer_.end(root);
            settle(b);
            record(q, std::move(out.results[0]), lat, 1, traced);
            if (served_.size() >= kVerifyEvery) verify_served(b);
        }
    }

    /// Window 4: batches of kBatch queries with four in flight. Traced
    /// batches submit by hand to time the blocking inside submit().
    void window4(Built& b, double seconds, std::size_t need, bool traced) {
        std::vector<Query> batch(kBatch);
        std::vector<Rect<D>> rects(kBatch);
        const auto t0 = Clock::now();
        std::uint64_t n = 0;
        for (;;) {
            const double el = since_s(t0);
            if ((el >= seconds && n >= need) || el >= 3 * seconds + 5) {
                break;
            }
            for (std::size_t i = 0; i < kBatch; ++i) {
                rects[i] = gen_.next();
                batch[i] = rects[i];
            }
            if (!traced) {
                auto out = b.engine->run(batch);
                settle(b);
                c_.win4_batch_wall_s.push_back(out.report.wall_s);
                for (const auto& s : out.report.node_pools) c_.pools.add(s);
                for (std::size_t i = 0; i < kBatch; ++i) {
                    c_.win4_ms.push_back(out.latencies_ms[i]);
                    record(rects[i], std::move(out.results[i]),
                           out.latencies_ms[i], 4, false);
                }
            } else {
                // An empty run resets the engine's batch state (tickets
                // restart at 0) and hands back the node pools' counters.
                auto reset = b.engine->run({});
                for (const auto& s : reset.report.node_pools) c_.pools.add(s);
                std::vector<std::size_t> tickets(kBatch);
                const auto w0 = Clock::now();
                for (std::size_t i = 0; i < kBatch; ++i) {
                    const auto sp = tracer_.begin("parallel.submit",
                                                  served_count_ + i);
                    tickets[i] = b.engine->submit(batch[i]);
                    tracer_.end(sp);
                    c_.submit_wait_us.push_back(tracer_.duration_us(sp));
                }
                b.engine->drain();
                c_.win4_traced_batch_wall_s.push_back(since_s(w0));
                settle(b);
                std::vector<Records> results(kBatch);
                for (std::size_t i = 0; i < kBatch; ++i) {
                    results[i] = b.engine->result(tickets[i]);
                }
                for (std::size_t i = 0; i < kBatch; ++i) {
                    record(rects[i], std::move(results[i]), 0.0, 4, true);
                }
            }
            c_.served_after_warmup += kBatch;
            n += kBatch;
            if (served_.size() >= kVerifyEvery) verify_served(b);
        }
        auto last = b.engine->run({});
        for (const auto& s : last.report.node_pools) c_.pools.add(s);
    }

    void serve(Built& b) {
        served_.reserve(kVerifyEvery + kBatch);
        c_.query_log.reserve(2 * kLogPerWindow);
        // Warm-up: a resident workload reads every page once through a
        // whole-domain query; a paging workload runs one batch of queries.
        std::unique_ptr<Replay> rp;
        if (args_.trace) {
            rp = std::make_unique<Replay>();
            for (std::uint32_t n = 0; n < kNodes; ++n) {
                rp->nodes.push_back(std::make_unique<pgf::NodeBacking>(
                    b.gf->path(), b.node_pool_pages));
            }
            rp->file = std::make_unique<pgf::PageFile>(
                pgf::PageFile::open(b.gf->path()));
        }
        {
            std::vector<Query> warm;
            if (spec_.node_pool_pages == 0) {
                warm.push_back(Query(in_.domain));
            } else {
                for (std::size_t i = 0; i < kBatch; ++i) {
                    warm.push_back(Query(gen_.next()));
                }
            }
            (void)b.engine->run(warm);
            settle(b);
            if (rp) {
                for (const Query& q : warm) {
                    const std::uint64_t req = 1u << 30;
                    const auto root = tracer_.begin("warmup", req);
                    (void)replay(b, *rp, std::get<Rect<D>>(q), req, root);
                    tracer_.end(root);
                }
                c_.decoded = c_.returned = 0;
            }
        }
        // The two windows alternate in kRounds slices, so both sample the
        // whole serve period rather than one noise regime each.
        const double slice = args_.seconds * spec_.serve_share / kRounds;
        const double part = args_.trace ? slice / 2 : slice;
        auto need = [](std::size_t have) {
            return have >= kMinLatencySamples ? 0 : kMinLatencySamples - have;
        };
        // Served queries are verified between queries or batches, outside
        // every timed window, and after each slice.
        for (int r = 0; r < kRounds; ++r) {
            const bool last = r + 1 == kRounds;
            window1(b, part, last ? need(c_.solo_ms.size()) : 0, false, nullptr);
            verify_served(b);
            if (args_.trace) {
                window1(b, part, last ? need(c_.solo_traced_ms.size()) : 0,
                        true, rp.get());
                verify_served(b);
            }
            window4(b, part, last ? need(c_.win4_ms.size()) : 0, false);
            verify_served(b);
            if (args_.trace) {
                window4(b, part, last ? need(c_.submit_wait_us.size()) : 0,
                        true);
                verify_served(b);
            }
        }
        mark("serve");
    }

    /// Oracle checks (outside every timed window) plus the paper metric of
    /// each served query.
    void verify_served(Built& b) {
        pgf::QueryScratch scratch;
        Records out;
        std::vector<std::uint32_t> buckets;
        pgf::ResponseAccumulator acc;
        for (const Served<D>& s : served_) {
            b.gf->query_records(s.q, scratch, out);
            sort_by_id(out);
            bool ok = digest(out) == s.digest;
            if (s.sampled) {
                // Brute force over every loaded point.
                std::vector<Point<D>> brute;
                for (const Point<D>& p : in_.load) {
                    if (s.q.contains(p)) brute.push_back(p);
                }
                std::sort(brute.begin(), brute.end(), point_less<D>);
                ok = ok && brute == s.sample_points;
            }
            tally_.op(ok, "served query differs from the serial/brute-force "
                          "oracle (window " + std::to_string(s.window) + ")");

            b.gf->query_buckets(s.q, scratch, buckets);
            const auto n_buckets = static_cast<std::uint32_t>(buckets.size());
            const std::uint32_t resp = acc.response_time(buckets, b.assignment);
            std::uint32_t node_max = 0;
            for (const auto& nb : pgf::partition_node_blocks(
                     buckets, b.assignment, kNodes, kDisksPerNode)) {
                node_max = std::max<std::uint32_t>(
                    node_max, static_cast<std::uint32_t>(nb.size()));
            }
            c_.paper.add(n_buckets, resp, node_max, kNodes * kDisksPerNode);
            std::size_t& logged = c_.logged[s.window == 1 ? 0 : 1];
            if ((!s.traced || s.window == 1) && logged < kLogPerWindow) {
                ++logged;
                c_.query_log.emplace_back(s.window, s.latency_ms, n_buckets,
                                          resp, node_max);
            }
        }
        served_.clear();
    }

    // -- ingest and recovery -------------------------------------------------

    void ingest(Built& b, int cycle) {
        PagedGridFile<D>& gf = *b.gf;
        pgf::WriteAheadLog& wal = *gf.wal();
        IngestTimes it;
        const auto wal0 = wal.stats();
        const std::uint64_t ops0 = b.injector->ops_seen();
        const std::uint64_t wb0 = gf.pool().writebacks();
        const std::size_t buckets0 = gf.bucket_count();
        const std::uint64_t n_load = in_.load.size();
        const std::uint64_t n_ins = spec_.insert_records;
        const std::uint64_t req0 = static_cast<std::uint64_t>(cycle) << 32;

        std::uint64_t acked = 0;
        std::uint64_t k = 0;
        bool ok = true;
        auto group_start = Clock::now();
        try {
            for (; k < n_ins; ++k) {
                const auto sp = tracer_.begin("gridfile.insert", req0 + k);
                const auto ti = Clock::now();
                gf.insert(in_.inserts[k], n_load + k);
                c_.insert_us.push_back(since_s(ti) * 1e6);
                tracer_.end(sp);
                if ((k + 1) % kCommitEvery == 0) {
                    const auto cs = tracer_.begin("storage.wal.commit", req0 + k);
                    const auto tc = Clock::now();
                    wal.flush();
                    c_.commit_us.push_back(since_s(tc) * 1e6);
                    tracer_.end(cs);
                    acked = k + 1;
                    c_.commit_group_s.push_back(since_s(group_start));
                    group_start = Clock::now();
                }
            }
        } catch (const std::exception& e) {
            ok = false;
            tally_.fail(std::string("insert failed: ") + e.what());
        }
        it.inserts = k;
        tally_.attempted += ok ? k : k + 1;
        it.splits = gf.bucket_count() - buckets0;
        const auto wal1 = wal.stats();
        it.wal_records = wal1.records - wal0.records;
        it.wal_bytes = wal1.bytes - wal0.bytes;
        it.wal_flushes = wal1.flushes - wal0.flushes;
        it.device_writes = b.injector->ops_seen() - ops0;
        it.writebacks = gf.pool().writebacks() - wb0;
        c_.ingests.push_back(it);
        if (!ok) return;

        // Crash after the last group commit, at the next injectable write.
        b.injector->arm(0);
        bool crashed = false;
        std::uint64_t attempted_inserts = k;
        try {
            for (; k < in_.inserts.size(); ++k) {
                attempted_inserts = k + 1;
                gf.insert(in_.inserts[k], n_load + k);
            }
            wal.flush();
        } catch (const pgf::CrashError&) {
            crashed = true;
        }
        tally_.op(crashed, "armed fault injector never crashed");
        b.gf.reset();  // the "dead process" releases its (poisoned) files
        mark("ingest");
        if (!crashed) return;

        const std::string crash_data = path("crash.pgf");
        const std::string crash_wal = path("crash.wal");
        fs::copy_file(b.data_path, crash_data,
                      fs::copy_options::overwrite_existing);
        fs::copy_file(b.wal_path, crash_wal,
                      fs::copy_options::overwrite_existing);
        const std::string rec_data = path("recover.pgf");
        const std::string rec_wal = path("recover.wal");

        if (args_.trace) {
            fs::copy_file(crash_data, rec_data,
                          fs::copy_options::overwrite_existing);
            fs::copy_file(crash_wal, rec_wal,
                          fs::copy_options::overwrite_existing);
            const auto sp = tracer_.begin("storage.recovery.replay", req0);
            const auto t = Clock::now();
            auto rg = pgf::replay_wal<D>(rec_data, rec_wal);
            c_.replay_s.push_back(since_s(t));
            tracer_.end(sp);
            c_.replay = rg.stats;
        }

        for (int r = 0; r < spec_.recoveries_per_cycle; ++r) {
            fs::copy_file(crash_data, rec_data,
                          fs::copy_options::overwrite_existing);
            fs::copy_file(crash_wal, rec_wal,
                          fs::copy_options::overwrite_existing);
            auto cfg = file_config(rec_wal, nullptr);
            bool good = false;
            try {
                const auto sp = tracer_.begin("recover.reopen", req0 + r);
                const auto t = Clock::now();
                PagedGridFile<D> rec(typename PagedGridFile<D>::RecoverTag{},
                                     rec_data, cfg);
                c_.recover_s.push_back(since_s(t));
                tracer_.end(sp);
                good = check_recovered(rec, acked, attempted_inserts);
                if (good && r == 0) {
                    const double user = static_cast<double>(
                        rec.record_count() * (D + 1) * 8);
                    c_.log_per_user =
                        static_cast<double>(fs::file_size(rec_wal)) / user;
                    c_.file_per_user =
                        static_cast<double>(fs::file_size(rec_data)) / user;
                }
            } catch (const std::exception& e) {
                tally_.notes.push_back(std::string("recovery threw: ") +
                                       e.what());
            }
            tally_.op(good, "recovered file failed its audit or durability "
                            "check");
        }
        mark("recover");
        std::error_code ec;
        for (const auto& p : {crash_data, crash_wal, rec_data, rec_wal}) {
            fs::remove(p, ec);
        }
    }

    /// Deep audit plus the durability rule: the recovered records are the
    /// whole load and exactly the first P inserts, with acked <= P.
    bool check_recovered(const PagedGridFile<D>& rec, std::uint64_t acked,
                         std::uint64_t attempted) {
        const auto report = pgf::analysis::audit_paged_grid_file(
            rec, pgf::analysis::ValidationLevel::kDeep);
        if (!report.ok()) {
            tally_.notes.push_back("audit: " + report.summary(3));
            return false;
        }
        const std::uint64_t n_load = in_.load.size();
        std::vector<char> seen_load(n_load, 0);
        std::vector<char> seen_ins(attempted, 0);
        for (std::uint32_t bkt = 0; bkt < rec.bucket_count(); ++bkt) {
            for (const GridRecord<D>& r : rec.bucket_records(bkt)) {
                if (r.id < n_load) {
                    if (seen_load[r.id]++) return false;
                    continue;
                }
                const std::uint64_t k = r.id - n_load;
                if (k >= attempted || seen_ins[k]++) return false;
                if (!(r.point == in_.inserts[k])) return false;
            }
        }
        for (char s : seen_load) {
            if (!s) return false;
        }
        std::uint64_t prefix = 0;
        while (prefix < attempted && seen_ins[prefix]) ++prefix;
        for (std::uint64_t k = prefix; k < attempted; ++k) {
            if (seen_ins[k]) return false;  // a gap: not a prefix
        }
        return prefix >= acked && rec.record_count() == n_load + prefix;
    }

    const Spec& spec_;
    const Args& args_;
    Inputs<D> in_;
    Tracer& tracer_;
    Tally& tally_;
    unsigned sort_threads_;
    QueryGen<D> gen_;
    Collected c_;
    std::vector<Served<D>> served_;  ///< served since the last verify
    std::uint64_t served_count_ = 0;
    std::size_t brute_samples_ = 0;
    Clock::time_point start_ = Clock::now();
};

// -- reporting -----------------------------------------------------------------

std::vector<double> setup_field(const Collected& c,
                                double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : c.setups) v.push_back(s.*field);
    return v;
}

void print_resp_table(const Collected& c) {
    // Latency grouped by the paper's response time in blocks.
    const std::uint32_t edges[] = {1, 2, 4, 8, 16, 32, 64, 128, 256,
                                   std::numeric_limits<std::uint32_t>::max()};
    std::cout << "# latency by response blocks max_i N_i(q)\n"
              << "#   resp_blocks   w1_n  w1_p50_ms   w4_n  w4_p50_ms\n";
    std::uint32_t lo = 0;
    for (std::uint32_t hi : edges) {
        std::vector<double> w1, w4;
        for (const auto& [win, lat, bk, resp, nmax] : c.query_log) {
            (void)bk;
            (void)nmax;
            if (resp < lo || resp > hi) continue;
            (win == 1 ? w1 : w4).push_back(lat);
        }
        if (!w1.empty() || !w4.empty()) {
            std::ostringstream range;
            range << lo << "-"
                  << (hi == std::numeric_limits<std::uint32_t>::max()
                          ? std::string("inf")
                          : std::to_string(hi));
            std::cout << "#   " << std::setw(11) << range.str() << std::setw(7)
                      << w1.size() << std::setw(11) << std::fixed
                      << std::setprecision(3) << median(w1) << std::setw(7)
                      << w4.size() << std::setw(11) << median(w4) << "\n";
        }
        lo = hi + 1;
    }
}

void write_query_log(const Collected& c, const std::string& file) {
    std::ofstream out(file);
    out << "window,latency_ms,buckets,resp_blocks,node_max_blocks\n";
    for (const auto& [win, lat, bk, resp, nmax] : c.query_log) {
        out << win << ',' << std::setprecision(9) << lat << ',' << bk << ','
            << resp << ',' << nmax << '\n';
    }
}

/// Chunks a run's timings are judged by. Host interference (vCPU steal,
/// busy SMT siblings) comes in bursts that move whole stretches of a run,
/// so each timing is summarised per chunk and the run is judged by its
/// calmer chunks: the lower quartile of the chunk latencies, the upper
/// quartile of the chunk rates. The lowest chunk alone (the minimum
/// estimator of Chen & Revels, "Robust benchmarking in noisy environments",
/// 2016) hangs on one lucky stretch and spread up to twice as wide across
/// runs. Capping the chunk count keeps the estimator's bias equal across
/// runs of different speed once a run has kChunks * kMinLatencySamples
/// samples.
constexpr std::size_t kChunks = 64;

/// Splits `v` into at most kChunks consecutive chunks of equal size, each
/// with at least kMinLatencySamples samples (one chunk when fewer).
std::vector<std::vector<double>> chunks_of(const std::vector<double>& v) {
    const std::size_t n = v.size();
    const std::size_t k = std::clamp<std::size_t>(n / kMinLatencySamples, 1, kChunks);
    std::vector<std::vector<double>> out;
    for (std::size_t i = 0; i < k; ++i) {
        out.emplace_back(v.begin() + static_cast<std::ptrdiff_t>(i * n / k),
                         v.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / k));
    }
    return out;
}

/// Percentile `p` of each chunk of `v`.
std::vector<double> chunk_percentiles(const std::vector<double>& v, double p) {
    std::vector<double> out;
    for (const auto& c : chunks_of(v)) out.push_back(percentile(c, p));
    return out;
}

/// Lower quartile of the chunk percentiles.
double calm_percentile(const std::vector<double>& v, double p) {
    return percentile(chunk_percentiles(v, p), 25);
}

/// Upper quartile of the rates of at most kChunks groups of consecutive
/// intervals, each group's rate being its units over its summed seconds.
double calm_rate(const std::vector<double>& seconds, double units_each) {
    const std::size_t n = seconds.size();
    const std::size_t k = std::min(n, kChunks);
    std::vector<double> rates;
    for (std::size_t i = 0; i < k; ++i) {
        double wall = 0.0;
        const std::size_t lo = i * n / k, hi = (i + 1) * n / k;
        for (std::size_t j = lo; j < hi; ++j) wall += seconds[j];
        rates.push_back(static_cast<double>(hi - lo) * units_each / wall);
    }
    return percentile(rates, 75);
}

double min_of(const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double max_of(const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::string join(const std::vector<double>& v) {
    std::ostringstream s;
    s << std::setprecision(4);
    for (double x : v) s << x << ' ';
    return s.str();
}

std::vector<MetricOut> end_to_end(const Collected& c) {
    return {
        {"setup_s", median(setup_field(c, &SetupTimes::total_s)), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"solo_p50_ms", calm_percentile(c.solo_ms, 50), "ms"},
        {"qps", calm_rate(c.win4_batch_wall_s, static_cast<double>(kBatch)), "1/s"},
        {"p50_ms", calm_percentile(c.win4_ms, 50), "ms"},
        {"load_rec_per_s", max_of(c.load_rate), "1/s"},
        {"insert_rec_per_s",
         calm_rate(c.commit_group_s, static_cast<double>(kCommitEvery)), "1/s"},
        // Pooled, not per chunk: WAL auto-flushes put a second mode near
        // the 99th percentile, and a chunk statistic flips between modes.
        {"insert_p99_us", percentile(c.insert_us, 99), "us"},
        {"recover_s", min_of(c.recover_s), "s"},
        {"log_bytes_per_user_byte", c.log_per_user, "B/B"},
        {"file_bytes_per_user_byte", c.file_per_user, "B/B"},
    };
}

std::vector<MetricOut> per_layer(const Collected& c, const Tracer& t) {
    auto us = [&t](const char* name) { return t.durations_us(name); };
    // gridfile.bulk_load_self_s: time in bulk_load_stream minus the time
    // inside the sorter's next (its child spans).
    const auto self = self_times_ns(t.spans());
    std::vector<double> bulk_self;
    for (std::size_t i = 0; i < t.spans().size(); ++i) {
        if (std::string(t.spans()[i].name) == "gridfile.bulk_load_stream") {
            bulk_self.push_back(static_cast<double>(self[i]) / 1e9);
        }
    }
    const IngestTimes& it = c.ingests.front();
    const double pool_accesses =
        static_cast<double>(c.pools.hits + c.pools.misses);
    const double served = static_cast<double>(c.served_after_warmup);
    // Tracing overhead: traced over untraced, same estimators as end_to_end.
    const double solo_ratio = calm_percentile(c.solo_traced_ms, 50) /
                              calm_percentile(c.solo_ms, 50);
    const double qps_ratio =
        calm_rate(c.win4_traced_batch_wall_s, static_cast<double>(kBatch)) /
        calm_rate(c.win4_batch_wall_s, static_cast<double>(kBatch));
    const SetupTimes& s0 = c.setups.front();
    const double decode_yield =
        c.decoded == 0 ? 0.0
                       : static_cast<double>(c.returned) /
                             static_cast<double>(c.decoded);
    return {
        {"gridfile.translate_us.p50", percentile(us("gridfile.translate"), 50), "us"},
        {"gridfile.translate_us.p99", percentile(us("gridfile.translate"), 99), "us"},
        {"gridfile.buckets_per_query", c.paper.per_query(c.paper.buckets), "count"},
        {"gridfile.bulk_load_self_s", median(bulk_self), "s"},
        {"gridfile.insert_us.p50", percentile(us("gridfile.insert"), 50), "us"},
        {"gridfile.insert_us.p99", percentile(us("gridfile.insert"), 99), "us"},
        {"gridfile.splits_per_kinsert",
         1000.0 * static_cast<double>(it.splits) / static_cast<double>(it.inserts),
         "count"},
        {"decluster.assign_s", median(setup_field(c, &SetupTimes::assign_s)), "s"},
        {"disksim.resp_blocks.mean", c.paper.per_query(c.paper.resp), "blocks"},
        {"disksim.resp_blocks.p99", c.paper.resp_percentile(99), "blocks"},
        {"disksim.resp_over_opt",
         c.paper.over_opt_n == 0 ? 0.0 : c.paper.over_opt / c.paper.over_opt_n, "x"},
        {"parallel.node_max_blocks", c.paper.per_query(c.paper.node_max), "blocks"},
        {"parallel.partition_us", percentile(us("parallel.partition"), 50), "us"},
        {"parallel.submit_wait_us.p50", percentile(c.submit_wait_us, 50), "us"},
        {"parallel.submit_wait_us.p99", percentile(c.submit_wait_us, 99), "us"},
        {"parallel.overhead_us.p50", percentile(c.overhead_us, 50), "us"},
        {"parallel.overhead_us.p99", percentile(c.overhead_us, 99), "us"},
        {"storage.pool.hit_rate",
         pool_accesses == 0 ? 0.0 : static_cast<double>(c.pools.hits) / pool_accesses,
         "ratio"},
        {"storage.pool.misses_per_query",
         static_cast<double>(c.pools.misses) / served, "count"},
        {"storage.pool.evictions_per_query",
         static_cast<double>(c.pools.evictions) / served, "count"},
        {"storage.pool.writebacks", static_cast<double>(it.writebacks), "count"},
        {"storage.pool.fetch_hit_us",
         percentile(us("storage.pool.fetch_hit"), 50), "us"},
        {"storage.pool.fetch_miss_us",
         percentile(us("storage.pool.fetch_miss"), 50), "us"},
        {"storage.page_read_us", percentile(us("storage.page_read"), 50), "us"},
        {"storage.crc_us", percentile(us("storage.crc"), 50), "us"},
        {"storage.decode_us", percentile(us("storage.decode"), 50), "us"},
        {"storage.decode_yield", decode_yield, "ratio"},
        {"storage.wal.records", static_cast<double>(it.wal_records), "count"},
        {"storage.wal.bytes", static_cast<double>(it.wal_bytes), "B"},
        {"storage.wal.flushes", static_cast<double>(it.wal_flushes), "count"},
        {"storage.wal.commit_us.p50", percentile(c.commit_us, 50), "us"},
        {"storage.wal.commit_us.p99", percentile(c.commit_us, 99), "us"},
        {"storage.device_writes", static_cast<double>(it.device_writes), "count"},
        {"storage.flush_s", median(setup_field(c, &SetupTimes::flush_s)), "s"},
        {"storage.recovery.wal_records", static_cast<double>(c.replay.wal_records),
         "count"},
        {"storage.recovery.pages_replayed",
         static_cast<double>(c.replay.pages_replayed), "count"},
        {"storage.recovery.pages_skipped",
         static_cast<double>(c.replay.pages_skipped), "count"},
        {"storage.recovery.replay_s", median(c.replay_s), "s"},
        {"core.extsort.run_form_s", median(setup_field(c, &SetupTimes::run_form_s)),
         "s"},
        {"core.extsort.merge_s", median(setup_field(c, &SetupTimes::merge_s)), "s"},
        {"core.extsort.spill_bytes", static_cast<double>(s0.sort.spill_bytes), "B"},
        {"core.extsort.runs", static_cast<double>(s0.sort.initial_runs), "count"},
        {"core.extsort.merge_passes", static_cast<double>(s0.sort.merge_passes),
         "count"},
        {"trace.solo_p50_ratio", solo_ratio, "x"},
        {"trace.qps_ratio", qps_ratio, "x"},
    };
}

template <std::size_t D>
int run_workload(const Spec& spec, const Args& args, Inputs<D> inputs,
                 unsigned sort_threads) {
    Tracer tracer(args.trace);
    Tally tally;
    Runner<D> runner(spec, args, std::move(inputs), tracer, tally,
                     sort_threads);
    const Collected c = runner.run();

    const std::vector<MetricOut> e2e = end_to_end(c);
    std::cout << "# setups=" << c.setups.size() << " cycles="
              << c.ingests.size() << " served=" << c.served_after_warmup
              << " inserts=" << c.insert_us.size()
              << " recoveries=" << c.recover_s.size() << "\n";
    // Tail latencies of the serving windows are printed, not gated: on a
    // shared VM their run-to-run spread exceeds any usable bound.
    std::cout << "# solo (window 1) " << describe(c.solo_ms, "ms")
              << "; calm p99=" << json_number(calm_percentile(c.solo_ms, 99)) << "ms\n"
              << "# window 4        " << describe(c.win4_ms, "ms")
              << "; calm p99=" << json_number(calm_percentile(c.win4_ms, 99)) << "ms\n"
              << "# insert          " << describe(c.insert_us, "us") << "\n";
    std::cout << "# solo p50 per chunk: " << join(chunk_percentiles(c.solo_ms, 50))
              << "\n# solo p99 per chunk: " << join(chunk_percentiles(c.solo_ms, 99))
              << "\n# window-4 p99 per chunk: " << join(chunk_percentiles(c.win4_ms, 99))
              << "\n";
    std::cout << std::setprecision(4) << "# setup medians (s): run_form="
              << median(setup_field(c, &SetupTimes::run_form_s)) << " bulk_load="
              << median(setup_field(c, &SetupTimes::bulk_load_s)) << " flush="
              << median(setup_field(c, &SetupTimes::flush_s)) << " assign="
              << median(setup_field(c, &SetupTimes::assign_s)) << " engine="
              << median(setup_field(c, &SetupTimes::engine_s)) << "\n";
    print_resp_table(c);
    std::cout << "# failed_frac=" << json_number(
                     tally.attempted == 0
                         ? 1.0
                         : static_cast<double>(tally.failed) /
                               static_cast<double>(tally.attempted))
              << " (" << tally.failed << " of " << tally.attempted << ")\n";
    for (const std::string& n : tally.notes) std::cout << "# FAIL " << n << "\n";

    std::vector<MetricOut> shown = e2e;
    if (args.trace) {
        shown = per_layer(c, tracer);
        for (const MetricOut& m : e2e) {
            std::cout << "# e2e " << m.name << "=" << json_number(m.value)
                      << " " << m.unit << "\n";
        }
        std::cout << "# spans=" << tracer.spans().size()
                  << " dropped=" << tracer.dropped() << "\n";
    }
    if (!args.out_dir.empty()) {
        fs::create_directories(args.out_dir);
        // One file per workload and mode: later runs overwrite earlier ones.
        const std::string stem =
            spec.name + std::string(args.trace ? "-trace" : "");
        write_query_log(c, (fs::path(args.out_dir) / ("queries-" + stem + ".csv"))
                               .string());
        if (args.trace) {
            tracer.write_csv(
                (fs::path(args.out_dir) / ("spans-" + stem + ".csv")).string());
        }
    }
    for (const MetricOut& m : shown) {
        std::cout << "# " << m.name << " = " << json_number(m.value) << " "
                  << m.unit << "\n";
    }
    const bool correct = tally.failed == 0 && tally.attempted > 0;
    std::ostringstream js;
    js << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < shown.size(); ++i) {
        js << (i ? ", " : "") << "\"" << shown[i].name << "\": {\"value\": "
           << json_number(shown[i].value) << ", \"unit\": \"" << shown[i].unit
           << "\"}";
    }
    js << "}}";
    std::cout << js.str() << std::endl;
    return correct ? 0 : 1;
}

int main_impl(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds "
                     "<s> --trace <0|1> --workdir <dir> [--out <dir>] "
                     "[--commit <sha>]\n";
        return 2;
    }
    const Spec* spec = nullptr;
    for (const Spec& s : kSpecs) {
        if (args.workload == s.name) spec = &s;
    }
    if (spec == nullptr) {
        std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
        return 2;
    }
    // Thread budget: the engine's node teams and dispatcher plus the
    // submitting thread, and separately the sort pool plus its caller,
    // must each fit the machine.
    const unsigned cores = nproc();
    const unsigned sort_threads = std::min(cores, 4u);
    if (kServeThreads > cores) {
        std::cerr << "perfbench: serving needs " << kServeThreads
                  << " threads (" << kNodes << " nodes x " << kWorkersPerNode
                  << " worker + dispatcher + submitter) but nproc = " << cores
                  << "\n";
        return 2;
    }
    fs::create_directories(args.workdir);
    std::cout << "# perfbench workload=" << spec->name << " seed=" << args.seed
              << " seconds=" << args.seconds << " trace=" << args.trace
              << "\n# nproc=" << cores << " build=" << PERFBENCH_BUILD_TYPE
              << " compiler=" << PERFBENCH_COMPILER << " commit=" << args.commit
              << "\n# threads: serve=" << kServeThreads << " (" << kNodes
              << " nodes x " << kWorkersPerNode
              << " worker + dispatcher + submitter), sort=" << sort_threads
              << " (ExtSorter pool + caller), disks M="
              << kNodes * kDisksPerNode << "\n";
    if (std::string(spec->name) == "serve-resident") {
        return run_workload<4>(*spec, args, make_inputs4(*spec, args.seed),
                               sort_threads);
    }
    return run_workload<2>(*spec, args, make_inputs2(*spec, args.seed),
                           sort_threads);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::main_impl(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
