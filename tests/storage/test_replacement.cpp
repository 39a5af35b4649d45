// Replacement-policy unit tests.
//
// The load-bearing test is the golden trace: the default-config pool must
// reproduce the *exact* eviction/writeback sequence of the historical
// built-in LRU pool (modeled here verbatim from the pre-policy
// implementation) on a randomized fetch/mark-dirty trace — resident set
// and all four counters compared after every operation. The policy
// refactor is allowed to change nothing for existing callers.
//
// The LRU-K / CLOCK / LFU tests script small access sequences against the
// Replacer interface directly and assert the victim choices the
// literature prescribes; the prefetch tests drive BufferPool::prefetch
// and check the first-eviction class, the no-self-cannibalization cap,
// and the counter protocol.
#include "pgf/storage/replacement.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <unordered_map>
#include <vector>

#include "pgf/storage/buffer_pool.hpp"
#include "pgf/storage/page_file.hpp"
#include "pgf/util/rng.hpp"
#include "temp_path.hpp"

namespace pgf {
namespace {

TEST(ReplacementPolicyTag, RoundTripsAndAliases) {
    for (ReplacementPolicy p :
         {ReplacementPolicy::kLru, ReplacementPolicy::kLruK,
          ReplacementPolicy::kClock, ReplacementPolicy::kLfu}) {
        auto parsed = parse_policy(to_string(p));
        ASSERT_TRUE(parsed.has_value()) << to_string(p);
        EXPECT_EQ(*parsed, p);
    }
    EXPECT_EQ(parse_policy("lruk"), ReplacementPolicy::kLruK);
    EXPECT_EQ(parse_policy("lru2"), ReplacementPolicy::kLruK);
    EXPECT_FALSE(parse_policy("2q").has_value());  // removed policy
    EXPECT_FALSE(parse_policy("mru").has_value());
    EXPECT_FALSE(parse_policy("").has_value());
}

// ------------------------------------------------- golden LRU trace --

/// Verbatim model of the pre-policy BufferPool: free-frame-first scan,
/// then minimum last_use among unpinned frames; last_use = ++clock_ on
/// hit, miss fill and allocate; writeback on dirty eviction. The trace
/// below keeps pins at zero (fetch-and-release), so pin handling needs no
/// modeling.
class HistoricalLruPool {
public:
    explicit HistoricalLruPool(std::size_t capacity) : frames_(capacity) {}

    void fetch(std::uint64_t id, bool dirty) {
        auto it = table_.find(id);
        if (it != table_.end()) {
            ++hits;
            frames_[it->second].last_use = ++clock_;
            frames_[it->second].dirty |= dirty;
            return;
        }
        ++misses;
        std::size_t frame = grab_frame();
        Frame& f = frames_[frame];
        f.page = id;
        f.last_use = ++clock_;
        f.dirty = dirty;
        f.in_use = true;
        table_[id] = frame;
    }

    std::vector<std::uint64_t> resident() const {
        std::vector<std::uint64_t> pages;
        for (const auto& [page, frame] : table_) pages.push_back(page);
        std::sort(pages.begin(), pages.end());
        return pages;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

private:
    struct Frame {
        std::uint64_t page = 0;
        std::uint64_t last_use = 0;
        bool dirty = false;
        bool in_use = false;
    };

    std::size_t grab_frame() {
        for (std::size_t i = 0; i < frames_.size(); ++i) {
            if (!frames_[i].in_use) return i;
        }
        std::size_t victim = frames_.size();
        for (std::size_t i = 0; i < frames_.size(); ++i) {
            if (victim == frames_.size() ||
                frames_[i].last_use < frames_[victim].last_use) {
                victim = i;
            }
        }
        if (frames_[victim].dirty) ++writebacks;
        table_.erase(frames_[victim].page);
        frames_[victim].in_use = false;
        frames_[victim].dirty = false;
        ++evictions;
        return victim;
    }

    std::vector<Frame> frames_;
    std::unordered_map<std::uint64_t, std::size_t> table_;
    std::uint64_t clock_ = 0;
};

TEST(GoldenLruTrace, DefaultPoolMatchesHistoricalEvictionSequence) {
    const auto path = test::unique_temp_path("pgf_replacement_golden");
    constexpr std::size_t kCapacity = 4;
    constexpr std::uint32_t kPages = 11;
    constexpr int kOps = 3000;
    {
        auto pf = PageFile::create(path.string(), 64);
        for (std::uint64_t p = 0; p < kPages; ++p) pf.allocate();

        BufferPool pool(pf, kCapacity);  // default config == historical LRU
        HistoricalLruPool model(kCapacity);
        Rng rng(20240807);
        for (int op = 0; op < kOps; ++op) {
            // Mild skew so hits, misses and dirty evictions all occur.
            const std::uint64_t id = rng.below(2) == 0
                                         ? rng.below(3)
                                         : rng.below(kPages);
            const bool dirty = rng.below(4) == 0;
            {
                auto ref = pool.fetch(id);
                if (dirty) ref.mark_dirty();
            }
            model.fetch(id, dirty);
            ASSERT_EQ(pool.resident_pages(), model.resident())
                << "resident set diverged at op " << op;
        }
        EXPECT_EQ(pool.hits(), model.hits);
        EXPECT_EQ(pool.misses(), model.misses);
        EXPECT_EQ(pool.evictions(), model.evictions);
        EXPECT_EQ(pool.writebacks(), model.writebacks);
        EXPECT_EQ(pool.prefetch_issued(), 0u);
        EXPECT_EQ(pool.prefetch_hits(), 0u);
    }
    std::filesystem::remove(path);
}

// --------------------------------------------- policy victim scripts --

/// Drives a Replacer directly (holding a latch, as the pool would) and
/// returns victim() over an all-evictable mask of `capacity` frames.
class ReplacerScript {
public:
    explicit ReplacerScript(std::unique_ptr<Replacer> policy,
                            std::size_t capacity)
        : policy_(std::move(policy)), evictable_(capacity, true) {}

    void insert(std::size_t frame, std::uint64_t page) {
        MutexLock lock(latch_);
        policy_->on_insert(frame, page, latch_);
    }
    void access(std::size_t frame) {
        MutexLock lock(latch_);
        policy_->on_access(frame, latch_);
    }
    std::size_t victim() {
        MutexLock lock(latch_);
        return policy_->victim(EvictableView(evictable_), latch_);
    }
    /// victim() with only `allowed` eligible.
    std::size_t victim_among(const std::vector<bool>& allowed) {
        MutexLock lock(latch_);
        return policy_->victim(EvictableView(allowed), latch_);
    }
    void evict(std::size_t frame, std::uint64_t page) {
        MutexLock lock(latch_);
        policy_->on_evict(frame, page, latch_);
    }

private:
    Mutex latch_;
    std::unique_ptr<Replacer> policy_;
    std::vector<bool> evictable_;
};

TEST(LruKReplacer, InfiniteDistanceFramesGoFirstThenOldestKth) {
    ReplacerScript s(
        make_replacer({ReplacementPolicy::kLruK, 2}, 3), 3);
    // stamps:            frame 0: 1     frame 1: 2     frame 2: 3
    s.insert(0, 10);
    s.insert(1, 11);
    s.insert(2, 12);
    // frame 0: +4,5 (full history 4,5); frame 1: +6 (full 2,6);
    // frame 2 stays at one access = infinite backward-K distance.
    s.access(0);
    s.access(0);
    s.access(1);
    EXPECT_EQ(s.victim(), 2u) << "single-access frame must go first";

    // All infinite: LRU by most-recent access among them. frame 2 (stamp
    // 3) is older than a freshly inserted frame.
    ReplacerScript t(
        make_replacer({ReplacementPolicy::kLruK, 3}, 3), 3);
    t.insert(0, 10);  // stamp 1
    t.insert(1, 11);  // stamp 2
    t.insert(2, 12);  // stamp 3
    EXPECT_EQ(t.victim(), 0u);
    t.access(0);  // stamp 4: frame 0 now most recently touched
    EXPECT_EQ(t.victim(), 1u);

    // Full histories compete on the K-th most recent (oldest retained):
    // frame 0 history {4,5}, frame 1 history {2,6} -> frame 1's Kth (2)
    // is older, so with frame 2 excluded frame 1 loses.
    std::vector<bool> no2{true, true, false};
    EXPECT_EQ(s.victim_among(no2), 1u);
    // A hot burst on frame 1 (history {7,8}) makes frame 0's Kth (4) the
    // oldest.
    s.access(1);
    s.access(1);
    EXPECT_EQ(s.victim_among(no2), 0u);
}

TEST(ClockReplacer, SecondChanceSweepClearsBitsThenEvicts) {
    ReplacerScript s(make_replacer({ReplacementPolicy::kClock}, 3), 3);
    s.insert(0, 10);
    s.insert(1, 11);
    s.insert(2, 12);
    // All referenced: the hand clears 0,1,2 on the first sweep and evicts
    // frame 0 on the second.
    EXPECT_EQ(s.victim(), 0u);
    s.evict(0, 10);
    s.insert(0, 13);  // frame 0 re-referenced, hand now at 1
    // Frames 1,2 have clear bits: the hand (at 1) evicts 1 immediately.
    EXPECT_EQ(s.victim(), 1u);
    s.evict(1, 11);
    s.insert(1, 14);
    // Hand at 2, bit clear -> 2; but a fresh access sets 2's bit, so the
    // hand clears it, then evicts 0? No: 0 was re-inserted (bit set), so
    // sweep order from 2: clear 2, clear 0, clear 1, evict 2.
    s.access(2);
    EXPECT_EQ(s.victim(), 2u);

    // Pinned frames are skipped without losing their reference bit.
    ReplacerScript t(make_replacer({ReplacementPolicy::kClock}, 2), 2);
    t.insert(0, 20);
    t.insert(1, 21);
    std::vector<bool> only1{false, true};
    EXPECT_EQ(t.victim_among(only1), 1u);
}

TEST(LfuReplacer, FrequencyDecidesWithLruTieBreakAndResetOnEvict) {
    ReplacerScript s(make_replacer({ReplacementPolicy::kLfu}, 3), 3);
    s.insert(0, 10);  // count 1, stamp 1
    s.insert(1, 11);  // count 1, stamp 2
    s.insert(2, 12);  // count 1, stamp 3
    // All counts equal: LRU tie-break picks the oldest stamp.
    EXPECT_EQ(s.victim(), 0u);
    s.access(0);  // count 2, stamp 4
    s.access(2);  // count 2, stamp 5
    // Frame 1 is now strictly least frequent despite a newer stamp than 0.
    EXPECT_EQ(s.victim(), 1u);
    s.access(1);  // count 2, stamp 6: three-way count tie again
    EXPECT_EQ(s.victim(), 0u) << "tie falls back to the oldest stamp";

    // Eviction resets the frequency: a once-hot frame re-enters at count
    // 1 and loses to moderately used survivors.
    s.access(0);
    s.access(0);          // frame 0: count 4
    EXPECT_EQ(s.victim(), 2u);
    s.evict(2, 12);
    s.insert(2, 13);      // count back to 1
    s.access(2);          // count 2, same as frame 1
    // Frame 1 (count 2, stamp 6) vs frame 2 (count 2, newer stamp).
    EXPECT_EQ(s.victim(), 1u);

    // Ineligible frames are skipped even when least frequent.
    std::vector<bool> no1{true, false, true};
    EXPECT_EQ(s.victim_among(no1), 2u);
}

// ------------------------------------------------------ prefetch --

class PrefetchTest : public ::testing::Test {
protected:
    std::filesystem::path path_ =
        test::unique_temp_path("pgf_replacement_prefetch");

    void TearDown() override { std::filesystem::remove(path_); }

    /// Pages 0..count-1 filled with a recognizable byte pattern.
    PageFile make_file(std::uint64_t count) {
        auto pf = PageFile::create(path_.string(), 64);
        std::vector<std::byte> raw(64);
        for (std::uint64_t p = 0; p < count; ++p) {
            pf.allocate();
            raw.assign(64, static_cast<std::byte>(p & 0xff));
            pf.write(p, raw);
        }
        return pf;
    }
};

TEST_F(PrefetchTest, StagesPagesCountsIssuesAndHits) {
    auto pf = make_file(6);
    BufferPool pool(pf, 4);
    const std::vector<std::uint64_t> block{0, 1, 2};
    pool.prefetch(block);
    EXPECT_EQ(pool.prefetch_issued(), 3u);
    EXPECT_EQ(pool.resident(), 3u);
    EXPECT_EQ(pool.pinned_frames(), 0u);  // staging never pins
    EXPECT_EQ(pool.hits(), 0u);           // ...and is no demand access
    EXPECT_EQ(pool.misses(), 0u);

    // Re-prefetch of resident pages is a no-op (skip, don't re-read).
    pool.prefetch(block);
    EXPECT_EQ(pool.prefetch_issued(), 3u);

    // Demand fetch of a staged page: a pool hit AND a prefetch hit, with
    // the staged bytes served verbatim.
    {
        auto ref = pool.fetch(1);
        EXPECT_EQ(ref.data()[0], static_cast<std::byte>(1));
    }
    EXPECT_EQ(pool.hits(), 1u);
    EXPECT_EQ(pool.prefetch_hits(), 1u);
    // Second fetch of the same page: a plain hit (graduated frame).
    { auto ref = pool.fetch(1); }
    EXPECT_EQ(pool.hits(), 2u);
    EXPECT_EQ(pool.prefetch_hits(), 1u);
}

TEST_F(PrefetchTest, UnusedPrefetchesAreTheFirstEvictionClassFifo) {
    auto pf = make_file(8);
    BufferPool pool(pf, 4);
    // Two demand pages with recency, then two staged pages fill the pool.
    { auto ref = pool.fetch(0); }
    { auto ref = pool.fetch(1); }
    pool.prefetch(std::vector<std::uint64_t>{2, 3});
    EXPECT_EQ(pool.resident(), 4u);

    // A demand miss evicts the *oldest unused prefetch* (page 2), not the
    // LRU demand page 0.
    { auto ref = pool.fetch(4); }
    auto resident = pool.resident_pages();
    EXPECT_EQ(resident, (std::vector<std::uint64_t>{0, 1, 3, 4}));

    // Consuming a staged page graduates it: the next miss then takes the
    // true LRU demand page (0), because no unused prefetch remains.
    { auto ref = pool.fetch(3); }
    EXPECT_EQ(pool.prefetch_hits(), 1u);
    { auto ref = pool.fetch(5); }
    resident = pool.resident_pages();
    EXPECT_EQ(resident, (std::vector<std::uint64_t>{1, 3, 4, 5}));
}

TEST_F(PrefetchTest, PrefetchNeverEvictsAnotherUnusedPrefetch) {
    auto pf = make_file(8);
    BufferPool pool(pf, 3);
    { auto ref = pool.fetch(0); }  // one demand page
    // Staging 4 pages into 3 frames: pages 1,2 take the free frames, page
    // 3 may displace the demand page, and page 4 must be dropped — the
    // only remaining frames hold unused prefetches.
    pool.prefetch(std::vector<std::uint64_t>{1, 2, 3, 4});
    EXPECT_EQ(pool.prefetch_issued(), 3u);
    auto resident = pool.resident_pages();
    EXPECT_EQ(resident, (std::vector<std::uint64_t>{1, 2, 3}));

    // With every frame holding an unused prefetch, further staging is a
    // clean no-op...
    pool.prefetch(std::vector<std::uint64_t>{5, 6});
    EXPECT_EQ(pool.prefetch_issued(), 3u);
    // ...but demand misses still steal staged frames freely (FIFO).
    { auto ref = pool.fetch(7); }
    EXPECT_EQ(pool.misses(), 2u);
    resident = pool.resident_pages();
    EXPECT_EQ(resident, (std::vector<std::uint64_t>{2, 3, 7}));
}

TEST_F(PrefetchTest, PinnedFramesStopStagingWithoutThrowing)
{
    auto pf = make_file(6);
    BufferPool pool(pf, 2);
    auto pinned0 = pool.fetch(0);
    auto pinned1 = pool.fetch(1);
    // Every frame pinned: fetch would throw, prefetch must simply stop.
    EXPECT_NO_THROW(
        pool.prefetch(std::vector<std::uint64_t>{2, 3}));
    EXPECT_EQ(pool.prefetch_issued(), 0u);
    EXPECT_EQ(pool.resident_pages(),
              (std::vector<std::uint64_t>{0, 1}));
}

}  // namespace
}  // namespace pgf
