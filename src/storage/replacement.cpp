#include "pgf/storage/replacement.hpp"

#include <limits>

#include "pgf/util/check.hpp"

namespace pgf {

std::string to_string(ReplacementPolicy policy) {
    switch (policy) {
        case ReplacementPolicy::kLru: return "lru";
        case ReplacementPolicy::kLruK: return "lru-k";
        case ReplacementPolicy::kClock: return "clock";
        case ReplacementPolicy::kLfu: return "lfu";
    }
    return "?";
}

std::optional<ReplacementPolicy> parse_policy(std::string_view text) {
    if (text == "lru") return ReplacementPolicy::kLru;
    if (text == "lru-k" || text == "lruk" || text == "lru2") {
        return ReplacementPolicy::kLruK;
    }
    if (text == "clock") return ReplacementPolicy::kClock;
    if (text == "lfu") return ReplacementPolicy::kLfu;
    return std::nullopt;
}

// ---------------------------------------------------------------- LRU --

LruReplacer::LruReplacer(std::size_t capacity)
    : prev_(capacity, kNil), next_(capacity, kNil), linked_(capacity, false) {}

void LruReplacer::unlink(std::size_t frame) {
    const std::size_t p = prev_[frame];
    const std::size_t n = next_[frame];
    if (p != kNil) next_[p] = n; else head_ = n;
    if (n != kNil) prev_[n] = p; else tail_ = p;
    prev_[frame] = kNil;
    next_[frame] = kNil;
    linked_[frame] = false;
}

void LruReplacer::push_back(std::size_t frame) {
    prev_[frame] = tail_;
    next_[frame] = kNil;
    if (tail_ != kNil) next_[tail_] = frame; else head_ = frame;
    tail_ = frame;
    linked_[frame] = true;
}

void LruReplacer::on_insert(std::size_t frame, std::uint64_t /*page*/,
                            Mutex& /*latch*/) {
    if (linked_[frame]) unlink(frame);
    push_back(frame);
}

void LruReplacer::on_access(std::size_t frame, Mutex& /*latch*/) {
    if (linked_[frame]) unlink(frame);
    push_back(frame);
}

std::size_t LruReplacer::victim(const EvictableView& view, Mutex& /*latch*/) {
    // List order == increasing access stamps, so the first eligible frame
    // from the cold end is exactly the historical argmin-stamp choice.
    for (std::size_t i = head_; i != kNil; i = next_[i]) {
        if (view[i]) return i;
    }
    return view.size();
}

void LruReplacer::on_evict(std::size_t frame, std::uint64_t /*page*/,
                           Mutex& /*latch*/) {
    if (linked_[frame]) unlink(frame);
}

// -------------------------------------------------------------- LRU-K --

LruKReplacer::LruKReplacer(std::size_t capacity, std::size_t k)
    : k_(k), history_(capacity), resident_(capacity, false) {
    PGF_CHECK(k_ >= 1, "LRU-K needs k >= 1");
    for (History& h : history_) h.stamps.assign(k_, 0);
}

LruKReplacer::Key LruKReplacer::key_of(std::size_t frame) const {
    const History& h = history_[frame];
    if (h.count < k_) {
        // Infinite backward-K distance: sorts before every full-history
        // frame (flag 0); LRU among themselves by most recent stamp.
        const std::size_t last = (h.next + k_ - 1) % k_;
        return Key{0, h.count == 0 ? 0 : h.stamps[last]};
    }
    // Full history: compete on the oldest retained stamp (at the cursor).
    return Key{1, h.stamps[h.next]};
}

void LruKReplacer::record(std::size_t frame) {
    History& h = history_[frame];
    h.stamps[h.next] = ++clock_;
    h.next = (h.next + 1) % k_;
    if (h.count < k_) ++h.count;
}

void LruKReplacer::reindex(std::size_t frame) {
    record(frame);
    order_.insert({key_of(frame), frame});
}

void LruKReplacer::on_insert(std::size_t frame, std::uint64_t /*page*/,
                             Mutex& /*latch*/) {
    if (resident_[frame]) order_.erase({key_of(frame), frame});
    History& h = history_[frame];
    h.next = 0;
    h.count = 0;
    resident_[frame] = true;
    reindex(frame);
}

void LruKReplacer::on_access(std::size_t frame, Mutex& /*latch*/) {
    order_.erase({key_of(frame), frame});
    reindex(frame);
}

std::size_t LruKReplacer::victim(const EvictableView& view, Mutex& /*latch*/) {
    // Ascending (infinite-first, distance-stamp) order; keys are unique
    // (stamps are), so the first eligible entry equals the historical
    // linear argmin's choice.
    for (const auto& [key, frame] : order_) {
        if (view[frame]) return frame;
    }
    return view.size();
}

void LruKReplacer::on_evict(std::size_t frame, std::uint64_t /*page*/,
                            Mutex& /*latch*/) {
    if (resident_[frame]) {
        order_.erase({key_of(frame), frame});
        resident_[frame] = false;
    }
    History& h = history_[frame];
    h.next = 0;
    h.count = 0;
}

// -------------------------------------------------------------- CLOCK --

void ClockReplacer::on_insert(std::size_t frame, std::uint64_t /*page*/,
                              Mutex& /*latch*/) {
    referenced_[frame] = true;
}

void ClockReplacer::on_access(std::size_t frame, Mutex& /*latch*/) {
    referenced_[frame] = true;
}

std::size_t ClockReplacer::victim(const EvictableView& view,
                                  Mutex& /*latch*/) {
    const std::size_t n = view.size();
    bool any = false;
    for (std::size_t i = 0; i < n && !any; ++i) any = view[i];
    if (!any) return n;
    // At most two sweeps: the first clears every set bit among the
    // eligible frames, so the second must find a clear one.
    for (std::size_t step = 0; step < 2 * n; ++step) {
        const std::size_t i = hand_;
        hand_ = (hand_ + 1) % n;
        if (!view[i]) continue;  // pinned/absent frames keep their bit
        if (referenced_[i]) {
            referenced_[i] = false;
            continue;
        }
        return i;
    }
    return n;
}

void ClockReplacer::on_evict(std::size_t frame, std::uint64_t /*page*/,
                             Mutex& /*latch*/) {
    referenced_[frame] = false;
}

// ---------------------------------------------------------------- LFU --

LfuReplacer::LfuReplacer(std::size_t capacity)
    : count_(capacity, 0), stamp_(capacity, 0), resident_(capacity, false) {}

void LfuReplacer::reindex(std::size_t frame, Key key) {
    if (resident_[frame]) {
        order_.erase({Key{count_[frame], stamp_[frame]}, frame});
    }
    count_[frame] = key.first;
    stamp_[frame] = key.second;
    resident_[frame] = true;
    order_.insert({key, frame});
}

void LfuReplacer::on_insert(std::size_t frame, std::uint64_t /*page*/,
                            Mutex& /*latch*/) {
    reindex(frame, Key{1, ++clock_});  // install counts as first reference
}

void LfuReplacer::on_access(std::size_t frame, Mutex& /*latch*/) {
    reindex(frame, Key{count_[frame] + 1, ++clock_});
}

std::size_t LfuReplacer::victim(const EvictableView& view, Mutex& /*latch*/) {
    // Smallest (count, stamp) lexicographically: least frequent first,
    // least recent among equally frequent frames. Stamps are unique, so
    // the set order matches the historical strict `<` linear scan.
    for (const auto& [key, frame] : order_) {
        if (view[frame]) return frame;
    }
    return view.size();
}

void LfuReplacer::on_evict(std::size_t frame, std::uint64_t /*page*/,
                           Mutex& /*latch*/) {
    if (resident_[frame]) {
        order_.erase({Key{count_[frame], stamp_[frame]}, frame});
        resident_[frame] = false;
    }
    count_[frame] = 0;
    stamp_[frame] = 0;
}

// ------------------------------------------------------------ factory --

std::unique_ptr<Replacer> make_replacer(const BufferPoolConfig& config,
                                        std::size_t capacity) {
    switch (config.policy) {
        case ReplacementPolicy::kLru:
            return std::make_unique<LruReplacer>(capacity);
        case ReplacementPolicy::kLruK:
            return std::make_unique<LruKReplacer>(capacity, config.lru_k);
        case ReplacementPolicy::kClock:
            return std::make_unique<ClockReplacer>(capacity);
        case ReplacementPolicy::kLfu:
            return std::make_unique<LfuReplacer>(capacity);
    }
    PGF_CHECK(false, "unknown replacement policy");
    return nullptr;
}

}  // namespace pgf
