// In-memory span recorder and the summary statistics of the benchmark.
//
// A span is one timed call into a layer: name, start, end, the span that
// caused it (parent) and the request it belongs to. Spans stay in memory
// while the workload runs and are written out once at exit, so recording
// costs two clock reads and a vector append. A layer's self time is its
// span's duration minus the part of that interval its child spans cover.
//
// Percentiles follow one rule: a percentile is reported only when at
// least ten samples lie beyond it, and every summary carries its sample
// count (see supported_percentile).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
    const char* name = "";
    std::uint64_t request = 0;
    std::int64_t parent = -1;  ///< index of the causing span, -1 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;

    double duration_us() const {
        return static_cast<double>(end_ns - start_ns) / 1e3;
    }
};

class Tracer {
public:
    /// A disabled tracer records nothing; `capacity` bounds memory — spans
    /// past it are counted in dropped() instead of stored.
    explicit Tracer(bool enabled, std::size_t capacity = 4'000'000)
        : enabled_(enabled), capacity_(capacity) {
        if (enabled_) spans_.reserve(std::min<std::size_t>(capacity, 1 << 20));
    }

    bool enabled() const { return enabled_; }

    /// Opens a span; returns its id (-1 when disabled or full).
    std::int64_t begin(const char* name, std::uint64_t request,
                       std::int64_t parent = -1) {
        if (!enabled_) return -1;
        if (spans_.size() >= capacity_) {
            ++dropped_;
            return -1;
        }
        Span s;
        s.name = name;
        s.request = request;
        s.parent = parent;
        s.start_ns = now_ns();
        spans_.push_back(s);
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void end(std::int64_t id) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    }

    /// Renames an open or closed span (e.g. a pool fetch classified as hit
    /// or miss only after it returned).
    void rename(std::int64_t id, const char* name) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].name = name;
    }

    /// Duration of span `id` in microseconds (0 for an unrecorded span).
    double duration_us(std::int64_t id) const {
        return id < 0 ? 0.0 : spans_[static_cast<std::size_t>(id)].duration_us();
    }

    const std::vector<Span>& spans() const { return spans_; }
    std::uint64_t dropped() const { return dropped_; }

    /// Durations (us) of every span called `name`.
    std::vector<double> durations_us(const std::string& name) const {
        std::vector<double> out;
        for (const Span& s : spans_) {
            if (name == s.name) out.push_back(s.duration_us());
        }
        return out;
    }

    /// Writes every span as CSV (id,request,parent,name,start_ns,end_ns).
    bool write_csv(const std::string& path) const {
        std::ofstream out(path);
        if (!out) return false;
        out << "id,request,parent,name,start_ns,end_ns\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            out << i << ',' << s.request << ',' << s.parent << ',' << s.name
                << ',' << s.start_ns << ',' << s.end_ns << '\n';
        }
        return static_cast<bool>(out);
    }

    class Scope {
    public:
        Scope(Tracer& t, const char* name, std::uint64_t request,
              std::int64_t parent = -1)
            : t_(t), id_(t.begin(name, request, parent)) {}
        ~Scope() { t_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;
        std::int64_t id() const { return id_; }

    private:
        Tracer& t_;
        std::int64_t id_;
    };

private:
    std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    bool enabled_;
    std::size_t capacity_;
    std::uint64_t dropped_ = 0;
    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::vector<Span> spans_;
};

/// Self time (ns) of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
inline std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent < 0) continue;
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        const std::int64_t lo = std::max(s.start_ns, p.start_ns);
        const std::int64_t hi = std::min(s.end_ns, p.end_ns);
        if (lo < hi) kids[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t cur_lo = 0;
        std::int64_t cur_hi = 0;
        bool open = false;
        for (const auto& [lo, hi] : iv) {
            if (!open || lo > cur_hi) {
                if (open) covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
                open = true;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (open) covered += cur_hi - cur_lo;
        self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
    }
    return self;
}

// -- percentiles -------------------------------------------------------------

/// Percentile ladder the summaries climb.
inline constexpr double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99};

/// 1-based nearest rank of percentile `p` among `n` samples; the epsilon
/// keeps 99.9% of 10000 at rank 9990 despite binary rounding.
inline std::size_t nearest_rank(std::size_t n, double p) {
    const double exact = p / 100.0 * static_cast<double>(n);
    return static_cast<std::size_t>(std::ceil(exact - 1e-9));
}

/// Number of samples strictly beyond nearest-rank percentile `p` of `n`.
inline std::size_t samples_beyond(std::size_t n, double p) {
    return n - std::min(nearest_rank(n, p), n);
}

/// The highest ladder percentile with at least ten samples beyond it, or 0
/// when even the median lacks them (n < 20).
inline double supported_percentile(std::size_t n) {
    double best = 0.0;
    for (double p : kLadder) {
        if (samples_beyond(n, p) >= 10) best = p;
    }
    return best;
}

/// Nearest-rank percentile of `v` (sorted copy); 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank =
        std::clamp<std::size_t>(nearest_rank(v.size(), p), 1, v.size());
    return v[rank - 1];
}

inline double median(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t n = s.size();
    return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

}  // namespace perfbench
