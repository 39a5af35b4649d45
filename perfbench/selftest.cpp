// Self-test of the benchmark's own bookkeeping: span self time and the
// percentile rule (a percentile is reported only with at least ten samples
// beyond it). Exits non-zero on the first failed check.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

perfbench::Span span(std::int64_t parent, std::int64_t start,
                     std::int64_t end) {
    perfbench::Span s;
    s.name = "t";
    s.parent = parent;
    s.start_ns = start;
    s.end_ns = end;
    return s;
}

void self_time() {
    using perfbench::self_times_ns;
    // Root [0,100) with children [10,30) and [20,50) (overlapping: union
    // 40) and a grandchild inside the first child.
    std::vector<perfbench::Span> s = {span(-1, 0, 100), span(0, 10, 30),
                                      span(0, 20, 50), span(1, 12, 18)};
    auto self = self_times_ns(s);
    expect(self[0] == 60, "root self time subtracts the union of children");
    expect(self[1] == 14, "child self time subtracts its grandchild");
    expect(self[2] == 30, "leaf self time is its duration");
    expect(self[3] == 6, "grandchild leaf self time");

    // A child sticking out of its parent only counts inside the parent.
    s = {span(-1, 0, 10), span(0, 5, 25)};
    self = self_times_ns(s);
    expect(self[0] == 5, "child coverage is clipped to the parent interval");

    // Disjoint children add up; no children leaves the full duration.
    s = {span(-1, 0, 100), span(0, 0, 10), span(0, 90, 100), span(-1, 5, 7)};
    self = self_times_ns(s);
    expect(self[0] == 80, "disjoint children are summed");
    expect(self[3] == 2, "a second root is independent");
}

void percentile_rule() {
    using perfbench::percentile;
    using perfbench::supported_percentile;
    expect(supported_percentile(0) == 0.0, "no samples support nothing");
    expect(supported_percentile(19) == 0.0, "19 samples do not support p50");
    expect(supported_percentile(20) == 50.0, "20 samples support p50");
    expect(supported_percentile(99) == 50.0, "99 samples stop at p50");
    expect(supported_percentile(100) == 90.0, "100 samples support p90");
    expect(supported_percentile(999) == 90.0, "999 samples stop at p90");
    expect(supported_percentile(1000) == 99.0, "1000 samples support p99");
    expect(supported_percentile(10000) == 99.9, "10^4 samples support p99.9");
    expect(supported_percentile(100000) == 99.99,
           "10^5 samples support p99.99");

    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i) v.push_back(1001 - i);  // 1000..1
    expect(percentile(v, 50) == 500.0, "nearest-rank median");
    expect(percentile(v, 99) == 990.0, "nearest-rank p99");
    expect(percentile(v, 100) == 1000.0, "p100 is the maximum");
    expect(percentile({}, 50) == 0.0, "empty sample reads 0");
    expect(perfbench::median({1.0, 3.0}) == 2.0, "even-sized median");
}

void tracer() {
    perfbench::Tracer off(false);
    expect(off.begin("x", 0) == -1, "a disabled tracer records nothing");
    perfbench::Tracer t(true, 2);
    const auto a = t.begin("a", 1);
    const auto b = t.begin("b", 1, a);
    const auto c = t.begin("c", 1, a);
    t.end(b);
    t.end(a);
    expect(a == 0 && b == 1 && c == -1 && t.dropped() == 1,
           "capacity bounds the spans kept");
    expect(t.spans()[1].parent == 0 && t.spans()[1].request == 1,
           "spans keep parent and request id");
    expect(t.spans()[0].end_ns >= t.spans()[1].end_ns,
           "a parent closed after its child ends later");
}

}  // namespace

int main() {
    self_time();
    percentile_rule();
    tracer();
    if (failures == 0) std::printf("perfbench selftest: ok\n");
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
