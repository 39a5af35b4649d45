// Non-template piece of the concurrent serving path: the latency
// aggregation of a served batch.
#include "pgf/parallel/query_engine.hpp"

#include <algorithm>

#include "pgf/util/stats.hpp"

namespace pgf {

void summarize_serving(std::vector<double> latencies_ms, double wall_s,
                       ServingReport& report) {
    report.wall_s = wall_s;
    report.qps = wall_s > 0.0
                     ? static_cast<double>(latencies_ms.size()) / wall_s
                     : 0.0;
    if (latencies_ms.empty()) {
        report.mean_ms = report.p50_ms = report.p95_ms = report.p99_ms =
            report.max_ms = 0.0;
        return;
    }
    double sum = 0.0;
    double mx = latencies_ms.front();
    for (double v : latencies_ms) {
        sum += v;
        mx = std::max(mx, v);
    }
    report.mean_ms = sum / static_cast<double>(latencies_ms.size());
    report.max_ms = mx;
    report.p50_ms = quantile(latencies_ms, 0.50);
    report.p95_ms = quantile(latencies_ms, 0.95);
    report.p99_ms = quantile(latencies_ms, 0.99);
}

}  // namespace pgf
