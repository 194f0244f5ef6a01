/**
 * @file
 * Host-time spans recorded from outside the library: the traced run
 * wraps one span around each call into a layer's public functions.
 * Spans stay in memory and are written out when the run ends.
 *
 * A span's self time is its duration minus the part of its interval
 * that its child spans cover. Children may overlap (launches
 * simulated concurrently on several lanes), so coverage is the
 * length of the union of the children's intervals, clipped to the
 * parent.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span; times are milliseconds since the recorder's
 *  origin. */
struct Span {
    std::string name;  ///< layer span name, e.g. "simgpu.run"
    std::string cls;   ///< kernel class for per-kernel spans, else ""
    double startMs = 0.0;
    double endMs = 0.0;
    int64_t parent = -1; ///< index of the parent span, -1 at top level
    int64_t point = -1;  ///< sweep point index, -1 when not per point

    double durationMs() const { return endMs - startMs; }
};

/** Thread-safe in-memory span store. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span now; returns its index. */
    int64_t begin(std::string name, std::string cls, int64_t parent,
                  int64_t point);

    /** Close span @p id now. */
    void end(int64_t id);

    /** Snapshot of every span, in begin order. */
    std::vector<Span> spans() const;

  private:
    using Clock = std::chrono::steady_clock;
    const Clock::time_point origin;
    mutable std::mutex mtx;
    std::vector<Span> recorded; ///< guarded by mtx
};

/** RAII span: begins on construction, ends on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::string cls,
               int64_t parent, int64_t point)
        : rec(rec),
          spanId(rec.begin(std::move(name), std::move(cls), parent,
                           point))
    {
    }
    ~ScopedSpan() { rec.end(spanId); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return spanId; }

  private:
    SpanRecorder &rec;
    const int64_t spanId;
};

/**
 * Self time of every span (parallel to @p spans): its duration minus
 * the length of the union of its children's intervals, each clipped
 * to the parent's interval.
 */
std::vector<double> selfTimesMs(const std::vector<Span> &spans);

/** Write @p spans as a JSON array (name, cls, start, end, parent,
 *  point, self). Returns false on I/O error. */
bool writeSpansJson(const std::string &path,
                    const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
