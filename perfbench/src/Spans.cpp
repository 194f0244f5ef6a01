#include "Spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin(Clock::now()) {}

int64_t
SpanRecorder::begin(std::string name, std::string cls, int64_t parent,
                    int64_t point)
{
    const double now =
        std::chrono::duration<double, std::milli>(Clock::now() - origin)
            .count();
    std::lock_guard<std::mutex> lock(mtx);
    Span s;
    s.name = std::move(name);
    s.cls = std::move(cls);
    s.startMs = now;
    s.endMs = now;
    s.parent = parent;
    s.point = point;
    recorded.push_back(std::move(s));
    return static_cast<int64_t>(recorded.size()) - 1;
}

void
SpanRecorder::end(int64_t id)
{
    const double now =
        std::chrono::duration<double, std::milli>(Clock::now() - origin)
            .count();
    std::lock_guard<std::mutex> lock(mtx);
    recorded.at(static_cast<size_t>(id)).endMs = now;
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mtx);
    return recorded;
}

std::vector<double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        if (static_cast<size_t>(s.parent) >= spans.size())
            throw std::out_of_range("span parent out of range");
        children[static_cast<size_t>(s.parent)].emplace_back(s.startMs,
                                                             s.endMs);
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = p.startMs; // end of the union built so far
        for (const auto &[start, end] : kids) {
            const double lo = std::max(start, reach);
            const double hi = std::min(end, p.endMs);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(end, p.endMs));
        }
        self[i] = p.durationMs() - covered;
    }
    return self;
}

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

bool
writeSpansJson(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::vector<double> self = selfTimesMs(spans);
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"cls\": \"%s\", "
                     "\"start_ms\": %.6f, \"end_ms\": %.6f, "
                     "\"parent\": %lld, \"point\": %lld, "
                     "\"self_ms\": %.6f}%s\n",
                     jsonEscape(s.name).c_str(),
                     jsonEscape(s.cls).c_str(), s.startMs, s.endMs,
                     static_cast<long long>(s.parent),
                     static_cast<long long>(s.point), self[i],
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
