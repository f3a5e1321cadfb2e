#include "spans.hh"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - _epoch)
        .count();
}

int
SpanRecorder::begin(std::string name, int point)
{
    Span s;
    s.name = std::move(name);
    s.parent = _open.empty() ? -1 : _open.back();
    s.point = point;
    s.startUs = nowUs();
    _spans.push_back(std::move(s));
    const int id = static_cast<int>(_spans.size()) - 1;
    _open.push_back(id);
    return id;
}

void
SpanRecorder::end(int id)
{
    if (_open.empty() || _open.back() != id)
        throw std::logic_error("span closed out of order");
    _open.pop_back();
    _spans[static_cast<std::size_t>(id)].endUs = nowUs();
}

std::vector<double>
SpanRecorder::selfTimesUs() const
{
    std::vector<double> self(_spans.size());
    for (std::size_t i = 0; i < _spans.size(); ++i)
        self[i] = _spans[i].durUs();
    // Children of one parent are sequential, so their durations sum
    // to the part of the parent's interval they cover.
    for (const auto& s : _spans)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.durUs();
    return self;
}

std::map<std::string, double>
SpanRecorder::selfMsByName() const
{
    const std::vector<double> self = selfTimesUs();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < _spans.size(); ++i)
        out[_spans[i].name] += self[i] / 1000.0;
    return out;
}

std::string
SpanRecorder::chromeTraceJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span& s = _spans[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"name\":\"",
                      i ? "," : "", s.startUs, s.durUs());
        out += buf;
        out += s.name;  // span names are fixed identifiers
        std::snprintf(buf, sizeof buf,
                      "\",\"args\":{\"id\":%zu,\"parent\":%d,"
                      "\"point\":%d}}",
                      i, s.parent, s.point);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

} // namespace perfbench
