#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

/**
 * @file
 * In-memory host-time spans for the traced benchmark run.
 *
 * Each span records a name, its start and end on the steady clock,
 * the span that was open when it began (its parent) and the sweep
 * point it belongs to. Spans stay in memory while the run measures;
 * they are written as Chrome trace_event JSON once it ends.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double startUs = 0.0;
        double endUs = 0.0;
        int parent = -1;  ///< index into spans(), or -1 for a root
        int point = -1;   ///< sweep point index, or -1

        double durUs() const { return endUs - startUs; }
    };

    /** Open a span under the innermost open one. @return its index */
    int begin(std::string name, int point = -1);

    /** Close the innermost open span, which must be @p id. */
    void end(int id);

    /** Closes its span when it leaves scope. */
    class Scope
    {
      public:
        Scope(SpanRecorder& rec, std::string name, int point = -1)
            : _rec(rec), _id(rec.begin(std::move(name), point))
        {}
        ~Scope() { _rec.end(_id); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SpanRecorder& _rec;
        int _id;
    };

    const std::vector<Span>& spans() const { return _spans; }

    /** Sum of self times (duration minus the time children cover)
     *  per span name, milliseconds. */
    std::map<std::string, double> selfMsByName() const;

    /** Chrome trace_event JSON ("X" events, microsecond timestamps);
     *  open in chrome://tracing or https://ui.perfetto.dev. */
    std::string chromeTraceJson() const;

  private:
    double nowUs() const;

    /** Self time of every span, in span order, microseconds. */
    std::vector<double> selfTimesUs() const;

    std::chrono::steady_clock::time_point _epoch =
        std::chrono::steady_clock::now();
    std::vector<Span> _spans;
    std::vector<int> _open;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
