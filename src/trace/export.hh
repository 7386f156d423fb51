/**
 * @file
 * Trace/metrics exporters: Chrome `trace_event` JSON (load it at
 * chrome://tracing or in Perfetto) and the flat metrics JSON.
 *
 * Both renderings are deterministic — events are emitted in the
 * merged (cycle, sm, seq) order, one per line, and all numbers are
 * integers or fixed-precision — so the golden-trace suite can diff
 * them byte for byte across compilers and `--jobs` values.
 */

#ifndef WARPED_TRACE_EXPORT_HH
#define WARPED_TRACE_EXPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/event.hh"
#include "trace/metrics.hh"

namespace warped {
namespace trace {

/**
 * Render @p events (already merged/ordered) as one Chrome
 * trace_event JSON document. Timestamps are core-clock cycles
 * (declared via "displayTimeUnit"); pid = SM, tid = warp.
 */
void writeChromeTrace(std::ostream &os,
                      const std::vector<Event> &events,
                      const std::string &process_label);

/** writeChromeTrace into a string. */
std::string chromeTraceJson(const std::vector<Event> &events,
                            const std::string &process_label);

/** The registry's flat JSON (MetricsRegistry::toJson), to a stream. */
void writeMetricsJson(std::ostream &os, const MetricsRegistry &m);

} // namespace trace
} // namespace warped

#endif // WARPED_TRACE_EXPORT_HH
