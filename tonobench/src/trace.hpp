// trace.hpp — in-memory spans around the harness's own calls into tonosim.
//
// A span records (name, start, end, parent, session id) on the thread that
// opened it. Every thread appends to its own buffer, so recording takes no
// lock; the buffers are merged and written out when the run ends. Nothing
// here reaches inside src/: a span wraps a public call the harness makes.
//
// Tracing is off unless set_enabled(true): a closed Span then costs one
// relaxed load, which is what lets the untraced end-to-end runs and the
// traced per-layer run share one code path.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tonobench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

inline constexpr std::uint32_t kNoSession = 0xFFFFFFFFu;

struct SpanRecord {
  const char* name{""};  ///< string literal; spans compare names by content
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int32_t parent{-1};  ///< index in the same thread's buffer, -1 = root
  std::uint32_t session{kNoSession};
};

/// One thread's spans, in opening order.
struct ThreadSpans {
  std::uint32_t thread{0};
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  ///< stack of open span indices
};

void set_enabled(bool on) noexcept;
[[nodiscard]] bool enabled() noexcept;

/// RAII span on the calling thread; nests under the innermost open span.
class Span {
 public:
  explicit Span(const char* name, std::uint32_t session = kNoSession);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  ThreadSpans* buffer_{nullptr};
  std::int32_t index_{-1};
};

/// Per-name totals. Self time is a span's duration minus the part its child
/// spans cover (children on the same thread, opened inside it).
struct SpanStats {
  std::uint64_t count{0};
  double total_s{0.0};
  double self_s{0.0};
  std::vector<double> durations_s;
};

[[nodiscard]] std::map<std::string, SpanStats> aggregate(
    const std::vector<ThreadSpans>& threads);

/// Snapshot of every thread's buffer. Call only while no span is open on
/// another thread (after workers have joined).
[[nodiscard]] std::vector<ThreadSpans> collect();

/// Drops every recorded span (buffers stay registered).
void clear();

/// Writes every span as CSV: thread,index,name,start_ns,end_ns,parent,session.
/// `header` is written first as a '#'-prefixed comment line.
[[nodiscard]] bool write_csv(const std::string& path, const std::string& header,
                             const std::vector<ThreadSpans>& threads);

}  // namespace tonobench
