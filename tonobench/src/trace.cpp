#include "trace.hpp"

#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>

namespace tonobench {
namespace {

std::atomic<bool> g_enabled{false};

struct Registry {
  std::mutex mutex;  // guards buffers (registration and collection only)
  std::vector<std::unique_ptr<ThreadSpans>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

ThreadSpans& local_buffer() {
  thread_local ThreadSpans* buffer = [] {
    Registry& r = registry();
    std::lock_guard lock{r.mutex};
    r.buffers.push_back(std::make_unique<ThreadSpans>());
    r.buffers.back()->thread = static_cast<std::uint32_t>(r.buffers.size() - 1);
    return r.buffers.back().get();
  }();
  return *buffer;
}

}  // namespace

void set_enabled(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint32_t session) {
  if (!enabled()) return;
  buffer_ = &local_buffer();
  const std::int32_t parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  index_ = static_cast<std::int32_t>(buffer_->spans.size());
  buffer_->spans.push_back(SpanRecord{name, now_ns(), 0, parent, session});
  buffer_->open.push_back(index_);
}

Span::~Span() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  buffer_->open.pop_back();
}

std::map<std::string, SpanStats> aggregate(const std::vector<ThreadSpans>& threads) {
  std::map<std::string, SpanStats> out;
  for (const auto& t : threads) {
    std::vector<std::int64_t> child_ns(t.spans.size(), 0);
    for (const auto& s : t.spans) {
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const SpanRecord& s = t.spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      SpanStats& st = out[s.name];
      ++st.count;
      st.total_s += dur;
      st.self_s += dur - static_cast<double>(child_ns[i]) * 1e-9;
      st.durations_s.push_back(dur);
    }
  }
  return out;
}

std::vector<ThreadSpans> collect() {
  Registry& r = registry();
  std::lock_guard lock{r.mutex};
  std::vector<ThreadSpans> out;
  out.reserve(r.buffers.size());
  for (const auto& b : r.buffers) out.push_back(*b);
  return out;
}

void clear() {
  Registry& r = registry();
  std::lock_guard lock{r.mutex};
  for (auto& b : r.buffers) b->spans.clear();
}

bool write_csv(const std::string& path, const std::string& header,
               const std::vector<ThreadSpans>& threads) {
  std::ofstream out{path, std::ios::trunc};
  out << "# " << header << "\n";
  out << "thread,index,name,start_ns,end_ns,parent,session\n";
  for (const auto& t : threads) {
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const SpanRecord& s = t.spans[i];
      out << t.thread << ',' << i << ',' << s.name << ',' << s.start_ns << ','
          << s.end_ns << ',' << s.parent << ',';
      if (s.session == kNoSession) {
        out << '-';
      } else {
        out << s.session;
      }
      out << '\n';
    }
  }
  out.flush();
  return out.good();
}

}  // namespace tonobench
