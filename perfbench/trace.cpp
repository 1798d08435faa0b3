#include "trace.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <unordered_map>
#include <utility>

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

namespace {
thread_local void* tlsBuffer = nullptr;
}  // namespace

Tracer::ThreadBuffer& Tracer::buffer() {
  if (tlsBuffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = static_cast<int>(buffers_.size());
    tlsBuffer = buffers_.back().get();
  }
  return *static_cast<ThreadBuffer*>(tlsBuffer);
}

std::int64_t Tracer::open(const char* name, std::int64_t seq,
                          std::int64_t parent) {
  if (!enabled()) return -1;
  ThreadBuffer& b = buffer();
  Span s;
  s.name = name;
  s.id = nextId_.fetch_add(1, std::memory_order_relaxed);
  s.parent = parent >= -1 ? parent
                          : (b.open.empty() ? -1 : b.open.back().id);
  s.seq = seq;
  s.tid = b.tid;
  s.startNs = nowNs();
  b.open.push_back(s);
  return s.id;
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  const std::int64_t end = nowNs();
  ThreadBuffer& b = buffer();
  // Spans close in LIFO order on their own thread.
  Span s = b.open.back();
  b.open.pop_back();
  s.endNs = end;
  b.closed.push_back(s);
}

std::vector<Tracer::Span> Tracer::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) {
    all.insert(all.end(), b->closed.begin(), b->closed.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::map<std::string, Tracer::Stat> Tracer::stats(
    const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (it != index.end()) {
      children[it->second].emplace_back(s.startNs, s.endNs);
    }
  }
  std::map<std::string, Stat> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Children may run on several threads at once: self time subtracts the
    // union of their intervals, clipped to the parent's.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t runStart = 0;
    std::int64_t runEnd = -1;
    for (const auto& [a0, b0] : kids) {
      const std::int64_t a = std::max(a0, s.startNs);
      const std::int64_t b = std::min(b0, s.endNs);
      if (b <= a) continue;
      if (a > runEnd) {
        if (runEnd > runStart) covered += runEnd - runStart;
        runStart = a;
        runEnd = b;
      } else {
        runEnd = std::max(runEnd, b);
      }
    }
    if (runEnd > runStart) covered += runEnd - runStart;
    const double dur = static_cast<double>(s.endNs - s.startNs) / 1e6;
    Stat& st = out[s.name];
    ++st.count;
    st.selfMs += dur - static_cast<double>(covered) / 1e6;
    st.durationsMs.push_back(dur);
  }
  return out;
}

std::string Tracer::chromeJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  std::int64_t epoch = spans.empty() ? 0 : spans.front().startNs;
  for (const Span& s : spans) epoch = std::min(epoch, s.startNs);
  bool first = true;
  for (const Span& s : spans) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"";
    out += s.name;
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(s.tid);
    out += ",\"ts\":" + std::to_string((s.startNs - epoch) / 1000.0);
    out += ",\"dur\":" + std::to_string((s.endNs - s.startNs) / 1000.0);
    out += ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent);
    if (s.seq >= 0) out += ",\"seq\":" + std::to_string(s.seq);
    out += "}}";
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
