#include "obs/obs.h"

#ifndef RULEPLACE_NO_OBS

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <sstream>

#include "util/append.h"

namespace ruleplace::obs {

namespace {

void appendDouble(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

}  // namespace

void Histogram::record(std::int64_t v) noexcept {
  const auto u = v > 0 ? static_cast<std::uint64_t>(v) : 0u;
  const int b = v > 0 ? std::bit_width(u) : 0;
  buckets_[static_cast<std::size_t>(b)].fetch_add(1,
                                                  std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  std::int64_t prev = max_.load(std::memory_order_relaxed);
  while (v > prev &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Registry::Registry() : epoch_(std::chrono::steady_clock::now()) {}

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: outlives all spans
  return *r;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[std::string(name)];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[std::string(name)];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

int Registry::currentThreadId() {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void Registry::setThreadLabel(std::string_view label) {
  const int tid = currentThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  threadLabels_[tid] = std::string(label);
}

void Registry::recordSpan(
    std::string_view name, std::chrono::steady_clock::time_point start,
    std::chrono::steady_clock::time_point end, int depth,
    const std::vector<std::pair<const char*, std::int64_t>>& args) {
  using Micros = std::chrono::duration<double, std::micro>;
  const double ts = Micros(start - epoch_).count();
  const double dur = Micros(end - start).count();
  const int tid = currentThreadId();

  std::lock_guard<std::mutex> lock(mu_);
  SpanAgg& agg = spanAggs_[std::string(name)];
  agg.count += 1;
  const double seconds = dur * 1e-6;
  agg.totalSeconds += seconds;
  agg.maxSeconds = std::max(agg.maxSeconds, seconds);

  if (events_.size() >= kMaxEvents) {
    auto& dropped = counters_["obs.dropped_events"];
    if (!dropped) dropped = std::make_unique<Counter>();
    dropped->add(1);
    return;
  }
  TraceEvent ev;
  ev.name = std::string(name);
  ev.tsMicros = ts;
  ev.durMicros = dur;
  ev.tid = tid;
  ev.depth = depth;
  ev.args = args;
  events_.push_back(std::move(ev));
}

std::vector<SpanStat> Registry::spanStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanStat> out;
  out.reserve(spanAggs_.size());
  for (const auto& [name, agg] : spanAggs_) {
    out.push_back({name, agg.count, agg.totalSeconds, agg.maxSeconds});
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
  spanAggs_.clear();
  events_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

std::size_t Registry::eventCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string Registry::metricsTable() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "== counters ==\n";
  for (const auto& [name, c] : counters_) {
    if (c->value() == 0) continue;
    os << "  " << name << " = " << c->value() << "\n";
  }
  os << "== spans (count, total ms, max ms) ==\n";
  for (const auto& [name, agg] : spanAggs_) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%8lld  %10.3f  %10.3f",
                  static_cast<long long>(agg.count), agg.totalSeconds * 1e3,
                  agg.maxSeconds * 1e3);
    os << "  " << name << ": " << buf << "\n";
  }
  os << "== histograms (count, sum, max) ==\n";
  for (const auto& [name, h] : histograms_) {
    if (h->count() == 0) continue;
    os << "  " << name << ": n=" << h->count() << " sum=" << h->sum()
       << " max=" << h->max() << "\n";
  }
  return os.str();
}

std::string Registry::metricsJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    util::appendJsonString(out, name);
    out.push_back(':');
    out += std::to_string(c->value());
  }
  out += "},\"spans\":{";
  first = true;
  for (const auto& [name, agg] : spanAggs_) {
    if (!first) out.push_back(',');
    first = false;
    util::appendJsonString(out, name);
    out += ":{\"count\":" + std::to_string(agg.count) + ",\"total_ms\":";
    appendDouble(out, agg.totalSeconds * 1e3);
    out += ",\"max_ms\":";
    appendDouble(out, agg.maxSeconds * 1e3);
    out += "}";
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    util::appendJsonString(out, name);
    out += ":{\"count\":" + std::to_string(h->count()) +
           ",\"sum\":" + std::to_string(h->sum()) +
           ",\"max\":" + std::to_string(h->max()) + ",\"buckets\":[";
    // Trailing zero buckets are elided to keep the document small.
    int last = Histogram::kBuckets - 1;
    while (last >= 0 && h->bucket(last) == 0) --last;
    for (int i = 0; i <= last; ++i) {
      if (i) out.push_back(',');
      out += std::to_string(h->bucket(i));
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

std::string Registry::chromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  // Thread-name metadata first so the viewer labels rows immediately.
  for (const auto& [tid, label] : threadLabels_) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":";
    util::appendJsonString(out, label);
    out += "}}";
  }
  for (const auto& ev : events_) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(ev.tid) +
           ",\"ts\":";
    appendDouble(out, ev.tsMicros);
    out += ",\"dur\":";
    appendDouble(out, ev.durMicros);
    out += ",\"name\":";
    util::appendJsonString(out, ev.name);
    if (!ev.args.empty() || ev.depth > 0) {
      out += ",\"args\":{\"depth\":" + std::to_string(ev.depth);
      for (const auto& [k, v] : ev.args) {
        out.push_back(',');
        util::appendJsonString(out, k);
        out.push_back(':');
        out += std::to_string(v);
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace ruleplace::obs

#endif  // RULEPLACE_NO_OBS
