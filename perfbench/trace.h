#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are opened and closed around calls into the program's public
// functions from the benchmark's own code; nothing inside src/ is
// instrumented by it.  Each span records its name, start, end, parent and
// (for serve events) the event seq.  Recording appends to a per-thread
// buffer, so the hot path takes no lock; the buffers are merged when the
// run ends, written out as a Chrome trace and reduced to per-name totals
// and self times (duration minus the union of the children's intervals).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t nowNs();
/// CPU seconds consumed by the whole process (all threads).
double processCpuSeconds();

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t id = -1;
    std::int64_t parent = -1;  ///< -1 = root
    std::int64_t seq = -1;     ///< serve event seq, -1 when not an event
    int tid = 0;
  };

  /// Span totals for one name: calls and summed self time, plus every
  /// call's duration (for percentiles).
  struct Stat {
    std::int64_t count = 0;
    double selfMs = 0.0;
    std::vector<double> durationsMs;
  };

  static Tracer& global();

  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// still open on this thread, or `parent` when given (a span opened on a
  /// pool thread on behalf of a span on another).  Returns -1 when off.
  std::int64_t open(const char* name, std::int64_t seq = -1,
                    std::int64_t parent = -2);
  void close(std::int64_t id);

  /// RAII wrapper over open()/close().
  class Scope {
   public:
    explicit Scope(const char* name, std::int64_t seq = -1,
                   std::int64_t parent = -2)
        : id_(Tracer::global().open(name, seq, parent)) {}
    ~Scope() { Tracer::global().close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return id_; }

   private:
    std::int64_t id_;
  };

  /// Merge every thread's closed spans (call once recording has stopped).
  std::vector<Span> collect() const;
  static std::map<std::string, Stat> stats(const std::vector<Span>& spans);
  static std::string chromeJson(const std::vector<Span>& spans);

 private:
  struct ThreadBuffer {
    int tid = 0;
    std::vector<Span> closed;
    std::vector<Span> open;  ///< stack of spans still running
  };
  ThreadBuffer& buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> nextId_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;  ///< guarded by mu_
};

}  // namespace perfbench
