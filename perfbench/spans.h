// In-memory span log for the benchmark's traced run.
//
// The benchmark times its own calls into each layer's public functions; a
// span is one such call (or one batch of them). Span names are
// "<layer>.<what>" string literals, so the layer is the part before the
// first dot. Spans nest by call order: a span opened while another is open
// is its child, and a span's self time is its duration minus the time its
// children cover. The log lives in memory and is written out once, as
// Chrome trace-event JSON, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace piggybench {

class SpanLog {
 public:
  struct Span {
    const char* name;  // string literal, "<layer>.<what>"
    int parent;        // index into spans(), -1 for a root span
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  int begin(const char* name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }

  // Summed self time in seconds per span name.
  std::map<std::string, double> self_seconds() const;
  // Summed duration in seconds of every span called `name`.
  double total_seconds(std::string_view name) const;

  // Chrome trace-event JSON ("X" events, one per span).
  std::string chrome_json() const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

// RAII span around one layer call. A null log makes it a no-op, so the
// same set-up code serves the untraced and the traced run.
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->begin(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace piggybench
