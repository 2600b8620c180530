#include "spans.h"

#include <string_view>

#include "obs/json.h"

namespace piggybench {

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanLog::begin(const char* name) {
  spans_.push_back({name, open_, now_ns(), 0});
  open_ = static_cast<int>(spans_.size() - 1);
  return open_;
}

void SpanLog::end(int id) {
  auto& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  open_ = span.parent;
}

std::map<std::string, double> SpanLog::self_seconds() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    const auto duration = span.end_ns - span.start_ns;
    self[i] += duration;
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= duration;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

double SpanLog::total_seconds(std::string_view name) const {
  std::int64_t total = 0;
  for (const auto& span : spans_) {
    if (name == span.name) total += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

std::string SpanLog::chrome_json() const {
  using piggyweb::obs::Json;
  auto events = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    const std::string_view name = span.name;
    auto event = Json::object();
    event.set("name", span.name);
    event.set("cat", std::string(name.substr(0, name.find('.'))));
    event.set("ph", "X");
    event.set("ts", static_cast<double>(span.start_ns) * 1e-3);
    event.set("dur", static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    event.set("pid", 1);
    event.set("tid", 1);
    auto args = Json::object();
    args.set("id", static_cast<std::int64_t>(i));
    args.set("parent", static_cast<std::int64_t>(span.parent));
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  auto doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc.dump();
}

}  // namespace piggybench
