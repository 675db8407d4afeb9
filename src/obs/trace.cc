#include "obs/trace.h"

#include <cstdio>

#include "obs/metrics.h"
#include "obs/query_context.h"
#include "util/fault.h"

namespace lyric {
namespace obs {

namespace {

std::string FormatDurNs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%10.3f ms",
                static_cast<double>(ns) / 1e6);
  return buf;
}

void AppendPretty(const SpanNode& node, int depth, std::string* out) {
  std::string label(static_cast<size_t>(depth) * 2, ' ');
  label += node.name;
  if (label.size() < 44) label += std::string(44 - label.size(), ' ');
  *out += label + FormatDurNs(node.dur_ns) + "\n";
  for (const auto& child : node.children) {
    AppendPretty(*child, depth + 1, out);
  }
}

void AppendChromeEvents(const SpanNode& node, bool* first,
                        std::string* out) {
  if (!*first) *out += ",\n";
  *first = false;
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                "\"pid\": 1, \"tid\": 1}",
                static_cast<double>(node.start_ns) / 1e3,
                static_cast<double>(node.dur_ns) / 1e3);
  *out += "{\"name\": \"" + JsonEscape(node.name) +
          "\", \"cat\": \"lyric\", " + buf;
  for (const auto& child : node.children) {
    AppendChromeEvents(*child, first, out);
  }
}

}  // namespace

const SpanNode* SpanNode::FindChild(const std::string& child_name) const {
  for (const auto& child : children) {
    if (child->name == child_name) return child.get();
  }
  return nullptr;
}

size_t SpanNode::CountChildren(const std::string& child_name) const {
  size_t n = 0;
  for (const auto& child : children) {
    if (child->name == child_name) ++n;
  }
  return n;
}

TraceCollector::TraceCollector()
    : base_(std::chrono::steady_clock::now()) {
  root_.name = "query";
}

uint64_t TraceCollector::NowNs() const {
  auto elapsed = std::chrono::steady_clock::now() - base_;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
}

void TraceCollector::Finish() {
  root_.dur_ns = NowNs();
  current_ = &root_;
}

std::string TraceCollector::ToPrettyString() const {
  std::string out;
  AppendPretty(root_, 0, &out);
  return out;
}

std::string TraceCollector::ToChromeTraceJson() const {
  std::string out = "{\"traceEvents\": [\n";
  bool first = true;
  AppendChromeEvents(root_, &first, &out);
  out += "\n]}\n";
  return out;
}

namespace {

// Simulated span-open failure: the span is silently dropped (its children
// re-parent to the enclosing span). Observability may thin out but query
// results are untouched — the contract the trace fault gate verifies.
bool TraceFault() {
  return fault::Enabled() && fault::Inject(fault::kSiteTrace);
}

}  // namespace

Span::Span(const char* name) {
  QueryContext* context = QueryContext::Current();
  TraceCollector* collector = context == nullptr ? nullptr : context->trace;
  if (collector == nullptr || TraceFault()) return;
  collector_ = collector;
  parent_ = collector->current_;
  auto node = std::make_unique<SpanNode>();
  node->name = name;
  node->start_ns = collector->NowNs();
  node_ = node.get();
  parent_->children.push_back(std::move(node));
  collector->current_ = node_;
}

Span::~Span() {
  if (node_ == nullptr) return;
  node_->dur_ns = collector_->NowNs() - node_->start_ns;
  collector_->current_ = parent_;
}

}  // namespace obs
}  // namespace lyric
