// lyric_stats — offline inspection of LyriC metrics snapshots.
//
//   $ lyric_stats snapshot.json              pretty-print one snapshot
//   $ lyric_stats --diff old.json new.json   per-metric deltas
//   $ lyric_stats --check-prom file.prom     validate a Prometheus dump
//
// Snapshots are what Registry::ExportJson / LYRIC_METRICS_OUT write (the
// shell's `.metrics json PATH` too). --check-prom runs the same validator
// the ctest exposition gate uses, so CI and operators agree on what a
// well-formed dump is. The JSON reader below covers exactly the subset the
// exporter emits (objects of numbers, two levels deep) — not a general
// JSON library, on purpose: this tool must build with no dependencies.

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "obs/metrics.h"

namespace {

struct JsonValue {
  bool is_object = false;
  double num = 0;
  std::map<std::string, JsonValue> members;
};

// Minimal recursive-descent parser for the exporter's subset: objects,
// numbers, and escaped strings as keys. Returns false with a message on
// anything else.
class SnapshotParser {
 public:
  explicit SnapshotParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out, std::string* error) {
    bool ok = ParseValue(out) && (SkipWs(), pos_ == text_.size());
    if (!ok && error != nullptr) {
      *error = "parse error near byte " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    if (text_[pos_] == '{') return ParseObject(out);
    return ParseNumber(out);
  }

  bool ParseObject(JsonValue* out) {
    out->is_object = true;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!ParseValue(&out->members[key])) return false;
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (pos_ + 1 >= text_.size()) return false;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'u':
            // Keys the exporter writes never need non-ASCII escapes;
            // decode the common case and keep the raw text otherwise.
            if (pos_ + 4 <= text_.size()) {
              out->append("\\u").append(text_, pos_, 4);
              pos_ += 4;
            }
            break;
          default: out->push_back(esc); break;
        }
        continue;
      }
      out->push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    out->num = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<size_t>(end - start);
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool LoadSnapshot(const std::string& path, JsonValue* out) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::cerr << "lyric_stats: cannot read " << path << "\n";
    return false;
  }
  std::string error;
  if (!SnapshotParser(text).Parse(out, &error) || !out->is_object) {
    std::cerr << "lyric_stats: " << path << ": " << error << "\n";
    return false;
  }
  return true;
}

std::string FormatNum(double v) {
  if (v == static_cast<double>(static_cast<long long>(v))) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

// The field order the pretty-printer and differ use for nested metrics;
// anything not listed prints after, alphabetically.
const char* const kFieldOrder[] = {"count", "sum",  "total_ns", "mean",
                                   "p50",   "p90",  "p99",      "p999",
                                   "max",   "max_ns"};

void PrintNested(const JsonValue& metric) {
  std::map<std::string, JsonValue> rest = metric.members;
  bool first = true;
  auto emit = [&](const std::string& field, double v) {
    std::cout << (first ? "" : ", ") << field << "=" << FormatNum(v);
    first = false;
  };
  for (const char* field : kFieldOrder) {
    auto it = rest.find(field);
    if (it == rest.end()) continue;
    emit(field, it->second.num);
    rest.erase(it);
  }
  for (const auto& [field, v] : rest) emit(field, v.num);
  std::cout << "\n";
}

int PrintSnapshot(const std::string& path) {
  JsonValue root;
  if (!LoadSnapshot(path, &root)) return 1;
  for (const auto& [section, metrics] : root.members) {
    if (metrics.members.empty()) continue;
    std::cout << section << ":\n";
    for (const auto& [name, metric] : metrics.members) {
      std::cout << "  " << name << ": ";
      if (metric.is_object) {
        PrintNested(metric);
      } else {
        std::cout << FormatNum(metric.num) << "\n";
      }
    }
  }
  return 0;
}

int DiffSnapshots(const std::string& old_path, const std::string& new_path) {
  JsonValue older, newer;
  if (!LoadSnapshot(old_path, &older) || !LoadSnapshot(new_path, &newer)) {
    return 1;
  }
  for (const auto& [section, metrics] : newer.members) {
    bool header = false;
    for (const auto& [name, metric] : metrics.members) {
      const JsonValue* before = nullptr;
      auto sit = older.members.find(section);
      if (sit != older.members.end()) {
        auto mit = sit->second.members.find(name);
        if (mit != sit->second.members.end()) before = &mit->second;
      }
      std::ostringstream line;
      if (!metric.is_object) {
        const double prev = before != nullptr ? before->num : 0;
        if (metric.num == prev) continue;
        line << FormatNum(prev) << " -> " << FormatNum(metric.num) << " ("
             << (metric.num >= prev ? "+" : "")
             << FormatNum(metric.num - prev) << ")";
      } else {
        // Nested metrics diff by count; the rest of the fields print at
        // their new values (percentiles are not subtractable).
        auto count = metric.members.find("count");
        const double now = count != metric.members.end() ? count->second.num : 0;
        double prev = 0;
        if (before != nullptr) {
          auto pc = before->members.find("count");
          if (pc != before->members.end()) prev = pc->second.num;
        }
        if (now == prev) continue;
        line << "count " << FormatNum(prev) << " -> " << FormatNum(now)
             << " (+" << FormatNum(now - prev) << "); now ";
        std::ostringstream tail;
        std::streambuf* saved = std::cout.rdbuf(tail.rdbuf());
        PrintNested(metric);
        std::cout.rdbuf(saved);
        std::string t = tail.str();
        if (!t.empty() && t.back() == '\n') t.pop_back();
        line << t;
      }
      if (!header) {
        std::cout << section << ":\n";
        header = true;
      }
      std::cout << "  " << name << ": " << line.str() << "\n";
    }
  }
  return 0;
}

int CheckProm(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) {
    std::cerr << "lyric_stats: cannot read " << path << "\n";
    return 1;
  }
  std::string error;
  if (!lyric::obs::ValidatePrometheusExposition(text, &error)) {
    std::cerr << "lyric_stats: " << path << ": " << error << "\n";
    return 1;
  }
  std::cout << path << ": ok\n";
  return 0;
}

int Usage() {
  std::cerr << "usage: lyric_stats SNAPSHOT.json\n"
               "       lyric_stats --diff OLD.json NEW.json\n"
               "       lyric_stats --check-prom FILE.prom\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // No Config::FromEnv().Apply() here: a LYRIC_METRICS_OUT flusher would
  // overwrite, at exit, the snapshot this tool was asked to read.
  if (argc == 2 && argv[1][0] != '-') return PrintSnapshot(argv[1]);
  if (argc == 4 && std::string(argv[1]) == "--diff") {
    return DiffSnapshots(argv[2], argv[3]);
  }
  if (argc == 3 && std::string(argv[1]) == "--check-prom") {
    return CheckProm(argv[2]);
  }
  return Usage();
}
