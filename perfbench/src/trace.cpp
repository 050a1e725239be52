#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), now_us(), 0.0, parent});
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<size_t>(id)].end_us = now_us();
  open_.pop_back();
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      const auto& p = spans[static_cast<size_t>(s.parent)];
      const double lo = std::max(s.start_us, p.start_us);
      const double hi = std::min(s.end_us, p.end_us);
      if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = spans[i].duration_us() - covered;
  }
  return self;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,\"parent\":%d}}%s\n",
                 json_string(s.name).c_str(),
                 json_string(s.name.substr(0, s.name.find('.'))).c_str(), s.start_us,
                 s.duration_us(), i, s.parent, i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

bool write_layer_table(const std::string& path, const std::vector<Span>& spans) {
  struct Row {
    int count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  const auto self = self_times_us(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& r = rows[spans[i].name];
    ++r.count;
    r.total_us += spans[i].duration_us();
    r.self_us += self[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second.total_us > b.second.total_us; });
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%-36s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, r] : sorted) {
    std::fprintf(f, "%-36s %8d %14.3f %14.3f\n", name.c_str(), r.count, r.total_us / 1e3,
                 r.self_us / 1e3);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
