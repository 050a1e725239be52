// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark itself, around its calls into each
// layer of the program (data, core, fl, prune, nn, serve); nothing inside the
// program is instrumented. A span has a name, a start and end on the
// steady clock, and the span that was open when it began (its parent). The
// spans stay in memory and are written out once, at exit, as Chrome
// trace-event JSON, which chrome://tracing and Perfetto open.
//
// Untraced runs pass a null Tracer*; Scope then does nothing, so the
// end-to-end numbers never include recording cost.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;  // since the tracer was created
  double end_us = 0.0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root span
  [[nodiscard]] double duration_us() const { return end_us - start_us; }
};

/// Records nested spans from one thread. Spans open and close only through
/// Scope, so they always close innermost first.
class Tracer {
 public:
  Tracer();

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// RAII span whose parent is the innermost span still open; a null tracer
  /// records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name)
        : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(std::move(name)) : -1) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

 private:
  int begin(std::string name);
  void end(int id);
  [[nodiscard]] double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once, and
/// children are clipped to the parent's interval).
std::vector<double> self_times_us(const std::vector<Span>& spans);

/// `s` as a quoted, escaped JSON string.
std::string json_string(const std::string& s);

/// Write the spans as Chrome trace-event JSON ("X" complete events on one
/// thread, nested by time). Returns false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans);

/// Write a per-span-name table (count, total and self time in ms) sorted by
/// total time. Returns false when the file cannot be written.
bool write_layer_table(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
