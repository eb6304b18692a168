#pragma once

// Spans recorded by the benchmark around its calls into each layer's public
// functions. Spans stay in memory while the run measures and are written out
// when it ends; per-layer numbers are self times (a span's duration minus
// the part its direct children cover).
//
// Not thread-safe: every span is opened and closed on the benchmark's own
// thread. Work done on another thread (a server responder) is timed there
// and added afterwards with record().

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::int32_t kNoParent = -1;

  /// Opens a span as a child of the innermost open span (or as a root).
  /// `request` groups the spans of one operation; `tag` carries a size or
  /// class the summaries filter on (the ladder rung's node count, say).
  std::int32_t open(const char* name, std::int64_t request, std::int64_t tag = 0);
  void close(std::int32_t span);

  /// Adds a finished span under `parent` (timed elsewhere).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns, std::int32_t parent,
              std::int64_t request, std::int64_t tag = 0);

  /// Innermost open span, or kNoParent.
  [[nodiscard]] std::int32_t current() const {
    return open_.empty() ? kNoParent : open_.back();
  }

  /// Self times in seconds of every span named `name` (all tags, or only
  /// `tag` when it is non-negative).
  [[nodiscard]] std::vector<double> self_seconds(const std::string& name,
                                                 std::int64_t tag = -1) const;
  /// Durations in seconds of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              std::int64_t tag = -1) const;

  /// Share of the root spans' total time that no direct child accounts for,
  /// over the roots named `root`.
  [[nodiscard]] double unaccounted_share(const std::string& root) const;

  /// Writes every span as one JSON document to `dir/<file>`; returns false
  /// (after printing why) when the file cannot be written.
  bool write(const std::string& dir, const std::string& file) const;

 private:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = kNoParent;
    std::int64_t request = 0;
    std::int64_t tag = 0;
  };
  [[nodiscard]] std::vector<std::int64_t> child_ns() const;

  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer makes it free (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::int64_t request, std::int64_t tag = 0)
      : tracer_(tracer), span_(tracer ? tracer->open(name, request, tag) : Tracer::kNoParent) {}
  ~Scope() {
    if (tracer_) tracer_->close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t span_;
};

/// Tracing overhead as a share of the untraced time: (traced - untraced) /
/// untraced over the medians of matched operations.
[[nodiscard]] double overhead_share(const std::vector<double>& traced,
                                    const std::vector<double>& untraced);

}  // namespace perfbench
