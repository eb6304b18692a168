#include "trace.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int32_t Tracer::open(const char* name, std::int64_t request, std::int64_t tag) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(Span{name, 0, 0, current(), request, tag});
  open_.push_back(index);
  spans_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(std::int32_t span) {
  const std::int64_t end = now_ns();
  if (open_.empty() || open_.back() != span) {
    throw std::logic_error("Tracer: spans must close innermost first");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(span)].end_ns = end;
}

void Tracer::record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                    std::int32_t parent, std::int64_t request, std::int64_t tag) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, request, tag});
}

std::vector<std::int64_t> Tracer::child_ns() const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) covered[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  return covered;
}

std::vector<double> Tracer::self_seconds(const std::string& name, std::int64_t tag) const {
  const std::vector<std::int64_t> covered = child_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name || (tag >= 0 && s.tag != tag)) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered[i]) * 1e-9);
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name, std::int64_t tag) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name != s.name || (tag >= 0 && s.tag != tag)) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

double Tracer::unaccounted_share(const std::string& root) const {
  const std::vector<std::int64_t> covered = child_ns();
  std::int64_t total = 0;
  std::int64_t unaccounted = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent != kNoParent || root != s.name) continue;
    total += s.end_ns - s.start_ns;
    unaccounted += s.end_ns - s.start_ns - covered[i];
  }
  return total > 0 ? static_cast<double>(unaccounted) / static_cast<double>(total) : 0.0;
}

bool Tracer::write(const std::string& dir, const std::string& file) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = dir + "/" + file;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return false;
  }
  // One span per line: [name, start_ns, end_ns, parent, request, tag].
  out << "{\"fields\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"request\", \"tag\"],\n"
         " \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  [\"" << s.name << "\", " << s.start_ns << ", " << s.end_ns << ", " << s.parent
        << ", " << s.request << ", " << s.tag << "]" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.good();
}

double overhead_share(const std::vector<double>& traced, const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base > 0.0 ? (median(traced) - base) / base : 0.0;
}

}  // namespace perfbench
