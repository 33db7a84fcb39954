#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>

namespace perfbench {

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

bool Checks::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
  return ok;
}

Tracer::Scope::Scope(Tracer* t, const char* name, std::int64_t job)
    : t_(t != nullptr && t->on_ ? t : nullptr) {
  if (t_ == nullptr) return;
  idx_ = static_cast<int>(t_->spans_.size());
  t_->spans_.push_back({name, t_->now_ns(), -1, t_->open_, job});
  t_->open_ = idx_;
}

double Tracer::Scope::close() {
  if (t_ == nullptr) return 0.0;
  Span& s = t_->spans_[static_cast<std::size_t>(idx_)];
  if (s.end_ns < 0) {
    s.end_ns = t_->now_ns();
    t_->open_ = s.parent;
  }
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
}

Tracer::Scope::~Scope() { close(); }

double Tracer::child_ms(int idx) const {
  std::int64_t ns = 0;
  for (std::size_t i = static_cast<std::size_t>(idx) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == idx) ns += spans_[i].end_ns - spans_[i].start_ns;
  }
  return static_cast<double>(ns) * 1e-6;
}

std::vector<std::pair<std::string, double>> Tracer::self_ms_by_layer() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, std::int64_t> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string name = spans_[i].name;
    by_layer[name.substr(0, name.find('.'))] += self[i];
  }
  std::vector<std::pair<std::string, double>> out;
  for (const auto& [layer, ns] : by_layer) {
    out.emplace_back(layer, static_cast<double>(ns) * 1e-6);
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%lld,"
                  "\"parent\":%d}}",
                  i ? "," : "", s.name, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<long long>(s.job), s.parent);
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
