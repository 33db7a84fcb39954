// Shared pieces of the perfbench harness: seeded RNG, digests, percentiles,
// correctness tallies, the metric list a phase hands back, and the span
// tracer the traced run (--trace 1) records around every library call.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// splitmix64: the benchmark's only source of randomness. Every input a
/// phase hands the library is drawn from a stream keyed by (run seed,
/// stream id), so the same --seed gives the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, n).
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(uniform() * n);
  }

 private:
  std::uint64_t s_;
};

inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  return Rng(seed * 0x2545f4914f6cdd1dULL ^ stream).next();
}

/// FNV-1a over the bytes of simulated outputs. Doubles are hashed by bit
/// pattern: a digest matches only if every simulated value is identical.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void str(const std::string& s) {
    bytes(s.data(), s.size());
    u64(s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof v);
    u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A number with all its digits, as the result line prints it.
std::string num(double v);
/// A JSON string literal.
std::string json_str(const std::string& s);

/// Nearest-rank percentile (an actual sample); 0 for an empty input.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Correctness tally of one phase: every check is one attempted operation.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Counts one check; reports a failure on stderr. Returns `ok`.
  bool expect(bool ok, const std::string& what);
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Span recorder for the traced run. Spans live in memory and are written
/// out once, at the end, as Chrome trace-event JSON. A disabled tracer
/// records nothing; the untraced run never constructs spans at all.
class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< "<layer>.<call>", a string literal.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;        ///< Index of the enclosing span, -1 for roots.
    std::int64_t job = -1;  ///< Operation the span belongs to.
  };

  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::int64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far (or final, after close()) in ms.
    double close();

   private:
    Tracer* t_;
    int idx_ = -1;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {
    if (on_) spans_.reserve(1 << 16);
  }
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (duration minus the time its direct children
  /// cover), summed per layer — the name up to its first '.'.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_ms_by_layer()
      const;
  /// Sum of direct-children durations of span `idx`, in ms.
  [[nodiscard]] double child_ms(int idx) const;
  /// Writes the spans as Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool write_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool on_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< Innermost open span (single-threaded recording).
};

/// Run-wide context every phase receives.
struct PhaseArgs {
  std::uint64_t seed = 1;
  int threads = 1;       ///< Host threads the library may use (nproc).
  Tracer* tracer = nullptr;
};

/// What a phase hands back to main.
struct PhaseOut {
  Metrics end_to_end;  ///< Filled by the untraced run.
  Metrics per_layer;   ///< Filled by the traced run.
  Checks checks;
  std::string digest;  ///< Simulated outputs of the fixed-size prefix.
  std::vector<std::string> notes;  ///< Extra "key": value JSON members.
};

}  // namespace perfbench
