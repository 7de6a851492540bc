// Shared helpers for the figure-reproduction benches: fixed-width
// table printing and the common experiment grid drivers.
//
// Every bench prints the same rows/series as the corresponding figure
// or table in the paper; EXPERIMENTS.md records the comparison.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "measure/runner.h"

namespace aspect {
namespace bench {

/// The seed used by every figure bench (fully deterministic output).
inline constexpr uint64_t kSeed = 20190401;

class BenchReport;

/// The report the free helpers (Banner) feed phases into.
inline BenchReport*& ActiveBenchReport() {
  static BenchReport* active = nullptr;
  return active;
}

/// Machine-readable run record. Construct one at the top of main and
/// every Banner() becomes a timed phase; the destructor writes
/// BENCH_<name>.json (name, wall-clock ms, tuples/s, hardware thread
/// count, serial-equivalence verdict, per-phase breakdown, free-form
/// metrics and notes) into the working directory so CI and regression
/// scripts can diff runs without scraping the tables.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), start_(Clock::now()) {
    ActiveBenchReport() = this;
  }
  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() {
    if (ActiveBenchReport() == this) ActiveBenchReport() = nullptr;
    Write();
  }

  /// Starts a new timed phase, ending the previous one.
  void Phase(const std::string& title) {
    ClosePhase();
    current_ = title;
    in_phase_ = true;
    phase_start_ = Clock::now();
  }

  /// Tuples processed by the bench; reported as tuples/s over the
  /// whole wall clock.
  void AddTuples(int64_t n) { tuples_ += n; }

  /// Free-form scalar (speedups, errors, thread counts, ...).
  void Metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Free-form string annotation; emitted under a "notes" object (only
  /// present when at least one note was added). Use for machine-state
  /// caveats a scalar can't carry, e.g. why a comparison was skipped.
  void Note(const std::string& key, const std::string& text) {
    notes_.emplace_back(key, text);
  }

  /// Records whether every parallel configuration in this bench ended
  /// bit-identical (or error-identical) to its serial equivalent.
  /// Benches that assert the identity call this after the checks pass;
  /// the JSON then carries "serial_equivalent": true/false so CI can
  /// gate on it without scraping stdout.
  void SerialEquivalent(bool ok) {
    serial_equivalent_ = ok;
    has_serial_equivalent_ = true;
  }

  /// JSON string escaping for the report writer. Besides quotes and
  /// backslashes this must escape every control character below 0x20
  /// (JSON forbids them raw inside strings): the common ones get their
  /// two-character forms, the rest the \u00XX form.
  static std::string Escaped(const std::string& s) {
    static const char* kHex = "0123456789abcdef";
    std::string out;
    for (const char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        case '\r':
          out += "\\r";
          break;
        case '\b':
          out += "\\b";
          break;
        case '\f':
          out += "\\f";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            out += "\\u00";
            out.push_back(kHex[(c >> 4) & 0xf]);
            out.push_back(kHex[c & 0xf]);
          } else {
            out.push_back(c);
          }
      }
    }
    return out;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static double MsBetween(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  }

  void ClosePhase() {
    if (!in_phase_) return;
    phases_.emplace_back(current_, MsBetween(phase_start_, Clock::now()));
    in_phase_ = false;
  }

  void Write() {
    ClosePhase();
    const double wall_ms = MsBetween(start_, Clock::now());
    const std::string path = "BENCH_" + name_ + ".json";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"name\": \"%s\",\n", Escaped(name_).c_str());
    std::fprintf(f, "  \"wall_clock_ms\": %.3f,\n", wall_ms);
    std::fprintf(f, "  \"tuples\": %lld,\n",
                 static_cast<long long>(tuples_));
    std::fprintf(f, "  \"tuples_per_s\": %.1f,\n",
                 tuples_ > 0 ? tuples_ / (wall_ms / 1000.0) : 0.0);
    // Machine context: thread-count-sensitive metrics (speedups, phase
    // seconds) only compare across runs on the same hardware width.
    std::fprintf(f, "  \"hardware_threads\": %d,\n",
                 ThreadPool::HardwareThreads());
    if (has_serial_equivalent_) {
      std::fprintf(f, "  \"serial_equivalent\": %s,\n",
                   serial_equivalent_ ? "true" : "false");
    }
    if (!notes_.empty()) {
      std::fprintf(f, "  \"notes\": {");
      for (size_t i = 0; i < notes_.size(); ++i) {
        std::fprintf(f, "%s\n    \"%s\": \"%s\"", i == 0 ? "" : ",",
                     Escaped(notes_[i].first).c_str(),
                     Escaped(notes_[i].second).c_str());
      }
      std::fprintf(f, "\n  },\n");
    }
    std::fprintf(f, "  \"phases\": [");
    for (size_t i = 0; i < phases_.size(); ++i) {
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"ms\": %.3f}",
                   i == 0 ? "" : ",", Escaped(phases_[i].first).c_str(),
                   phases_[i].second);
    }
    std::fprintf(f, "\n  ],\n  \"metrics\": {");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %.6f", i == 0 ? "" : ",",
                   Escaped(metrics_[i].first).c_str(), metrics_[i].second);
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }

  std::string name_;
  Clock::time_point start_;
  Clock::time_point phase_start_;
  std::string current_;
  bool in_phase_ = false;
  int64_t tuples_ = 0;
  bool serial_equivalent_ = false;
  bool has_serial_equivalent_ = false;
  std::vector<std::pair<std::string, double>> phases_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

inline void Banner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (ActiveBenchReport() != nullptr) ActiveBenchReport()->Phase(title);
}

// Every cell is padded to 10 columns and ends in at least one space,
// so a label of 10 or more characters cannot run into the next column.
inline void Header(const std::vector<std::string>& cols) {
  for (const std::string& c : cols) std::printf("%-9s ", c.c_str());
  std::printf("\n");
}

inline void Cell(const std::string& s) { std::printf("%-9s ", s.c_str()); }

inline void Cell(double v) {
  if (v == 0) {
    std::printf("%-9s ", "0");
  } else if (v < 0.001) {
    std::printf("%-9.1e ", v);
  } else if (v >= 1000) {
    std::printf("%-9.0f ", v);
  } else {
    std::printf("%-9.4f ", v);
  }
}

inline void EndRow() { std::printf("\n"); }

/// Pulls the named property error out of an experiment result.
inline double PropertyOf(const PropertyErrors& e, const std::string& name) {
  if (name == "linear") return e.linear;
  if (name == "coappear") return e.coappear;
  return e.pairwise;
}

}  // namespace bench
}  // namespace aspect
