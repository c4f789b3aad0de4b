#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"
#include "common/strings.h"
#include "data/synthetic.h"

namespace perfbench {
namespace {

// Shortest decimal form that reads back as the same double.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  for (int digits = 15; digits <= 17; ++digits) {
    std::string s = tcss::StrFormat("%.*g", digits, v);
    if (std::strtod(s.c_str(), nullptr) == v) return s;
  }
  return tcss::StrFormat("%.17g", v);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += tcss::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

const tcss::obs::HistogramSnapshot* FindHist(
    const tcss::obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

uint64_t FindCounter(const tcss::obs::MetricsSnapshot& s,
                     const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Context(const std::string& key, const std::string& json) {
  context_.emplace_back(key, json);
}

void Report::Share(const std::string& name, double count, double base) {
  shares_.emplace_back(
      name, tcss::StrFormat("{\"share\": %s, \"count\": %s, \"base\": %s}",
                            JsonNumber(base > 0 ? count / base : 0.0).c_str(),
                            JsonNumber(count).c_str(),
                            JsonNumber(base).c_str()));
}

void Report::Fail(const std::string& why) {
  std::fprintf(stderr, "check failed: %s\n", why.c_str());
  failures_.push_back(why);
}

double Report::MetricValue(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.value;
}

void Report::Print() const {
  std::string ctx = "{";
  for (size_t i = 0; i < context_.size(); ++i) {
    ctx += (i ? ", " : "") + JsonString(context_[i].first) + ": " +
           context_[i].second;
  }
  std::printf("context %s}\n", ctx.c_str());
  std::string shares = "{";
  for (size_t i = 0; i < shares_.size(); ++i) {
    shares += (i ? ", " : "") + JsonString(shares_[i].first) + ": " +
              shares_[i].second;
  }
  std::printf("shares %s}\n", shares.c_str());
  for (const std::string& f : failures_) {
    std::printf("failure %s\n", JsonString(f).c_str());
  }

  std::string metrics = "{";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    metrics += (first ? "" : ", ") + JsonString(name) +
               ": {\"value\": " + JsonNumber(v.value) +
               ", \"unit\": " + JsonString(v.unit) + "}";
    first = false;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}}\n",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

Tracer::Span::Span(Tracer* tracer, const char* name, uint64_t request_id)
    : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  const int64_t parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  index_ = static_cast<int64_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(
      {name, Clock::now(), Clock::time_point{}, parent, request_id});
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  Record& r = tracer_->spans_[static_cast<size_t>(index_)];
  r.end = Clock::now();
  tracer_->open_.pop_back();
  // Children of one single-threaded span never overlap, so the covered
  // part of the parent's interval is the sum of their durations.
  if (r.parent >= 0) {
    tracer_->spans_[static_cast<size_t>(r.parent)].child_ms +=
        std::chrono::duration<double, std::milli>(r.end - r.start).count();
  }
}

double Tracer::SelfMs(const std::string& name) const {
  double ms = 0.0;
  for (const Record& r : spans_) {
    if (r.name == name) {
      ms += std::chrono::duration<double, std::milli>(r.end - r.start)
                .count() -
            r.child_ms;
    }
  }
  return ms;
}

size_t Tracer::Count(const std::string& name) const {
  return static_cast<size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Record& r) { return r.name == name; }));
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << tcss::StrFormat(
        "{\"id\": %zu, \"name\": %s, \"start_us\": %.3f, \"end_us\": %.3f, "
        "\"parent\": %lld, \"request_id\": %llu}\n",
        i, JsonString(r.name).c_str(), us(r.start), us(r.end),
        static_cast<long long>(r.parent),
        static_cast<unsigned long long>(r.request_id));
  }
  return static_cast<bool>(out);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double idx = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  if (frac == 0.0 || lo == hi) return v[lo];
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

tcss::obs::HistogramSnapshot HistDelta(
    const tcss::obs::MetricsSnapshot& before,
    const tcss::obs::MetricsSnapshot& after, const std::string& name) {
  tcss::obs::HistogramSnapshot d;
  d.name = name;
  const tcss::obs::HistogramSnapshot* a = FindHist(after, name);
  if (a == nullptr) return d;
  d = *a;
  if (const tcss::obs::HistogramSnapshot* b = FindHist(before, name)) {
    d.count -= b->count;
    d.sum -= b->sum;
    for (size_t i = 0; i < d.buckets.size() && i < b->buckets.size(); ++i) {
      d.buckets[i] -= b->buckets[i];
    }
  }
  return d;
}

uint64_t CounterDelta(const tcss::obs::MetricsSnapshot& before,
                      const tcss::obs::MetricsSnapshot& after,
                      const std::string& name) {
  return FindCounter(after, name) - FindCounter(before, name);
}

tcss::Result<tcss::Dataset> GenerateWorkloadData(const WorkloadSpec& spec) {
  tcss::SyntheticConfig cfg =
      tcss::PresetConfig(tcss::SyntheticPreset::kGowallaLike, 1.0);
  cfg.num_users = spec.users;
  cfg.num_pois = spec.pois;
  cfg.num_checkins = spec.checkins;
  cfg.num_cities = spec.cities;
  return tcss::GenerateSyntheticLbsn(cfg);
}

}  // namespace perfbench
