#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace perfbench {

namespace {
const double kProcessStart = NowSeconds();
}  // namespace

void LogPhase(const char* what) {
  std::fprintf(stderr, "[perfbench] %s done at +%.2fs\n", what, NowSeconds() - kProcessStart);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  }
  std::fclose(f);
  return kb / 1024.0;
}

SpeedGauge::SpeedGauge() : keys_(1 << 15), slots_(1 << 13) {
  uint64_t x = 0;
  for (uint64_t& k : keys_) {  // splitmix64, fixed seed
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    k = (z ^ (z >> 31)) % 3000 + 1;
  }
}

double SpeedGauge::Pass() {
  const double start = NowSeconds();
  // Count the keys in an open-addressing table, then sort a copy of them.
  std::fill(slots_.begin(), slots_.end(), 0);
  const uint64_t mask = slots_.size() - 1;
  for (const uint64_t k : keys_) {
    uint64_t i = ((k * 0x9E3779B97F4A7C15ull) >> 51) & mask;
    while (slots_[i] != 0 && slots_[i] >> 20 != k) i = (i + 1) & mask;
    slots_[i] = (k << 20) | ((slots_[i] & 0xFFFFF) + 1);
  }
  sorted_ = keys_;
  std::sort(sorted_.begin(), sorted_.end());
  sink_ += sorted_[sorted_.size() / 2] + slots_[sink_ & mask];
  return NowSeconds() - start;
}

void SpeedGauge::Sample() {
  const double pass = std::min({Pass(), Pass(), Pass()});
  samples_.emplace_back(NowSeconds(), pass);
}

void SpeedGauge::SampleEvery(double interval) {
  if (samples_.empty() || NowSeconds() - samples_.back().first >= interval) Sample();
}

double SpeedGauge::Scale(double seconds, double t0, double t1) const {
  if (samples_.empty()) return seconds;
  // Samples are in time order: the last at or before t0, the first at or
  // after t1 (the nearest one when there is none on that side).
  auto after = std::lower_bound(samples_.begin(), samples_.end(), std::make_pair(t1, 0.0));
  if (after == samples_.end()) --after;
  auto before = std::upper_bound(samples_.begin(), samples_.end(), std::make_pair(t0, 1e300));
  if (before != samples_.begin()) --before;
  return seconds * kReferencePass / ((before->second + after->second) / 2);
}

double SpeedGauge::median_pass() const {
  std::vector<double> passes;
  for (const auto& s : samples_) passes.push_back(s.second);
  return Median(passes);
}

uint64_t Tracer::Begin(const char* name, uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  const double now = NowSeconds() - origin_;
  const std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start = now;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  spans_.push_back(span);
  return span.id;
}

void Tracer::End(uint64_t id, double value) {
  if (id == 0) return;
  const double now = NowSeconds() - origin_;
  const std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[id - 1];
  span.end = now;
  span.value = value;
}

bool Tracer::Write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"id\":%llu,"
                 "\"parent\":%llu,\"request\":%llu,\"value\":%.17g}\n",
                 s.name, s.start, s.end, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.value);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
