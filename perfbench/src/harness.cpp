#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "util/json_writer.hpp"

namespace perf {

std::uint64_t nowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - epoch)
                                        .count());
}

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return splitmix(splitmix(splitmix(splitmix(seed) ^ a) ^ b) ^ c);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double hostSlowdown() {
  // Frozen: a change to the probe rescales every time metric, so the
  // metrics of the commits before it no longer compare.
  constexpr int kRows = 96, kWords = 2, kCols = kWords * 64;
  static volatile std::uint64_t sink = 0;
  std::vector<std::uint64_t> adjacent(kRows * kWords);
  std::vector<int> colOf(kRows), rowOf(kCols);
  std::vector<char> seen(kCols);
  std::uint64_t x = 0x9e3779b97f4a7c15ull, visits = 0;
  const std::uint64_t t0 = nowNs();
  for (int rep = 0; rep < 10; ++rep) {
    // Draw: each bit is set with probability 0.9 (xorshift64), then masked
    // by an earlier row or a random pattern, so rows share their holes.
    for (int r = 0; r < kRows; ++r)
      for (int w = 0; w < kWords; ++w) {
        std::uint64_t word = 0;
        for (int b = 0; b < 64; ++b) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          if (x % 1000 >= 100) word |= 1ull << b;
        }
        adjacent[r * kWords + w] =
            word & (adjacent[((r * 7) % kRows) * kWords + w] | (x & 0xff00ff00ff00ff00ull));
      }
    // Match: per row, a depth-first search (explicit stack) for an
    // augmenting path, then the augmentation back along it.
    std::fill(colOf.begin(), colOf.end(), -1);
    std::fill(rowOf.begin(), rowOf.end(), -1);
    for (int root = 0; root < kRows; ++root) {
      std::fill(seen.begin(), seen.end(), 0);
      std::vector<int> stack = {root};
      std::vector<int> via(kRows, -1);
      bool augmented = false;
      while (!stack.empty() && !augmented) {
        const int u = stack.back();
        stack.pop_back();
        for (int c = 0; c < kCols && !augmented; ++c) {
          if (seen[c] || ((adjacent[u * kWords + c / 64] >> (c % 64)) & 1) == 0) continue;
          seen[c] = 1;
          ++visits;
          if (rowOf[c] >= 0) {
            via[rowOf[c]] = u;
            stack.push_back(rowOf[c]);
            continue;
          }
          for (int row = u, col = c;;) {
            const int freed = colOf[row];
            rowOf[col] = row;
            colOf[row] = col;
            if (row == root) break;
            col = freed;
            row = via[row];
          }
          augmented = true;
        }
      }
    }
  }
  const double ns = static_cast<double>(nowNs() - t0);
  sink = sink + visits;
  return ns / kProbeReferenceNs;
}

double peakRssMb() {
  // VmHWM belongs to this image alone; getrusage's ru_maxrss would carry
  // over the high-water mark of the process that exec'd us.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Report::fail(const std::string& what) {
  ++failed_;
  std::cerr << "check failed: " << what << "\n";
}

void Report::reference(const std::string& cell, std::uint64_t successes) {
  reference_[cell] = successes;
}

void Report::print(std::ostream& out) const {
  out << std::setprecision(17);  // every digit of every measured value
  mcx::JsonWriter json(out, /*pretty=*/false);
  json.beginObject();
  json.field("correct", correct());
  json.field("attempted", std::max<std::uint64_t>(attempted_, 1));
  json.field("failed", failed_);
  json.key("metrics").beginObject();
  for (const auto& [name, v] : metrics_) {
    json.key(name).beginObject();
    json.field("value", v.value);
    json.field("unit", v.unit);
    json.endObject();
  }
  json.endObject();
  json.key("reference").beginObject();
  for (const auto& [cell, successes] : reference_) json.field(cell, successes);
  json.endObject();
  json.endObject();
  out << "\n";
}

std::int32_t Tracer::open(const char* name, std::int32_t parent, std::int64_t request) {
  spans_.push_back({name, parent, request, nowNs(), 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t span) { spans_[static_cast<std::size_t>(span)].end = nowNs(); }

std::int32_t Tracer::add(const char* name, std::uint64_t startNs, std::uint64_t endNs,
                         std::int32_t parent, std::int64_t request) {
  spans_.push_back({name, parent, request, startNs, std::max(startNs, endNs)});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  // Self time: a span's duration minus the part of it its children cover.
  // Children of one parent never overlap (they run one after another on the
  // driving thread), so the covered part is the sum of their durations,
  // clipped to the parent's interval.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.start, p.start);
    const std::uint64_t hi = std::min(s.end, p.end);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += static_cast<double>(hi - lo);
  }
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double dur = static_cast<double>(s.end - s.start);
    Layer& layer = out[s.name];
    ++layer.count;
    layer.totalNs += dur;
    layer.selfNs += std::max(0.0, dur - covered[i]);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << "id\tparent\tname\tstart_ns\tend_ns\trequest\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    file << i << '\t' << s.parent << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\t'
         << s.request << '\n';
  }
  return static_cast<bool>(file);
}

void writeSpans(const Options& options, const Tracer& tracer, Report& report) {
  std::error_code ec;
  std::filesystem::create_directories(options.outDir, ec);
  const std::string path = options.outDir + "/spans-" + options.workload + ".tsv";
  report.check(tracer.write(path), "cannot write " + path);
}

double meanSelf(const std::map<std::string, Tracer::Layer>& layers, const std::string& name,
                double scale) {
  const auto it = layers.find(name);
  if (it == layers.end() || it->second.count == 0) return 0;
  return it->second.selfNs / static_cast<double>(it->second.count) / scale;
}

double meanTotal(const std::map<std::string, Tracer::Layer>& layers, const std::string& name,
                 double scale) {
  const auto it = layers.find(name);
  if (it == layers.end() || it->second.count == 0) return 0;
  return it->second.totalNs / static_cast<double>(it->second.count) / scale;
}

}  // namespace perf
