#include "util/histogram.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace wasp::util {

SizeHistogram::SizeHistogram(std::vector<Bytes> edges)
    : edges_(std::move(edges)) {
  WASP_CHECK_MSG(!edges_.empty(), "histogram needs at least one edge");
  WASP_CHECK_MSG(std::is_sorted(edges_.begin(), edges_.end()),
                 "histogram edges must be sorted");
  counts_.assign(edges_.size() + 1, 0);
  bytes_.assign(edges_.size() + 1, 0);
  seconds_.assign(edges_.size() + 1, 0.0);
}

SizeHistogram SizeHistogram::paper_buckets() {
  return SizeHistogram({4 * kKiB, 64 * kKiB, kMiB, 16 * kMiB});
}

std::size_t SizeHistogram::bucket_of(Bytes size) const noexcept {
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (size < edges_[i]) return i;
  }
  return edges_.size();
}

void SizeHistogram::add(Bytes size, std::uint64_t count, Bytes total_bytes,
                        double total_seconds) {
  const std::size_t b = bucket_of(size);
  counts_[b] += count;
  bytes_[b] += total_bytes != 0 ? total_bytes : size * count;
  seconds_[b] += total_seconds;
}

void SizeHistogram::add_at(std::size_t bucket, std::uint64_t count,
                           Bytes total_bytes) {
  counts_.at(bucket) += count;
  bytes_.at(bucket) += total_bytes;
}

void SizeHistogram::add_seconds(std::size_t bucket, double seconds) {
  seconds_.at(bucket) += seconds;
}

double SizeHistogram::bandwidth(std::size_t bucket) const {
  const double sec = seconds_.at(bucket);
  if (sec <= 0.0) return 0.0;
  return static_cast<double>(bytes_.at(bucket)) / sec;
}

std::uint64_t SizeHistogram::total_count() const noexcept {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

Bytes SizeHistogram::total_bytes() const noexcept {
  return std::accumulate(bytes_.begin(), bytes_.end(), Bytes{0});
}

std::string SizeHistogram::bucket_label(std::size_t bucket) const {
  WASP_CHECK(bucket < counts_.size());
  // Appends rather than `"<" + str`: GCC 12 Release builds report a false
  // -Wrestrict on the insert inside operator+(const char*, string&&).
  const bool below = bucket < edges_.size();
  std::string label = below ? "<" : ">=";
  label += format_bytes(below ? edges_[bucket] : edges_.back());
  return label;
}

void SizeHistogram::merge(const SizeHistogram& other) {
  WASP_CHECK_MSG(edges_ == other.edges_, "merging incompatible histograms");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
    bytes_[i] += other.bytes_[i];
    seconds_[i] += other.seconds_[i];
  }
}

}  // namespace wasp::util
