// Unit tests for util: formatting, histograms, YAML, tables, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "util/yaml.hpp"

namespace wasp::util {
namespace {

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(0), "0B");
  EXPECT_EQ(format_bytes(999), "999B");
  EXPECT_EQ(format_bytes(4096), "4.10KB");
  EXPECT_EQ(format_bytes(16 * kMB), "16MB");
  EXPECT_EQ(format_bytes(1500 * kGB), "1.50TB");
}

TEST(Units, FormatRate) {
  EXPECT_EQ(format_rate(64e9), "64GB/s");
  EXPECT_EQ(format_rate(95e6), "95MB/s");
  EXPECT_EQ(format_rate(3.5e6), "3.50MB/s");
}

TEST(Units, FormatSeconds) {
  EXPECT_EQ(format_seconds(664), "664s");
  EXPECT_EQ(format_seconds(0.0003), "300us");
  EXPECT_EQ(format_seconds(0.45), "450ms");
}

TEST(Units, FormatPercent) {
  EXPECT_EQ(format_percent(0.75), "75%");
  EXPECT_EQ(format_percent(0.015), "1.5%");
  EXPECT_EQ(format_percent(1.0), "100%");
}

TEST(SizeHistogram, PaperBucketsClassification) {
  auto h = SizeHistogram::paper_buckets();
  h.add(1024);              // <4KB
  h.add(32 * kKiB);         // <64KB
  h.add(512 * kKiB);        // <1MB
  h.add(8 * kMiB);          // <16MB
  h.add(64 * kMiB);         // >=16MB
  EXPECT_EQ(h.num_buckets(), 5u);
  for (std::size_t b = 0; b < 5; ++b) EXPECT_EQ(h.count(b), 1u);
  EXPECT_EQ(h.bucket_label(0), "<4.10KB");
  EXPECT_EQ(h.total_count(), 5u);
}

TEST(SizeHistogram, WeightedAddAndBandwidth) {
  auto h = SizeHistogram::paper_buckets();
  h.add(4096, 100, 409600, 2.0);
  EXPECT_EQ(h.count(1), 100u);  // 4096 is not < 4096; lands in <64KB
  EXPECT_EQ(h.bytes(1), 409600u);
  EXPECT_DOUBLE_EQ(h.bandwidth(1), 204800.0);
  EXPECT_DOUBLE_EQ(h.bandwidth(0), 0.0);
}

TEST(SizeHistogram, MergeRequiresSameEdges) {
  auto a = SizeHistogram::paper_buckets();
  auto b = SizeHistogram::paper_buckets();
  b.add(1, 3);
  a.merge(b);
  EXPECT_EQ(a.count(0), 3u);
  SizeHistogram c({kMiB});
  EXPECT_THROW(a.merge(c), SimError);
}

TEST(Yaml, NestedMapsAndSequences) {
  yaml::Writer y;
  y.scalar("workload", "CM1");
  y.begin_map("job");
  y.scalar("nodes", 32);
  y.begin_seq("apps");
  y.begin_seq_item_map();
  y.scalar("name", "cm1");
  y.scalar("procs", 1280);
  y.end_map();
  y.end_seq();
  y.end_map();
  const std::string out = y.str();
  EXPECT_NE(out.find("workload: CM1"), std::string::npos);
  EXPECT_NE(out.find("  nodes: 32"), std::string::npos);
  EXPECT_NE(out.find("    - name: cm1"), std::string::npos);
  EXPECT_NE(out.find("      procs: 1280"), std::string::npos);
}

TEST(Yaml, QuotesSpecialCharacters) {
  yaml::Writer y;
  y.scalar("path", "/p/gpfs1: data");
  EXPECT_NE(y.str().find("\"/p/gpfs1: data\""), std::string::npos);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t("title");
  t.set_header({"a", "long_header"});
  t.add_row({"xxxxx", "1"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxxx"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkProducesIndependentStreams) {
  Rng base(7);
  Rng s1 = base.fork(1);
  Rng s2 = base.fork(2);
  EXPECT_NE(s1.next(), s2.next());
}

TEST(Rng, UniformInRange) {
  Rng r(123);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

/// Mean and sample variance of a sample.
std::pair<double, double> moments(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  const double mean = sum / static_cast<double>(v.size());
  double ss = 0.0;
  for (const double x : v) ss += (x - mean) * (x - mean);
  return {mean, ss / static_cast<double>(v.size() - 1)};
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng r(99);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(r.normal(10.0, 2.0));
  const auto [mean, variance] = moments(v);
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(variance), 2.0, 0.1);
}

TEST(Rng, GammaMeanMatchesShapeTimesScale) {
  Rng r(5);
  std::vector<double> v;
  for (int i = 0; i < 20000; ++i) v.push_back(r.gamma(3.0, 2.0));
  EXPECT_NEAR(moments(v).first, 6.0, 0.2);
}

TEST(Check, ThrowsWithMessage) {
  try {
    WASP_CHECK_MSG(false, "context here");
    FAIL() << "should have thrown";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("context here"), std::string::npos);
  }
}

}  // namespace
}  // namespace wasp::util
