#include "common/stats.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

namespace dresar {
namespace {

TEST(Sampler, Accumulates) {
  Sampler s;
  s.add(10);
  s.add(20);
  s.add(30);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 20.0);
  EXPECT_DOUBLE_EQ(s.min(), 10.0);
  EXPECT_DOUBLE_EQ(s.max(), 30.0);
}

TEST(Sampler, EmptyIsZero) {
  Sampler s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Sampler, Merge) {
  Sampler a, b;
  a.add(1);
  b.add(3);
  b.add(5);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
}

TEST(Sampler, RepeatedAddMatchesSingleAdds) {
  // add(v, n) is n add(v) calls at once (exact for integral samples).
  Sampler one, many;
  for (const double v : {3.0, 0.0, 7.0}) {
    for (int i = 0; i < 5; ++i) one.add(v);
    many.add(v, 5);
  }
  many.add(9.0, 0);  // no samples: no effect on min/max either
  EXPECT_EQ(many.count(), one.count());
  EXPECT_EQ(many.sum(), one.sum());
  EXPECT_EQ(many.min(), one.min());
  EXPECT_EQ(many.max(), one.max());
}

TEST(Histogram, RepeatedAddMatchesSingleAdds) {
  Histogram one(Histogram::LogSpaced{1.0, 8}), many(Histogram::LogSpaced{1.0, 8});
  for (const double v : {0.0, 3.0, 1e9, -2.0}) {
    for (int i = 0; i < 4; ++i) one.add(v);
    many.add(v, 4);
  }
  EXPECT_EQ(many.buckets(), one.buckets());
  EXPECT_EQ(many.total(), one.total());
  EXPECT_EQ(many.underflowCount(), one.underflowCount());
}

TEST(Histogram, DefaultIsElevenEmptyBuckets) {
  // Message-level congestion records print a default histogram, so its
  // eleven zero buckets are part of the document format.
  const Histogram h;
  EXPECT_EQ(h.buckets(), std::vector<std::uint64_t>(11, 0));
  EXPECT_DOUBLE_EQ(h.overflowBound(), 512.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(Histogram::LogSpaced{4.0, 8});  // [0,4) [4,8) ... [256,512), overflow
  h.add(3);     // bucket 0
  h.add(5);     // bucket 1
  h.add(40);    // bucket 4: [32, 64)
  h.add(9999);  // overflow
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[4], 1u);
  EXPECT_EQ(h.buckets()[8], 1u);
}

TEST(Histogram, NegativeSamplesClampToBucketZero) {
  // Regression: a negative sample used to wrap through the size_t cast and
  // land in the overflow bucket (or index memory far past it).
  Histogram h;
  h.add(-1.0);
  h.add(-1e18);
  h.add(0.5);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.buckets()[0], 3u);      // negatives clamp into the first bucket
  EXPECT_EQ(h.overflowCount(), 0u);   // and never masquerade as overflow
  EXPECT_EQ(h.underflowCount(), 2u);  // but the clamping is observable
}

TEST(Histogram, Percentile) {
  // A percentile reports the upper bound of the bucket holding it.
  Histogram h;
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.percentile(0.01), 1.0);    // sample 0 lies in [0, 1)
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 64.0);    // sample 49 lies in [32, 64)
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 128.0);  // sample 98 lies in [64, 128)
}

TEST(Histogram, PercentileZeroIsZero) {
  Histogram h;
  h.add(3.0);
  h.add(7.0);
  // p=0 must not round up into the first occupied bucket.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
}

TEST(Histogram, PercentileEmptyIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, PercentileOverflowClampsAndFlags) {
  Histogram h;  // covers [0, 512); overflow beyond
  for (int i = 0; i < 9; ++i) h.add(5.0);
  h.add(1000.0);  // one overflow sample
  // The 99th percentile lives in the overflow bucket: the reported value
  // clamps to the tracked range instead of inventing 1000, and the
  // out-of-range condition is observable.
  EXPECT_DOUBLE_EQ(h.percentile(0.99), h.overflowBound());
  EXPECT_TRUE(h.percentileOverflowed(0.99));
  EXPECT_FALSE(h.percentileOverflowed(0.5));
}

TEST(HistogramLog, BucketBoundsDouble) {
  // Log2 geometry: bucket 0 = [0, fb), bucket i = [fb*2^(i-1), fb*2^i).
  Histogram h(Histogram::LogSpaced{4.0, 8});
  EXPECT_DOUBLE_EQ(h.bucketBound(0), 4.0);
  EXPECT_DOUBLE_EQ(h.bucketBound(1), 8.0);
  EXPECT_DOUBLE_EQ(h.bucketBound(7), 512.0);
  EXPECT_DOUBLE_EQ(h.overflowBound(), 512.0);
}

TEST(HistogramLog, AddRoutesByLog2) {
  Histogram h(Histogram::LogSpaced{1.0, 6});
  h.add(0.5);   // bucket 0: [0, 1)
  h.add(1.0);   // bucket 1: [1, 2)
  h.add(1.99);  // bucket 1
  h.add(2.0);   // bucket 2: [2, 4)
  h.add(31.9);  // bucket 5: [16, 32) — last bounded bucket
  h.add(32.0);  // overflow: beyond overflowBound()
  EXPECT_DOUBLE_EQ(h.overflowBound(), 32.0);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[5], 1u);
  EXPECT_EQ(h.overflowCount(), 1u);
  EXPECT_EQ(h.total(), 6u);
}

TEST(HistogramLog, WideRangeInFewBuckets) {
  // The motivating case: latencies spanning 8..100k cycles fit in 40 log
  // buckets with a non-clamped p99.9 and bounded relative error.
  Histogram log2h(Histogram::LogSpaced{1.0, 40});
  for (int i = 0; i < 1000; ++i) log2h.add(8.0);
  for (int i = 0; i < 5; ++i) log2h.add(100'000.0);
  EXPECT_FALSE(log2h.percentileOverflowed(0.999));
  EXPECT_GE(log2h.percentile(0.999), 100'000.0);   // bucket upper bound
  EXPECT_LE(log2h.percentile(0.999), 200'000.0);   // bounded relative error
}

TEST(HistogramLog, PercentileOverflowSemanticsMatchLinear) {
  Histogram h(Histogram::LogSpaced{1.0, 4});  // bounded range [0, 8)
  for (int i = 0; i < 9; ++i) h.add(3.0);
  h.add(1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), h.overflowBound());
  EXPECT_TRUE(h.percentileOverflowed(0.99));
  EXPECT_FALSE(h.percentileOverflowed(0.5));
}

TEST(HistogramLog, NegativeSamplesClampToBucketZero) {
  Histogram h(Histogram::LogSpaced{1.0, 4});
  h.add(-2.0);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.underflowCount(), 1u);
  EXPECT_EQ(h.overflowCount(), 0u);
}

TEST(HistogramMerge, FoldsCounts) {
  Histogram a(Histogram::LogSpaced{1.0, 6});
  Histogram b(Histogram::LogSpaced{1.0, 6});
  a.add(1.0);
  b.add(1.0);
  b.add(100.0);  // overflow
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.buckets()[1], 2u);
  EXPECT_EQ(a.overflowCount(), 1u);
}

TEST(HistogramMerge, GeometryMismatchThrows) {
  Histogram logA(Histogram::LogSpaced{1.0, 6});
  Histogram logB(Histogram::LogSpaced{2.0, 6});   // different firstBound
  Histogram logC(Histogram::LogSpaced{1.0, 8});   // different bucket count
  EXPECT_THROW(logA.merge(logB), std::invalid_argument);
  EXPECT_THROW(logA.merge(logC), std::invalid_argument);
  EXPECT_THROW(logC.merge(logA), std::invalid_argument);
}

TEST(StatRegistry, CountersCreateOnDemand) {
  StatRegistry r;
  r.counter("a.b") += 3;
  r.counter("a.b") += 4;
  EXPECT_EQ(r.counterValue("a.b"), 7u);
  EXPECT_EQ(r.counterValue("missing"), 0u);
}

TEST(StatRegistry, SumByPrefix) {
  StatRegistry r;
  r.counter("sd.0.hits") = 2;
  r.counter("sd.1.hits") = 5;
  r.counter("sdx.other") = 100;
  EXPECT_EQ(r.sumByPrefix("sd."), 7u);
}

TEST(StatRegistry, DumpIsStable) {
  StatRegistry r;
  r.counter("z") = 1;
  r.counter("a") = 2;
  std::ostringstream os;
  r.dump(os);
  const std::string out = os.str();
  EXPECT_LT(out.find('a'), out.find('z'));
}

TEST(StatRegistry, ResetZeroesInPlace) {
  StatRegistry r;
  r.counter("x") = 9;
  r.sampler("s").add(1.0);
  r.reset();
  EXPECT_EQ(r.counterValue("x"), 0u);
  // Names survive a reset (only values are zeroed) so resolved handles stay
  // valid across it.
  ASSERT_NE(r.findSampler("s"), nullptr);
  EXPECT_EQ(r.findSampler("s")->count(), 0u);
}

TEST(StatRegistry, CounterHandleBumpsRegistry) {
  StatRegistry r;
  CounterHandle h = r.counterHandle("hot.counter");
  EXPECT_TRUE(h.valid());
  ++h;
  h += 5;
  EXPECT_EQ(h.value(), 6u);
  EXPECT_EQ(r.counterValue("hot.counter"), 6u);
  // The handle and the string path address the same storage.
  r.counter("hot.counter") += 4;
  EXPECT_EQ(h.value(), 10u);
}

TEST(StatRegistry, CounterHandleSurvivesRehash) {
  StatRegistry r;
  CounterHandle h = r.counterHandle("first");
  // Creating many more counters must not invalidate the handle (node-based
  // map storage).
  for (int i = 0; i < 1000; ++i) r.counter("filler." + std::to_string(i)) = 1;
  ++h;
  EXPECT_EQ(r.counterValue("first"), 1u);
}

TEST(StatRegistry, CounterHandleSurvivesReset) {
  StatRegistry r;
  CounterHandle h = r.counterHandle("c");
  h += 3;
  r.reset();
  EXPECT_EQ(h.value(), 0u);
  ++h;
  EXPECT_EQ(r.counterValue("c"), 1u);
}

TEST(StatRegistry, SamplerHandleFeedsRegistry) {
  StatRegistry r;
  SamplerHandle h = r.samplerHandle("lat");
  EXPECT_TRUE(h.valid());
  h.add(10.0);
  h.add(30.0);
  ASSERT_NE(r.findSampler("lat"), nullptr);
  EXPECT_EQ(r.findSampler("lat")->count(), 2u);
  EXPECT_DOUBLE_EQ(r.findSampler("lat")->mean(), 20.0);
}

TEST(StatRegistry, DefaultHandlesAreInvalid) {
  CounterHandle c;
  SamplerHandle s;
  EXPECT_FALSE(c.valid());
  EXPECT_FALSE(s.valid());
  EXPECT_EQ(c.value(), 0u);
}

TEST(StatRegistry, HandleRegistersNameForDump) {
  StatRegistry r;
  (void)r.counterHandle("pre.registered");
  std::ostringstream os;
  r.dump(os);
  EXPECT_NE(os.str().find("pre.registered"), std::string::npos);
}

}  // namespace
}  // namespace dresar
