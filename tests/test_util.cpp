// Unit tests for vbatch/util: RNG determinism and statistics, matrix views,
// flop formulas, size distributions, table/histogram rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <sstream>
#include <vector>

#include "vbatch/core/size_dist.hpp"
#include "vbatch/util/flops.hpp"
#include "vbatch/util/matrix_view.hpp"
#include "vbatch/util/rng.hpp"
#include "vbatch/util/table.hpp"
#include "vbatch/util/types.hpp"

namespace {

using namespace vbatch;

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(3, 10);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 10);
    saw_lo |= v == 3;
    saw_hi |= v == 10;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sumsq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(Rng, FillSpdIsSymmetricAndDiagonallyDominant) {
  Rng rng(3);
  const int n = 17;
  std::vector<double> a(static_cast<std::size_t>(n * n));
  fill_spd(rng, a.data(), n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(i + j * n)],
                       a[static_cast<std::size_t>(j + i * n)]);
    }
    EXPECT_GT(a[static_cast<std::size_t>(j + j * n)], static_cast<double>(n) - 1.0);
  }
}

// The lower triangle is the documented draw sequence, the upper triangle its
// exact conjugate, and no element past the n rows of a column is written.
TEST(Rng, FillSpdFollowsTheDrawOrderAndMirrorsExactly) {
  for (std::int64_t n : {1, 17, 64}) {
    const std::int64_t ld = n + 5;
    const double guard = -3.0;
    std::vector<double> a(static_cast<std::size_t>(ld * n), guard);
    Rng rng(11);
    fill_spd(rng, a.data(), n, ld);
    Rng draws(11);
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(a[static_cast<std::size_t>(j + j * ld)], draws.uniform() + static_cast<double>(n));
      for (std::int64_t i = j + 1; i < n; ++i) {
        const double v = draws.uniform();
        ASSERT_EQ(a[static_cast<std::size_t>(i + j * ld)], v) << "n=" << n;
        ASSERT_EQ(a[static_cast<std::size_t>(j + i * ld)], v) << "n=" << n;
      }
      for (std::int64_t i = n; i < ld; ++i)
        ASSERT_EQ(a[static_cast<std::size_t>(i + j * ld)], guard) << "n=" << n;
    }
    std::vector<std::complex<float>> c(static_cast<std::size_t>(ld * n));
    Rng crng(13);
    fill_spd(crng, c.data(), n, ld);
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(c[static_cast<std::size_t>(j + j * ld)].imag(), 0.0f);
      for (std::int64_t i = j + 1; i < n; ++i)
        ASSERT_EQ(c[static_cast<std::size_t>(j + i * ld)],
                  std::conj(c[static_cast<std::size_t>(i + j * ld)]))
            << "n=" << n;
    }
  }
}

TEST(MatrixView, ElementAndBlockAccess) {
  std::vector<double> buf(30);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<double>(i);
  MatrixView<double> a(buf.data(), 5, 6, 5);
  EXPECT_DOUBLE_EQ(a(2, 3), 17.0);  // 2 + 3*5
  auto b = a.block(1, 2, 3, 2);
  EXPECT_DOUBLE_EQ(b(0, 0), a(1, 2));
  EXPECT_DOUBLE_EQ(b(2, 1), a(3, 3));
  EXPECT_EQ(b.ld(), 5);
}

TEST(MatrixView, LeadingDimensionRespected) {
  std::vector<float> buf(40, 0.0f);
  MatrixView<float> a(buf.data(), 3, 4, 10);  // ld > rows
  a(2, 3) = 5.0f;
  EXPECT_FLOAT_EQ(buf[2 + 3 * 10], 5.0f);
}

TEST(MatrixView, ColSpan) {
  std::vector<double> buf(12);
  MatrixView<double> a(buf.data(), 3, 4, 3);
  auto c = a.col(2);
  EXPECT_EQ(c.size(), 3u);
  c[1] = 9.0;
  EXPECT_DOUBLE_EQ(a(1, 2), 9.0);
}

TEST(Flops, PotrfMatchesClosedForm) {
  // n³/3 + n²/2 + n/6 at n=6: 72 + 18 + 1 = 91.
  EXPECT_DOUBLE_EQ(flops::potrf(6), 91.0);
  EXPECT_DOUBLE_EQ(flops::potrf(1), 1.0);
  EXPECT_DOUBLE_EQ(flops::potrf(0), 0.0);
}

TEST(Flops, GemmSyrkTrsm) {
  EXPECT_DOUBLE_EQ(flops::gemm(3, 4, 5), 120.0);
  EXPECT_DOUBLE_EQ(flops::syrk(4, 3), 4.0 * 5.0 * 3.0);
  EXPECT_DOUBLE_EQ(flops::trsm(4, 3, true), 3.0 * 16.0);
  EXPECT_DOUBLE_EQ(flops::trsm(4, 3, false), 4.0 * 9.0);
}

TEST(Flops, BatchSumsPerMatrixCounts) {
  std::vector<int> sizes{2, 3, 5};
  EXPECT_DOUBLE_EQ(flops::potrf_batch(sizes),
                   flops::potrf(2) + flops::potrf(3) + flops::potrf(5));
}

TEST(Flops, GetrfGeqrfPositiveAndMonotone) {
  EXPECT_GT(flops::getrf(8, 8), flops::getrf(4, 4));
  EXPECT_GT(flops::geqrf(16, 8), flops::geqrf(8, 8));
  EXPECT_GT(flops::geqrf(8, 8), 0.0);
}

TEST(SizeDist, UniformBounds) {
  Rng rng(123);
  auto sizes = uniform_sizes(rng, 2000, 512);
  const auto st = size_stats(sizes);
  EXPECT_GE(st.min, 1);
  EXPECT_LE(st.max, 512);
  EXPECT_NEAR(st.mean, 256.5, 12.0);
  // Uniform stddev = (b-a)/sqrt(12) ≈ 147.5.
  EXPECT_NEAR(st.stddev, 147.5, 10.0);
}

TEST(SizeDist, GaussianCentredAtHalfMax) {
  Rng rng(321);
  auto sizes = gaussian_sizes(rng, 2000, 512);
  const auto st = size_stats(sizes);
  EXPECT_GE(st.min, 1);
  EXPECT_LE(st.max, 512);
  EXPECT_NEAR(st.mean, 256.0, 8.0);
  EXPECT_NEAR(st.stddev, 512.0 / 6.0, 10.0);
}

TEST(SizeDist, GaussianRarelyNearBoundaries) {
  Rng rng(55);
  auto sizes = gaussian_sizes(rng, 2000, 512);
  int near_edges = 0;
  for (int s : sizes)
    if (s < 64 || s > 448) ++near_edges;
  EXPECT_LT(near_edges, 80);  // ~2.4% expected beyond ±2.25σ; allow 4%
}

TEST(SizeDist, DispatchMatchesEnum) {
  Rng r1(7), r2(7);
  EXPECT_EQ(make_sizes(SizeDist::Uniform, r1, 100, 64), uniform_sizes(r2, 100, 64));
}

TEST(Table, RendersAlignedColumns) {
  util::Table t({"n", "gflops"});
  t.new_row().add(32).add(1.5);
  t.new_row().add(512).add(123.45);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("gflops"), std::string::npos);
  EXPECT_NE(s.find("123.45"), std::string::npos);
  EXPECT_NE(s.find("512"), std::string::npos);
}

TEST(Table, HistogramCountsBuckets) {
  std::vector<int> values{1, 2, 3, 10, 11, 12, 13};
  std::ostringstream os;
  util::print_histogram(os, values, 8, 16, 20);
  const std::string s = os.str();
  EXPECT_NE(s.find(" 3"), std::string::npos);
  EXPECT_NE(s.find(" 4"), std::string::npos);
}

TEST(Types, EnumNames) {
  EXPECT_EQ(to_string(Uplo::Lower), "lower");
  EXPECT_EQ(to_string(Trans::Trans), "trans");
  EXPECT_EQ(to_string(EtmMode::Aggressive), "etm-aggressive");
  EXPECT_EQ(precision_of<double>::name, "double");
  EXPECT_EQ(precision_of<float>::blas_prefix, 's');
}

}  // namespace
