/**
 * @file
 * Unit and property tests for the sparse module: formats,
 * conversions, and the SpGEMM/SpMM/transpose operations (validated
 * against dense equivalents on random matrices).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>

#include "sparse/Convert.hpp"
#include "sparse/Coo.hpp"
#include "sparse/Csc.hpp"
#include "sparse/Csr.hpp"
#include "sparse/SparseOps.hpp"
#include "tensor/Ops.hpp"
#include "util/Random.hpp"

using namespace gsuite;

namespace {

/** Random sparse matrix with the given density. */
CsrMatrix
randomCsr(int64_t rows, int64_t cols, double density, uint64_t seed)
{
    Rng rng(seed);
    SparseBuilder b(rows, cols);
    for (int64_t r = 0; r < rows; ++r)
        for (int64_t c = 0; c < cols; ++c)
            if (rng.nextBool(density))
                b.add(r, c, rng.nextFloat(-1.0f, 1.0f));
    return b.finish();
}

} // namespace

TEST(Coo, PushAndPatternPromotion)
{
    CooMatrix m(4, 4);
    m.push(0, 1);
    m.push(1, 2);
    EXPECT_TRUE(m.isPattern());
    EXPECT_EQ(m.valueAt(0), 1.0f);
    m.push(2, 3, 0.5f); // promotes to explicit values
    EXPECT_FALSE(m.isPattern());
    EXPECT_EQ(m.valueAt(0), 1.0f);
    EXPECT_EQ(m.valueAt(2), 0.5f);
    m.checkInvariants();
}

TEST(Coo, SortAndSumDuplicates)
{
    CooMatrix m(3, 3);
    m.push(2, 1, 1.0f);
    m.push(0, 2, 2.0f);
    m.push(2, 1, 3.0f);
    m.sortByRow();
    m.sumDuplicates();
    EXPECT_EQ(m.nnz(), 2);
    EXPECT_EQ(m.rowIdx[0], 0);
    EXPECT_EQ(m.valueAt(1), 4.0f); // 1 + 3
}

TEST(Csr, IdentityAndDiagonal)
{
    const CsrMatrix eye = CsrMatrix::identity(4);
    eye.checkInvariants();
    EXPECT_EQ(eye.nnz(), 4);
    EXPECT_EQ(eye.rowNnz(2), 1);
    const CsrMatrix d = CsrMatrix::diagonal({1.0f, 2.0f, 3.0f});
    EXPECT_EQ(d.vals[1], 2.0f);
}

TEST(Csr, BuilderSortsAndDeduplicates)
{
    SparseBuilder b(3, 4);
    b.add(1, 3, 1.0f);
    b.add(1, 0, 2.0f);
    b.add(1, 3, 0.5f);
    b.add(0, 2, 1.0f);
    const CsrMatrix m = b.finish();
    m.checkInvariants();
    EXPECT_EQ(m.nnz(), 3);
    EXPECT_EQ(m.rowNnz(1), 2);
    EXPECT_EQ(m.colIdx[1], 0); // sorted within the row
    EXPECT_EQ(m.vals[2], 1.5f); // duplicates summed
}

TEST(Csr, BuilderMatchesMapOracle)
{
    // Entries in random row and column order, with duplicates and
    // empty rows; a std::map summing in insertion order is the
    // oracle. Both sum each (row, col) in insertion order, so the
    // values must match exactly.
    struct Shape {
        int64_t rows;
        int64_t cols;
        int entries;
    };
    const Shape shapes[] = {{0, 0, 0},   {1, 1, 0},   {1, 1, 6},
                            {7, 3, 40},  {3, 9, 30},  {25, 25, 12},
                            {25, 25, 300}, {40, 1, 60}, {1, 40, 60}};
    uint64_t seed = 1;
    for (const Shape &sh : shapes) {
        for (int trial = 0; trial < 4; ++trial) {
            SCOPED_TRACE(std::to_string(sh.rows) + "x" +
                         std::to_string(sh.cols) + " trial " +
                         std::to_string(trial));
            Rng rng(seed++);
            SparseBuilder b(sh.rows, sh.cols);
            std::map<std::pair<int64_t, int64_t>, float> oracle;
            for (int e = 0; e < sh.entries; ++e) {
                const auto r = static_cast<int64_t>(
                    rng.nextBelow(static_cast<uint64_t>(sh.rows)));
                const auto c = static_cast<int64_t>(
                    rng.nextBelow(static_cast<uint64_t>(sh.cols)));
                const float v = rng.nextFloat(-1.0f, 1.0f);
                b.add(r, c, v);
                auto [it, fresh] = oracle.try_emplace({r, c}, v);
                if (!fresh)
                    it->second += v;
            }
            const CsrMatrix m = b.finish();
            ASSERT_EQ(m.rows(), sh.rows);
            ASSERT_EQ(m.cols(), sh.cols);
            ASSERT_EQ(m.nnz(), static_cast<int64_t>(oracle.size()));
            auto it = oracle.begin();
            for (int64_t r = 0; r < m.rows(); ++r) {
                for (int64_t i = m.rowPtr[static_cast<size_t>(r)];
                     i < m.rowPtr[static_cast<size_t>(r) + 1]; ++i) {
                    ASSERT_NE(it, oracle.end());
                    EXPECT_EQ(it->first.first, r);
                    EXPECT_EQ(it->first.second,
                              m.colIdx[static_cast<size_t>(i)]);
                    EXPECT_EQ(it->second,
                              m.vals[static_cast<size_t>(i)]);
                    ++it;
                }
            }
            EXPECT_EQ(it, oracle.end());
        }
    }
}

TEST(Csr, EmptyRowsHaveMonotonicRowPtr)
{
    SparseBuilder b(5, 5);
    b.add(0, 0, 1.0f);
    b.add(4, 4, 1.0f);
    const CsrMatrix m = b.finish();
    m.checkInvariants();
    EXPECT_EQ(m.rowNnz(1), 0);
    EXPECT_EQ(m.rowNnz(2), 0);
    EXPECT_EQ(m.nnz(), 2);
}

TEST(Csr, RowDegrees)
{
    SparseBuilder b(3, 3);
    b.add(0, 1, 1.0f);
    b.add(0, 2, 1.0f);
    b.add(2, 0, 1.0f);
    const auto deg = b.finish().rowDegrees();
    EXPECT_EQ(deg[0], 2);
    EXPECT_EQ(deg[1], 0);
    EXPECT_EQ(deg[2], 1);
}

TEST(Convert, CooCsrRoundTrip)
{
    CooMatrix coo(5, 7);
    coo.push(0, 6, 1.0f);
    coo.push(4, 0, 2.0f);
    coo.push(2, 3, -1.0f);
    const CsrMatrix csr = cooToCsr(coo);
    const CooMatrix back = csrToCoo(csr);
    EXPECT_EQ(back.nnz(), 3);
    const CsrMatrix again = cooToCsr(back);
    EXPECT_DOUBLE_EQ(csrMaxAbsDiff(csr, again), 0.0);
}

TEST(Convert, DenseRoundTrip)
{
    const CsrMatrix m = randomCsr(12, 9, 0.3, 42);
    const DenseMatrix d = csrToDense(m);
    const CsrMatrix back = denseToCsr(d);
    EXPECT_LT(csrMaxAbsDiff(m, back), 1e-6);
}

TEST(Convert, CooToDenseSumsDuplicates)
{
    CooMatrix coo(2, 2);
    coo.push(1, 1, 1.5f);
    coo.push(1, 1, 2.5f);
    const DenseMatrix d = cooToDense(coo);
    EXPECT_EQ(d.at(1, 1), 4.0f);
}

TEST(SpGemm, MatchesDenseProduct)
{
    const CsrMatrix a = randomCsr(20, 30, 0.2, 1);
    const CsrMatrix b = randomCsr(30, 25, 0.2, 2);
    const CsrMatrix c = spgemm(a, b);
    c.checkInvariants();

    DenseMatrix ref;
    gemm(csrToDense(a), csrToDense(b), ref);
    EXPECT_LT(DenseMatrix::maxAbsDiff(csrToDense(c), ref), 1e-4);
}

TEST(SpGemm, IdentityIsNeutral)
{
    const CsrMatrix a = randomCsr(15, 15, 0.25, 3);
    const CsrMatrix c = spgemm(a, CsrMatrix::identity(15));
    EXPECT_LT(csrMaxAbsDiff(a, c), 1e-6);
    const CsrMatrix c2 = spgemm(CsrMatrix::identity(15), a);
    EXPECT_LT(csrMaxAbsDiff(a, c2), 1e-6);
}

TEST(SpGemm, DiagonalScalesRows)
{
    const CsrMatrix a = randomCsr(10, 10, 0.3, 4);
    const CsrMatrix d = CsrMatrix::diagonal(
        std::vector<float>(10, 2.0f));
    const CsrMatrix c = spgemm(d, a);
    DenseMatrix da = csrToDense(a);
    for (int64_t i = 0; i < da.size(); ++i)
        da.data()[i] *= 2.0f;
    EXPECT_LT(DenseMatrix::maxAbsDiff(csrToDense(c), da), 1e-5);
}

TEST(SpMM, MatchesDenseProduct)
{
    const CsrMatrix a = randomCsr(18, 22, 0.25, 5);
    DenseMatrix b(22, 13);
    Rng rng(6);
    b.fillUniform(rng, -1.0f, 1.0f);
    DenseMatrix c;
    spmm(a, b, c);
    DenseMatrix ref;
    gemm(csrToDense(a), b, ref);
    EXPECT_LT(DenseMatrix::maxAbsDiff(c, ref), 1e-4);
}

TEST(SpMM, PatternMatrixUsesImplicitOnes)
{
    SparseBuilder bld(2, 2);
    bld.add(0, 0, 1.0f);
    bld.add(0, 1, 1.0f);
    CsrMatrix a = bld.finish();
    a.vals.clear(); // make it a pattern matrix
    DenseMatrix b(2, 1);
    b.at(0, 0) = 3.0f;
    b.at(1, 0) = 4.0f;
    DenseMatrix c;
    spmm(a, b, c);
    EXPECT_EQ(c.at(0, 0), 7.0f);
    EXPECT_EQ(c.at(1, 0), 0.0f);
}

TEST(Transpose, DoubleTransposeIsIdentity)
{
    const CsrMatrix a = randomCsr(14, 19, 0.2, 7);
    const CsrMatrix t = transpose(a);
    EXPECT_EQ(t.rows(), 19);
    EXPECT_EQ(t.cols(), 14);
    t.checkInvariants();
    EXPECT_LT(csrMaxAbsDiff(transpose(t), a), 1e-6);
}

TEST(Transpose, MatchesDense)
{
    const CsrMatrix a = randomCsr(9, 6, 0.4, 8);
    const DenseMatrix dt = csrToDense(transpose(a));
    const DenseMatrix d = csrToDense(a);
    for (int64_t i = 0; i < 9; ++i)
        for (int64_t j = 0; j < 6; ++j)
            EXPECT_EQ(d.at(i, j), dt.at(j, i));
}

TEST(AddScaledIdentity, AddsAndCreatesDiagonal)
{
    SparseBuilder b(3, 3);
    b.add(0, 0, 1.0f); // existing diagonal
    b.add(1, 2, 5.0f); // row without diagonal
    const CsrMatrix m = addScaledIdentity(b.finish(), 2.0f);
    m.checkInvariants();
    const DenseMatrix d = csrToDense(m);
    EXPECT_EQ(d.at(0, 0), 3.0f);
    EXPECT_EQ(d.at(1, 1), 2.0f);
    EXPECT_EQ(d.at(2, 2), 2.0f);
    EXPECT_EQ(d.at(1, 2), 5.0f);
}

TEST(ScaleRowsCols, MatchesDiagonalSandwich)
{
    const CsrMatrix a = randomCsr(8, 8, 0.4, 9);
    std::vector<float> rs{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<float> cs{8, 7, 6, 5, 4, 3, 2, 1};
    const CsrMatrix scaled = scaleRowsCols(a, rs, cs);
    const CsrMatrix ref = spgemm(
        spgemm(CsrMatrix::diagonal(rs), a), CsrMatrix::diagonal(cs));
    EXPECT_LT(csrMaxAbsDiff(scaled, ref), 1e-4);
}

TEST(CsrMaxAbsDiff, DetectsShapeAndValueDifferences)
{
    const CsrMatrix a = randomCsr(5, 5, 0.5, 10);
    EXPECT_EQ(csrMaxAbsDiff(a, a), 0.0);
    const CsrMatrix b = randomCsr(5, 6, 0.5, 10);
    EXPECT_TRUE(std::isinf(csrMaxAbsDiff(a, b)));
}

/** Property sweep: SpGEMM == dense GEMM across shapes/densities. */
class SpgemmSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, double>>
{
};

TEST_P(SpgemmSweep, MatchesDense)
{
    const auto [m, k, n, density] = GetParam();
    const CsrMatrix a =
        randomCsr(m, k, density, static_cast<uint64_t>(m * 31 + k));
    const CsrMatrix b =
        randomCsr(k, n, density, static_cast<uint64_t>(n * 17 + k));
    DenseMatrix ref;
    gemm(csrToDense(a), csrToDense(b), ref);
    EXPECT_LT(
        DenseMatrix::maxAbsDiff(csrToDense(spgemm(a, b)), ref), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpgemmSweep,
    ::testing::Values(std::tuple{1, 1, 1, 1.0},
                      std::tuple{10, 10, 10, 0.05},
                      std::tuple{40, 5, 40, 0.3},
                      std::tuple{7, 50, 7, 0.15},
                      std::tuple{25, 25, 25, 0.5},
                      std::tuple{16, 16, 16, 0.0}));

TEST(Csc, CsrRoundTripPreservesValues)
{
    const CsrMatrix a = randomCsr(13, 17, 0.3, 20);
    const CscMatrix csc = csrToCsc(a);
    csc.checkInvariants();
    EXPECT_EQ(csc.nnz(), a.nnz());
    EXPECT_EQ(csc.rows(), 13);
    EXPECT_EQ(csc.cols(), 17);
    const CsrMatrix back = cscToCsr(csc);
    EXPECT_LT(csrMaxAbsDiff(a, back), 1e-6);
}

TEST(Csc, ColumnAccessMatchesDense)
{
    const CsrMatrix a = randomCsr(9, 7, 0.4, 21);
    const DenseMatrix d = csrToDense(a);
    const CscMatrix csc = csrToCsc(a);
    for (int64_t c = 0; c < 7; ++c) {
        int64_t dense_nnz = 0;
        for (int64_t r = 0; r < 9; ++r)
            dense_nnz += d.at(r, c) != 0.0f;
        EXPECT_EQ(csc.colNnz(c), dense_nnz) << "column " << c;
        for (int64_t i = csc.colPtr[static_cast<size_t>(c)];
             i < csc.colPtr[static_cast<size_t>(c) + 1]; ++i) {
            EXPECT_EQ(csc.vals[static_cast<size_t>(i)],
                      d.at(csc.rowIdx[static_cast<size_t>(i)], c));
        }
    }
}

TEST(Csc, EmptyColumnsAreValid)
{
    SparseBuilder b(4, 5);
    b.add(0, 0, 1.0f);
    b.add(3, 4, 2.0f);
    const CscMatrix csc = csrToCsc(b.finish());
    csc.checkInvariants();
    EXPECT_EQ(csc.colNnz(1), 0);
    EXPECT_EQ(csc.colNnz(2), 0);
    EXPECT_EQ(csc.nnz(), 2);
}
