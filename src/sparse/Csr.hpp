/**
 * @file
 * Compressed sparse row (CSR) matrix — the SpMM-side graph format.
 */

#ifndef GSUITE_SPARSE_CSR_HPP
#define GSUITE_SPARSE_CSR_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gsuite {

/**
 * CSR sparse float matrix. rowPtr has rows()+1 entries; row r's
 * entries live at [rowPtr[r], rowPtr[r+1]) in colIdx/vals.
 */
class CsrMatrix
{
  public:
    CsrMatrix() = default;

    /** Empty (all-zero) matrix of the given shape. */
    CsrMatrix(int64_t rows, int64_t cols);

    int64_t rows() const { return nRows; }
    int64_t cols() const { return nCols; }
    int64_t nnz() const { return static_cast<int64_t>(colIdx.size()); }

    /** Number of stored entries in row r. */
    int64_t
    rowNnz(int64_t r) const
    {
        return rowPtr[static_cast<std::size_t>(r) + 1] -
               rowPtr[static_cast<std::size_t>(r)];
    }

    /** Identity matrix of order n. */
    static CsrMatrix identity(int64_t n);

    /** Diagonal matrix from a vector. */
    static CsrMatrix diagonal(const std::vector<float> &diag);

    /** Per-row entry counts (out-degrees for an adjacency matrix). */
    std::vector<int64_t> rowDegrees() const;

    /** Validate structural invariants; panic() on violation. */
    void checkInvariants() const;

    std::vector<int64_t> rowPtr;
    std::vector<int64_t> colIdx;
    std::vector<float> vals;

  private:
    int64_t nRows = 0;
    int64_t nCols = 0;

    friend CsrMatrix cooToCsr(const class CooMatrix &coo);
    friend class SparseBuilder;
};

/**
 * Incremental CSR builder. Entries may arrive in any row and column
 * order; finish() sorts them in O(nnz + rows + cols) and sums
 * duplicates in insertion order.
 */
class SparseBuilder
{
  public:
    SparseBuilder(int64_t rows, int64_t cols);

    /** Append an entry to the current row set. */
    void add(int64_t row, int64_t col, float val);

    /**
     * Build the CSR matrix: a stable two-pass counting sort (by
     * column, then by row), so entries with equal (row, col) stay in
     * insertion order and are summed in that order.
     */
    CsrMatrix finish();

  private:
    int64_t nRows;
    int64_t nCols;
    std::vector<int64_t> rowIdx;
    std::vector<int64_t> colIdx;
    std::vector<float> vals;
};

} // namespace gsuite

#endif // GSUITE_SPARSE_CSR_HPP
