#include "sparse/Csr.hpp"

#include <numeric>

#include "util/Logging.hpp"

namespace gsuite {

CsrMatrix::CsrMatrix(int64_t rows, int64_t cols)
    : rowPtr(static_cast<size_t>(rows) + 1, 0), nRows(rows), nCols(cols)
{
    if (rows < 0 || cols < 0)
        panic("CsrMatrix with negative shape");
}

CsrMatrix
CsrMatrix::identity(int64_t n)
{
    CsrMatrix m(n, n);
    m.colIdx.resize(static_cast<size_t>(n));
    m.vals.assign(static_cast<size_t>(n), 1.0f);
    for (int64_t i = 0; i < n; ++i) {
        m.rowPtr[static_cast<size_t>(i) + 1] = i + 1;
        m.colIdx[static_cast<size_t>(i)] = i;
    }
    return m;
}

CsrMatrix
CsrMatrix::diagonal(const std::vector<float> &diag)
{
    const int64_t n = static_cast<int64_t>(diag.size());
    CsrMatrix m = identity(n);
    m.vals = diag;
    return m;
}

std::vector<int64_t>
CsrMatrix::rowDegrees() const
{
    std::vector<int64_t> deg(static_cast<size_t>(nRows));
    for (int64_t r = 0; r < nRows; ++r)
        deg[static_cast<size_t>(r)] = rowNnz(r);
    return deg;
}

void
CsrMatrix::checkInvariants() const
{
    panicIf(rowPtr.size() != static_cast<size_t>(nRows) + 1,
            "CSR rowPtr length mismatch");
    panicIf(rowPtr.front() != 0, "CSR rowPtr must start at 0");
    panicIf(rowPtr.back() != nnz(), "CSR rowPtr must end at nnz");
    panicIf(!vals.empty() && vals.size() != colIdx.size(),
            "CSR value array length mismatch");
    for (size_t r = 0; r + 1 < rowPtr.size(); ++r) {
        panicIf(rowPtr[r] > rowPtr[r + 1], "CSR rowPtr not monotonic");
        for (int64_t i = rowPtr[r]; i < rowPtr[r + 1]; ++i) {
            panicIf(colIdx[static_cast<size_t>(i)] < 0 ||
                        colIdx[static_cast<size_t>(i)] >= nCols,
                    "CSR col index out of range");
            if (i + 1 < rowPtr[r + 1]) {
                panicIf(colIdx[static_cast<size_t>(i)] >=
                            colIdx[static_cast<size_t>(i) + 1],
                        "CSR columns not strictly increasing in row");
            }
        }
    }
}

SparseBuilder::SparseBuilder(int64_t rows, int64_t cols)
    : nRows(rows), nCols(cols)
{
}

void
SparseBuilder::add(int64_t row, int64_t col, float val)
{
    if (row < 0 || row >= nRows || col < 0 || col >= nCols)
        panic("SparseBuilder entry out of range");
    rowIdx.push_back(row);
    colIdx.push_back(col);
    vals.push_back(val);
}

CsrMatrix
SparseBuilder::finish()
{
    const size_t n = rowIdx.size();

    // Pass 1: stable counting sort of the entry indices by column.
    std::vector<size_t> byCol(n);
    {
        std::vector<size_t> next(static_cast<size_t>(nCols) + 1, 0);
        for (int64_t c : colIdx)
            ++next[static_cast<size_t>(c) + 1];
        std::partial_sum(next.begin(), next.end(), next.begin());
        for (size_t i = 0; i < n; ++i)
            byCol[next[static_cast<size_t>(colIdx[i])]++] = i;
    }

    // Pass 2: stable scatter by row straight into the output, so each
    // row comes out column-sorted with equal columns in insertion
    // order.
    CsrMatrix out(nRows, nCols);
    for (int64_t r : rowIdx)
        ++out.rowPtr[static_cast<size_t>(r) + 1];
    std::partial_sum(out.rowPtr.begin(), out.rowPtr.end(),
                     out.rowPtr.begin());
    out.colIdx.resize(n);
    out.vals.resize(n);
    {
        std::vector<int64_t> next(out.rowPtr.begin(),
                                  out.rowPtr.end() - 1);
        for (size_t i : byCol) {
            const size_t at = static_cast<size_t>(
                next[static_cast<size_t>(rowIdx[i])]++);
            out.colIdx[at] = colIdx[i];
            out.vals[at] = vals[i];
        }
    }

    // Sum duplicates in place, row by row.
    size_t kept = 0;
    size_t k = 0;
    for (size_t r = 0; r < static_cast<size_t>(nRows); ++r) {
        const size_t rowStart = kept;
        const size_t rowEnd = static_cast<size_t>(out.rowPtr[r + 1]);
        for (; k < rowEnd; ++k) {
            if (kept > rowStart &&
                out.colIdx[kept - 1] == out.colIdx[k]) {
                out.vals[kept - 1] += out.vals[k]; // duplicate: sum
                continue;
            }
            out.colIdx[kept] = out.colIdx[k];
            out.vals[kept] = out.vals[k];
            ++kept;
        }
        out.rowPtr[r + 1] = static_cast<int64_t>(kept);
    }
    out.colIdx.resize(kept);
    out.vals.resize(kept);
    out.checkInvariants();
    return out;
}

} // namespace gsuite
