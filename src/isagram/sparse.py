"""Compressed sparse row (CSR) feature rows in plain numpy.

Feature rows are 0.16 % filled at protocol scale, so they are stored as
CSR.  The type covers only what the pipeline needs (build, check, densify,
row ids); ``scipy.sparse`` is not imported because importing it costs more
than a whole ``isagram predict`` spends on features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class CsrRows:
    """Row ``r`` stores ``data[indptr[r]:indptr[r+1]]`` at those ``indices``.

    Columns ascend within a row and no stored value is zero, so two CSR
    views of the same dense matrix hold identical arrays.
    """

    indptr: np.ndarray  # int64, n_rows + 1
    indices: np.ndarray  # int64 column of each stored value
    data: np.ndarray  # float64
    shape: tuple[int, int]

    @classmethod
    def from_triples(cls, rows, cols, values, shape) -> "CsrRows":
        """Rows from (row, col, value) triples of nonzero values at distinct (row, col) pairs."""
        order = np.argsort(rows.astype(np.int64) * shape[1] + cols)  # keys are distinct
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        data = np.asarray(values, dtype=np.float64)[order]
        return cls(indptr, cols[order].astype(np.int64), data, tuple(shape))

    @classmethod
    def from_dense(cls, X) -> "CsrRows":
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        rows, cols = np.nonzero(X)  # NaN counts as nonzero, so it stays visible
        return cls.from_triples(rows, cols, X[rows, cols], X.shape)

    def check(self) -> "CsrRows":
        """These rows, if the arrays are well-formed CSR of ``shape``; else ValueError."""
        rows, cols = self.shape
        indptr, indices, nnz = self.indptr, self.indices, self.data.shape[0]
        if indptr.shape != (rows + 1,) or indices.shape != (nnz,) or self.data.ndim != 1:
            raise ValueError("CSR array lengths do not match the shape")
        if indptr[0] != 0 or indptr[-1] != nnz or (np.diff(indptr) < 0).any():
            raise ValueError("CSR indptr must rise from 0 to the number of stored values")
        if nnz and (indices.min() < 0 or indices.max() >= cols):
            raise ValueError("CSR column index out of range")
        ascending = np.diff(indices) > 0
        starts = indptr[1:-1]
        ascending[starts[(starts > 0) & (starts < nnz)] - 1] = True  # a row may start lower
        if not ascending.all():
            raise ValueError("CSR columns must ascend within a row")
        return self

    def row_ids(self) -> np.ndarray:
        """Row index of every stored value."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.row_ids(), self.indices] = self.data
        return out
