"""Blocked triangular solves and the section Cholesky factor, numpy only.

The truncated estimator systems and the time-domain oracle both solve a
sequence of Hermitian systems, each the leading block of the next. One
:class:`SectionFactor` serves the whole sequence: it grows the lower
Cholesky factor of the largest matrix one chunk of rows at a time, so every
row is factored once, and each system reads the chunks of its own leading
section. A factor is held as row strips: the rows L[i:j, :j] of each chunk
i..j-1 with the inverse of its diagonal block, which the substitutions
read. Both modules import these helpers from here, and this module imports
nothing of the package beyond its error types, so the oracle stays
independent of the spectral solvers.
"""

from __future__ import annotations

import numpy as np

from .errors import IllPosedError

# block size of the substitutions: larger blocks take fewer Python steps per
# solve but cost more to invert on the diagonal; 32 was fastest for n = 65..1032
PANEL = 32


def forward(chol_strips, b):
    """L^{-1} b by blocked forward substitution, for b of shape (n,) or (n, m).

    Each step is two products, one with a strip of L and one with the
    inverse of its diagonal block.
    """
    y = np.empty(b.shape, dtype=np.result_type(b, *[s for s, _ in chol_strips[:1]]))
    for rows, inv in chol_strips:
        i, j = rows.shape[1] - rows.shape[0], rows.shape[1]
        y[i:j] = inv @ (b[i:j] - rows[:, :i] @ y[:i])
    return y


def backward(chol_strips, y):
    """L^{-H} y for a vector y, by blocked back substitution.

    Right-looking: each strip, last first, solves its own rows and then
    removes their share from the rows above it, reading the strip as
    stored.
    """
    x = y.copy()
    for rows, inv in reversed(chol_strips):
        i, j = rows.shape[1] - rows.shape[0], rows.shape[1]
        x[i:j] = (x[i:j].conj() @ inv).conj()
        x[:i] -= (x[i:j].conj() @ rows[:, :i]).conj()
    return x


class SectionFactor:
    """Lower Cholesky factor of the leading sections of one Hermitian matrix.

    The section of order n is the matrix's leading n x n block. The factor
    grows in chunks of ``PANEL`` rows, one at a time, each bordered onto the
    rows stored before it (block Cholesky bordering, Golub & Van Loan,
    *Matrix Computations*, section 4.2): X = L^{-1} A12 by forward
    substitution over the stored strips, then the Cholesky factor L22 of
    the Schur block A22 - X^H X. A chunk is stored as its row strip
    [X^H, L22] with the inverse of L22, both read-only, about n^2 / 2
    entries in all, and its bits depend on the matrix alone, never on the
    sections read before. A section that ends inside a chunk factors its
    tail on each read and stores none of it. The factor reads the matrix
    through a row reader, only the rows it has not stored, and estimates
    no condition number: the sections its callers read, the estimators'
    kernel sections and the oracle's windows, are principal submatrices of
    block circulants, so the grid bound
    ``spectral.check_minimality(...).max_condition`` bounds the 2-norm
    condition of each of them.
    """

    def __init__(self):
        self._strips = []
        self._read = False

    def strips(self, n, rows, context):
        """The row strips of the section of order n.

        The stored chunks it covers, then its new chunks and its tail, each
        factored from ``rows(i, j)``, the rows A[i:j, :j] of the matrix,
        read once for the rows past the stored chunks. Once every chunk of
        the read is factored, its new full chunks are stored for later
        reads; raises ``IllPosedError`` when the section is not positive
        definite, and then stores nothing. A read of order 0 is no read.
        """
        out = self._strips[: n // PANEL]
        start = len(out) * PANEL
        new = rows(start, n) if start < n else None
        for i in range(start, n, PANEL):
            j = min(i + PANEL, n)
            block = new[i - start : j - start]
            x = forward(out, block[:, :i].conj().T)
            try:
                lower = np.linalg.cholesky(block[:, i:j] - x.conj().T @ x)
            except np.linalg.LinAlgError as exc:
                raise IllPosedError(
                    f"{context}: system is not positive definite ({exc})") from exc
            strip = np.concatenate([x.conj().T, lower], axis=1)
            out.append((strip, np.linalg.solve(lower, np.eye(j - i, dtype=lower.dtype))))
        for arrays in out[len(self._strips) : n // PANEL]:
            for arr in arrays:
                arr.flags.writeable = False
            self._strips.append(arrays)
        self._read |= n > 0
        return out

    def status(self, n):
        """What a read of the section of order n adds: "computed k chunks"
        (the first read), "extended by k chunks" or "memo"."""
        new = max(n // PANEL - len(self._strips), 0)
        if not self._read:
            return f"computed {new} chunks"
        return f"extended by {new} chunks" if new else "memo"
