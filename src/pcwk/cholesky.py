"""Blocked triangular solves and the section Cholesky factor, numpy only.

The truncated estimator systems and the time-domain oracle both solve a
sequence of Hermitian systems, each the leading block of the next. One
:class:`SectionFactor` serves the whole sequence: it grows the lower
Cholesky factor of the largest matrix one chunk of rows at a time, reading
each chunk's rows through one block-row reader (:func:`block_rows`), so
every row is factored once, and each system reads the chunks of its own
leading section and the rows past them, its tail, kept per order. A
factor is held as row strips: the rows L[i:j, :j] of each chunk i..j-1
with the inverse of its diagonal block, which the substitutions read.
Both modules import these helpers from here, and this module imports
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


def block_rows(gather, index, K):
    """A row reader of the matrix of K x K blocks at ``index`` x ``index``.

    ``gather(rows, cols)`` returns the dense matrix of the blocks at the
    index arrays rows x cols. The reader ``rows(i, j)`` returns the rows
    A[i:j, :j], gathered from the block rows that cover rows i..j-1 alone.
    """

    def rows(i, j):
        lo, hi = i // K, -(-j // K)
        return gather(index[lo:hi], index[:hi])[i - lo * K : j - lo * K, :j]

    return rows


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
    sections read before. A section that ends inside a chunk also has a
    tail, its last n mod ``PANEL`` rows, factored the same way from the
    stored chunks and kept per order, read-only: at most (``PANEL`` - 1) n
    entries for each order read, so its bits too depend on the matrix
    alone, and a repeated read of one order gathers and factors nothing.
    The factor reads the matrix through a row reader (:func:`block_rows`),
    one chunk at a time and only the rows it has not stored, so it never
    holds the matrix: a read's peak is about the factor, n^2 / 2 * 16
    bytes, plus one slab of ``PANEL`` rows. Its callers solve with the
    factor alone, with no refinement step. It estimates no condition
    number: the sections its callers read, the estimators' kernel sections
    and the oracle's windows, are principal submatrices of block
    circulants, so the grid bound
    ``spectral.check_minimality(...).max_condition`` bounds the 2-norm
    condition of each of them.
    """

    def __init__(self):
        self._strips = []
        self._tails = {}
        self._read = False

    def strips(self, n, rows, context):
        """The row strips of the section of order n.

        The stored chunks it covers, then its new chunks and its tail, each
        factored from ``rows(i, j)``, the rows A[i:j, :j] of the matrix,
        read once per chunk past the stored ones: the largest array a read
        gathers is ``PANEL`` x n, and the dense section is never formed.
        Once every chunk of the read is factored, its new full chunks and
        its tail are stored for later reads, so a read whose chunks and tail
        are stored returns them as they are; raises ``IllPosedError`` when
        the section is not positive definite, and then stores nothing. A
        read of order 0 is no read.
        """
        out = self._strips[: n // PANEL]
        if n in self._tails:  # stored with every chunk it covers
            return out + [self._tails[n]]
        start = len(out)
        for i in range(start * PANEL, n, PANEL):
            j = min(i + PANEL, n)
            block = rows(i, j)
            x = forward(out, block[:, :i].conj().T)
            try:
                lower = np.linalg.cholesky(block[:, i:j] - x.conj().T @ x)
            except np.linalg.LinAlgError as exc:
                raise IllPosedError(
                    f"{context}: system is not positive definite ({exc})") from exc
            strip = np.concatenate([x.conj().T, lower], axis=1)
            out.append((strip, np.linalg.solve(lower, np.eye(j - i, dtype=lower.dtype))))
        for arrays in out[start:]:
            for arr in arrays:
                arr.flags.writeable = False
        self._strips += out[start : n // PANEL]
        if n % PANEL:
            self._tails[n] = out[-1]
        self._read |= n > 0
        return out

    def status(self, n):
        """What a read of the section of order n does: "computed k chunks"
        (the first read), "extended by k chunks", "tail factored" (its
        chunks are stored, its tail is not) or "memo" (it gathers and
        factors nothing)."""
        new = max(n // PANEL - len(self._strips), 0)
        if not self._read:
            return f"computed {new} chunks"
        if new:
            return f"extended by {new} chunks"
        return "memo" if n % PANEL == 0 or n in self._tails else "tail factored"
