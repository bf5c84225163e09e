"""Blocked triangular solves and bordered Cholesky factors, numpy only.

The truncated estimator systems and the time-domain oracle both solve a
sequence of Hermitian systems, each the leading block of the next. One
lower Cholesky factor serves the whole sequence: each step borders it with
the new block rows (:func:`border`), so every row is factored once. Both
modules import these helpers from here, and this module imports nothing
of the package beyond its error types, so the oracle stays independent of
the spectral solvers.
"""

from __future__ import annotations

import numpy as np

from .errors import IllPosedError

# block size of the substitutions: larger blocks take fewer Python steps per
# solve but cost more to invert on the diagonal; 32 was fastest for n = 65..1032
PANEL = 32


def cholesky(matrix, context):
    """Lower Cholesky factor of a Hermitian matrix; ``IllPosedError`` when none exists."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise IllPosedError(f"{context}: system is not positive definite ({exc})") from exc


def panels(chol):
    """The diagonal panels of a lower triangular factor: (inverse, i, j) each.

    Panel rows i..j-1 are ``PANEL`` wide, the last one possibly narrower.
    The full diagonal blocks are inverted in one batched solve and a
    narrower last one at its own width, so a small factor pays for a small
    solve.
    """
    n = chol.shape[0]
    full = n - n % PANEL
    out = []
    if full:
        starts = range(0, full, PANEL)
        stack = np.stack([chol[i : i + PANEL, i : i + PANEL] for i in starts])
        eye = np.broadcast_to(np.eye(PANEL, dtype=chol.dtype), stack.shape)
        inv_diag = np.linalg.solve(stack, eye)
        out = [(inv_diag[k], i, i + PANEL) for k, i in enumerate(starts)]
    if full < n:
        last = chol[full:, full:]
        out.append((np.linalg.solve(last, np.eye(n - full, dtype=chol.dtype)), full, n))
    return out


def forward(chol, chol_panels, b):
    """L^{-1} b by blocked forward substitution, for b of shape (n,) or (n, m).

    Each step is two products, one with a panel of L and one with the
    panel's inverted diagonal block; ``chol_panels`` is ``panels(chol)``.
    """
    y = np.empty(b.shape, dtype=np.result_type(chol, b))
    for inv, i, j in chol_panels:
        y[i:j] = inv @ (b[i:j] - chol[i:j, :i] @ y[:i])
    return y


def cholesky_solver(chol):
    """The map b -> (L L^H)^{-1} b for a lower triangular factor L.

    Both triangular solves are blocked substitutions over the panels of
    :func:`panels`.
    """
    chol_panels = panels(chol)

    def solve(b):
        y = forward(chol, chol_panels, b)
        x = np.empty_like(y)
        for inv, i, j in reversed(chol_panels):
            r = y[i:j] - (x[j:].conj() @ chol[j:, i:j]).conj()
            x[i:j] = (r.conj() @ inv).conj()
        return x

    return solve


def border(chol, a12, a22, context):
    """Lower Cholesky factor of [[A11, A12], [A12^H, A22]] given ``chol``, that of A11.

    Block Cholesky bordering (Golub & Van Loan, *Matrix Computations*,
    section 4.2): with A11 = L L^H, the factor is [[L, 0], [X^H, L22]],
    where X = L^{-1} A12 by blocked forward substitution and L22 is the
    Cholesky factor of the Schur complement A22 - X^H X. Only the new rows
    are factored, and only the new blocks ``a12`` and ``a22`` are read.
    Raises ``IllPosedError`` when the Schur complement, hence the bordered
    matrix, is not positive definite.
    """
    n0, n1 = chol.shape[0], a22.shape[0]
    x = forward(chol, panels(chol), a12)
    out = np.zeros((n0 + n1, n0 + n1), dtype=np.result_type(chol, a12, a22))
    out[:n0, :n0] = chol
    out[n0:, :n0] = x.conj().T
    out[n0:, n0:] = cholesky(a22 - x.conj().T @ x, context)
    return out
