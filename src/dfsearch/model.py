"""Experiment ingredients: designs, signals, and reproducible noise.

Everything downstream consumes the three value types defined here.  They are
frozen after construction so that a fitted procedure or a Monte Carlo run can
hold onto them without defensive copies.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DesignMatrix",
    "SignalSpec",
    "RngSpec",
    "gen_block_design",
    "gen_orthogonal_design",
    "sample_response",
]

# Max allowed departure of X^T X from the identity for a design that claims
# orthonormal columns.
_ORTHO_TOL = 1e-10


def _as_index(value, name: str) -> int:
    """value as an int by operator.index, so numpy integers pass and a
    float (even 1.0) raises ValueError naming the argument."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DesignMatrix:
    """An n x p design with a flag recording exact column orthonormality.

    The flag is trusted by closed-form code paths, so construction verifies
    it rather than taking the caller's word.
    """

    values: np.ndarray
    orthogonal: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"design must be a 2-d matrix, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("design contains non-finite entries")
        object.__setattr__(self, "values", _frozen(v))
        if self.orthogonal:
            gram_err = np.max(np.abs(v.T @ v - np.eye(v.shape[1])))
            if gram_err > _ORTHO_TOL:
                raise ValueError(
                    f"orthogonal=True but max |X'X - I| = {gram_err:.3e} > {_ORTHO_TOL:.0e}"
                )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SignalSpec:
    """True mean vector and noise level of the data generating process.

    A signal built from coefficients (see :meth:`from_coefficients`) keeps
    only their image mu = X beta.
    """

    mu: np.ndarray
    sigma: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.ndim != 1:
            raise ValueError("mu must be a 1-d vector")
        if not np.all(np.isfinite(mu)):
            raise ValueError("mu contains non-finite entries")
        if not (self.sigma > 0 and np.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        object.__setattr__(self, "mu", _frozen(mu))

    @classmethod
    def from_coefficients(
        cls, design: DesignMatrix, beta_star: np.ndarray, sigma: float
    ) -> "SignalSpec":
        """Build the signal with mu = X beta_star computed once, exactly."""
        b = np.asarray(beta_star, dtype=float)
        if b.shape != (design.p,):
            raise ValueError(f"beta_star must have length p={design.p}, got {b.shape}")
        return cls(mu=design.values @ b, sigma=float(sigma))

    @property
    def n(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class RngSpec:
    """Counter-based random stream identity.

    ``(seed, stream_id)`` keys a Philox counter stream, so replication r of
    an experiment can use ``stream_id=r`` and reproduce its draws bit for bit
    regardless of which other replications ran, or in what order.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = _as_index(getattr(self, name), name)
            if not 0 <= value < 2**64:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")
            object.__setattr__(self, name, value)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(key=np.array([self.seed, self.stream_id], dtype=np.uint64))
        )


# ---------------------------------------------------------------------------
# design generators
# ---------------------------------------------------------------------------

def gen_block_design(
    n: int,
    p: int,
    block_sizes: list[int],
    corr_low: float,
    corr_high: float,
    rng: RngSpec,
) -> DesignMatrix:
    """Draw an n x p design with block-structured column correlations.

    Rows are i.i.d. N(0, Sigma).  Sigma is block diagonal; within each block
    the diagonal is 1 and every off-diagonal entry is an independent
    U[corr_low, corr_high] draw.  Cross-block correlations are zero.

    A randomly filled block matrix need not be positive definite.  When the
    smallest eigenvalue of Sigma falls below 1e-6, the smallest tau in
    {1e-8 * 2**k} that lifts it back to 1e-6 is added to the diagonal.  This
    inflates the diagonal slightly above 1, which is the documented price of
    keeping the requested off-diagonal entries untouched.

    Parameters
    ----------
    n, p : int
        Number of rows and columns.
    block_sizes : list of int
        Sizes of the correlation blocks; must sum to p.
    corr_low, corr_high : float
        Range of within-block correlations, 0 <= corr_low <= corr_high < 1.
    rng : RngSpec
        Stream driving both the correlation draws and the rows.

    Returns
    -------
    DesignMatrix
        With ``orthogonal=False``.
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    sizes = [int(b) for b in block_sizes]
    if any(b < 1 for b in sizes) or sum(sizes) != p:
        raise ValueError(f"block sizes {sizes} must be positive and sum to p={p}")
    if not (0.0 <= corr_low <= corr_high < 1.0):
        raise ValueError("need 0 <= corr_low <= corr_high < 1")

    g = rng.generator()
    sigma_mat = np.zeros((p, p))
    start = 0
    for b in sizes:
        block = np.eye(b)
        iu = np.triu_indices(b, k=1)
        draws = g.uniform(corr_low, corr_high, size=len(iu[0]))
        block[iu] = draws
        block.T[iu] = draws
        sigma_mat[start : start + b, start : start + b] = block
        start += b

    min_eig = float(np.linalg.eigvalsh(sigma_mat)[0])
    if min_eig < 1e-6:
        for k in range(64):
            tau = 1e-8 * 2.0**k
            if min_eig + tau >= 1e-6:
                sigma_mat = sigma_mat + tau * np.eye(p)
                break
        else:
            raise ValueError("could not repair block covariance to positive definite")

    chol = np.linalg.cholesky(sigma_mat)
    rows = g.standard_normal((n, p)) @ chol.T
    return DesignMatrix(values=rows, orthogonal=False)


def gen_orthogonal_design(n: int, p: int) -> DesignMatrix:
    """Deterministic design with exactly orthonormal columns (identity when
    n = p, otherwise the first p coordinate basis vectors of R^n)."""
    if not 1 <= p <= n:
        raise ValueError(f"need 1 <= p <= n, got n={n}, p={p}")
    return DesignMatrix(values=np.eye(n)[:, :p], orthogonal=True)


def sample_response(spec: SignalSpec, rng: RngSpec) -> np.ndarray:
    """One response draw y = mu + sigma * z with z ~ N(0, I)."""
    g = rng.generator()
    return spec.mu + spec.sigma * g.standard_normal(spec.n)
