"""Sample-path generators for d-dimensional long-memory Gaussian noise.

Three generators share one contract (zero start, component independence,
seed reproducibility):

* :func:`generate_cholesky`  -- exact sampler; factorizes the closed-form
  increment Gram matrix, so the sampled path law matches the target
  covariance to rounding.  Serves as the exactness oracle.
* :func:`generate_volterra`  -- moving-average discretization of the
  Volterra representation ``beta(t) = integral_0^t K(t, s) dW(s)`` driven
  by ordinary Brownian increments, with midpoint kernel evaluation (which
  keeps every evaluation away from the kernel's two singular edges).
* :func:`generate_polygonal` -- same transform applied to the piecewise
  linear (polygonal) interpolation of the driver on a coarser partition;
  with ``coarse_factor=1`` it reproduces the Volterra paths.

Per-path randomness comes from counter-keyed substreams: path ``p`` draws
from ``default_rng(SeedSequence((seed, p)))``, so a given path is identical
no matter how many paths are requested, in what order, or how work is
batched.  The draws come from :func:`fhjm._substreams.path_normals`, which
seeds every path of a batch in one array pass (numpy's ``SeedSequence``
hashing over all path indices at once, then each path's ``PCG64`` state set
on one reused generator) and is bitwise equal to building
``SeedSequence((seed, p))`` per path.

The Cholesky sampler's increment Gram is Toeplitz, so its factor comes from
the Gram's first row by the Schur algorithm, once per (grid, H), using
elementwise operations only: every output is the same under any BLAS
thread count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._substreams import path_normals
from ._table import write_rows
from .kernels import (
    HurstParam,
    calibrate_kernel_scale,
    cov_cell_integral,
    volterra_kernel,
)

__all__ = [
    "TimeGrid",
    "BrownianDriver",
    "FbmPathSet",
    "fbm_covariance",
    "fbm_covariance_matrix",
    "generate_cholesky",
    "generate_volterra",
    "generate_polygonal",
    "write_paths_csv",
]

MAX_CHOLESKY_STEPS = 4096
# paths per stacked product, cumulative sum or difference done in place on a
# batch's samples: the temporaries of a batch stay one chunk in size
CHUNK_PATHS = 256


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, t_star] with ``n_steps`` cells."""

    t_star: float
    n_steps: int

    def __post_init__(self) -> None:
        if not self.t_star > 0:
            raise ValueError("t_star must be positive")
        if int(self.n_steps) < 1:
            raise ValueError("n_steps must be >= 1")
        object.__setattr__(self, "t_star", float(self.t_star))
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def dt(self) -> float:
        return self.t_star / self.n_steps

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.t_star, self.n_steps + 1)

    @property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n_steps) + 0.5) * self.dt


@dataclass(frozen=True)
class BrownianDriver:
    """Independent Brownian increments on a time grid, one block per path.

    ``increments`` has shape (n_paths, dims, n_steps), each entry centered
    Gaussian with variance dt.
    """

    grid: TimeGrid
    increments: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.increments.shape[0]

    @property
    def dims(self) -> int:
        return self.increments.shape[1]

    @classmethod
    def generate(
        cls, grid: TimeGrid, dims: int, n_paths: int, seed: int, path_offset: int = 0
    ) -> "BrownianDriver":
        z = path_normals(seed, path_offset, n_paths, (dims, grid.n_steps))
        return cls(grid=grid, increments=np.sqrt(grid.dt) * z)


@dataclass(frozen=True)
class FbmPathSet:
    """Sampled paths: ``samples[p, j, k]`` is component j of path p at t_k."""

    grid: TimeGrid
    dims: int
    n_paths: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        expected = (self.n_paths, self.dims, self.grid.n_steps + 1)
        if self.samples.shape != expected:
            raise ValueError(f"samples shape {self.samples.shape} != {expected}")
        if np.any(self.samples[:, :, 0] != 0.0):
            raise ValueError("paths must start at 0")

    def increments(self) -> np.ndarray:
        return np.diff(self.samples, axis=2)


def fbm_covariance(s, t, hurst: HurstParam):
    """Process covariance 0.5*(s^2H + t^2H - |t-s|^2H) for s, t >= 0."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise ValueError("times must be nonnegative")
    p = 2.0 * hurst.h
    out = 0.5 * (s**p + t**p - np.abs(t - s) ** p)
    return out if out.ndim else float(out)


def fbm_covariance_matrix(times: np.ndarray, hurst: HurstParam) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    return fbm_covariance(times[:, None], times[None, :], hurst)


def _increment_gram(grid: TimeGrid, hurst: HurstParam) -> np.ndarray:
    """The dense increment Gram; the oracle that the Toeplitz factor is tested against."""
    pts = grid.points
    a = pts[:-1]
    b = pts[1:]
    return cov_cell_integral(a[:, None], b[:, None], a[None, :], b[None, :], hurst)


def _schur_factor(row: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of the symmetric Toeplitz matrix with first row ``row``.

    Schur algorithm (Kailath & Sayed, "Displacement structure", SIAM Review
    37, 1995): T - Z T Z^T = u u^T - v v^T for the shift Z, with
    u = row / sqrt(row[0]) and v = u with v[0] = 0.  Column k of the factor
    is u after k steps of: shift u down one place, then rotate (u, v)
    hyperbolically so that v[k] = 0.  The rotation is applied in the mixed
    form that Bojanczyk, Brent, de Hoog & Sweet (SIAM J. Matrix Anal. Appl.
    16, 1995) show weakly stable for positive definite matrices.  Only
    elementwise operations: the bits do not depend on the BLAS thread count.
    Returns None when a rotation breaks down (|rho| >= 1): the matrix is
    not numerically positive definite.
    """
    n = row.size
    if not row[0] > 0.0:
        return None
    lower = np.zeros((n, n))
    u = row / np.sqrt(row[0])
    v = u.copy()
    v[0] = 0.0
    lower[:, 0] = u
    for k in range(1, n):
        u, v = u[:-1], v[1:]  # rows k..n-1: u shifted down, v in place
        rho = v[0] / u[0]
        if not abs(rho) < 1.0:
            return None
        c = np.sqrt((1.0 - rho) * (1.0 + rho))
        u = (u - rho * v) / c
        v = c * v - rho * u
        lower[k:, k] = u
    return lower


@lru_cache(maxsize=1)
def _increment_factor(grid: TimeGrid, hurst: HurstParam) -> np.ndarray:
    """Read-only lower factor of the increment Gram, built once per (grid, hurst).

    The increments are stationary, so the Gram is Toeplitz: its first row,
    the same ``cov_cell_integral`` entries as the dense Gram's, is all the
    Schur algorithm needs.  If a rotation breaks down, the factor is
    rebuilt with diagonal jitter 1e-12 and a warning.
    """
    pts = grid.points
    row = cov_cell_integral(pts[0], pts[1], pts[:-1], pts[1:], hurst)
    lower = _schur_factor(row)
    if lower is None:
        jitter = 1e-12
        warnings.warn(
            f"increment Gram factorization needed diagonal jitter {jitter:g}",
            RuntimeWarning,
            stacklevel=2,
        )
        row[0] += jitter
        lower = _schur_factor(row)
        if lower is None:
            raise np.linalg.LinAlgError("increment Gram is not positive definite")
    lower.flags.writeable = False
    return lower


def _path_chunks(samples: np.ndarray):
    """Views of ``samples`` over successive runs of at most ``CHUNK_PATHS`` paths."""
    for start in range(0, samples.shape[0], CHUNK_PATHS):
        yield samples[start:start + CHUNK_PATHS]


def generate_cholesky(
    grid: TimeGrid,
    dims: int,
    n_paths: int,
    hurst: HurstParam,
    seed: int,
    path_offset: int = 0,
) -> FbmPathSet:
    """Exact Gaussian sampler via Cholesky factorization of the increment Gram.

    The increment covariance comes from the closed-form cell integrals, so
    before any sampling the implied path Gram matrix reproduces
    :func:`fbm_covariance` to rounding.  The factor is the Toeplitz (Schur)
    one of :func:`_increment_factor`, built once per (grid, H).  Components
    are independent.  ``path_offset`` shifts the substream indices, so
    batched generation reproduces exactly the paths a single large call
    would produce.  Limited to ``n_steps <= 4096``: the factor is a dense
    n x n array and each path costs one O(n^2) product.

    The batch lives in one (n_paths, dims, n + 1) array: the normals are
    drawn straight into ``samples[:, :, 1:]``, and each chunk of
    ``CHUNK_PATHS`` paths is turned into its cumulative sum of
    ``z @ lower.T`` in place, so the only temporary is one chunk's product.
    """
    if grid.n_steps > MAX_CHOLESKY_STEPS:
        raise ValueError(f"n_steps > {MAX_CHOLESKY_STEPS} exceeds the factorization budget")
    lower = _increment_factor(grid, hurst)
    n = grid.n_steps
    samples = np.empty((n_paths, dims, n + 1))
    samples[:, :, 0] = 0.0
    path_normals(seed, path_offset, n_paths, (dims, n), out=samples[:, :, 1:])
    # a stacked product, not one flat GEMM, keeps every path bitwise equal to
    # its own (dims, n) product whatever the chunk or the batch
    for chunk in _path_chunks(samples[:, :, 1:]):
        np.cumsum(chunk @ lower.T, axis=2, out=chunk)
    return FbmPathSet(grid=grid, dims=int(dims), n_paths=int(n_paths), samples=samples)


def _kernel_matrix(grid: TimeGrid, hurst: HurstParam, scale: float) -> np.ndarray:
    """K(t_k, s_j^mid) for j < k, zero elsewhere; shape (n+1, n)."""
    n = grid.n_steps
    pts = grid.points
    mids = grid.midpoints
    kmat = np.zeros((n + 1, n))
    rows, cols = np.tril_indices(n)
    kmat[rows + 1, cols] = volterra_kernel(pts[rows + 1], mids[cols], hurst, scale)
    return kmat


@lru_cache(maxsize=1)
def _volterra_matrix(grid: TimeGrid, hurst: HurstParam) -> np.ndarray:
    """Read-only kernel matrix of the Volterra generators, built once per (grid, hurst).

    The kernel scale is calibrated at the grid's own resolution, or at 64
    steps on coarser grids.
    """
    scale = calibrate_kernel_scale(hurst, max(grid.n_steps, 64))
    kmat = _kernel_matrix(grid, hurst, scale)
    kmat.flags.writeable = False
    return kmat


def generate_volterra(driver: BrownianDriver, hurst: HurstParam) -> FbmPathSet:
    """Moving-average transform of a Brownian driver through the Volterra kernel.

    ``beta(t_k) = sum_{j<k} K(t_k, s_j^mid) dW_j`` with the kernel scale
    calibrated at the driver's own resolution, or at 64 steps on coarser
    grids, which pins the discrete variance at the horizon to t^2H.  The
    same driver always produces the same paths, and each path the same
    bits whatever the batch: the transform is one stacked (dims, n) product
    per path, never one flat product over the batch, whose rounding would
    follow the row count.
    """
    samples = driver.increments @ _volterra_matrix(driver.grid, hurst).T
    samples[:, :, 0] = 0.0
    return FbmPathSet(
        grid=driver.grid, dims=driver.dims, n_paths=driver.n_paths, samples=samples
    )


def generate_polygonal(driver: BrownianDriver, hurst: HurstParam, coarse_factor: int) -> FbmPathSet:
    """Kernel transform of the polygonally interpolated driver.

    The driver is linearly interpolated on the coarse partition of mesh
    ``coarse_factor * dt`` and its (piecewise constant) slope is integrated
    against the kernel on the fine grid, evaluating K at fine-cell
    midpoints away from its singular edges.  ``coarse_factor`` must divide
    ``n_steps``; with factor 1 the paths coincide with the Volterra ones.
    """
    n = driver.grid.n_steps
    coarse_factor = int(coarse_factor)
    if coarse_factor < 1 or n % coarse_factor != 0:
        raise ValueError("coarse_factor must be a positive divisor of n_steps")
    dt = driver.grid.dt
    # slope of the interpolated driver on each fine cell
    inc = driver.increments
    n_coarse = n // coarse_factor
    coarse_inc = inc.reshape(inc.shape[0], inc.shape[1], n_coarse, coarse_factor).sum(axis=3)
    slopes = np.repeat(coarse_inc / (coarse_factor * dt), coarse_factor, axis=2)
    samples = slopes @ (_volterra_matrix(driver.grid, hurst) * dt).T  # per path, as above
    samples[:, :, 0] = 0.0
    return FbmPathSet(
        grid=driver.grid, dims=driver.dims, n_paths=driver.n_paths, samples=samples
    )


def write_paths_csv(paths: FbmPathSet, fileobj, offset: int = 0, header: bool = True) -> None:
    """Write paths as rows (path_id, component, t, value), 17 significant digits.

    Path ids start at ``offset``; ``header=False`` appends a later batch.
    """
    write_rows(
        fileobj, ["path_id", "component", "t", "value"], range(offset, offset + paths.n_paths),
        (range(1, paths.dims + 1), paths.grid.points),
        [paths.samples.reshape(paths.n_paths, -1)], write_header=header,
    )
