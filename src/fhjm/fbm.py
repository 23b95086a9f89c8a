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
batched.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

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
    seed: int

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
        scale = np.sqrt(grid.dt)
        inc = np.empty((n_paths, dims, grid.n_steps))
        for p in range(n_paths):
            rng = _path_rng(seed, path_offset + p)
            inc[p] = scale * rng.standard_normal((dims, grid.n_steps))
        return cls(grid=grid, increments=inc, seed=int(seed))


@dataclass(frozen=True)
class FbmPathSet:
    """Sampled paths: ``samples[p, j, k]`` is component j of path p at t_k."""

    grid: TimeGrid
    dims: int
    n_paths: int
    samples: np.ndarray
    seed: int
    method: str
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = (self.n_paths, self.dims, self.grid.n_steps + 1)
        if self.samples.shape != expected:
            raise ValueError(f"samples shape {self.samples.shape} != {expected}")
        if np.any(self.samples[:, :, 0] != 0.0):
            raise ValueError("paths must start at 0")

    def increments(self) -> np.ndarray:
        return np.diff(self.samples, axis=2)


def _path_rng(seed: int, path_index: int) -> np.random.Generator:
    # Documented counter scheme: entropy pair (root seed, path index).
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(path_index))))


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
    pts = grid.points
    a = pts[:-1]
    b = pts[1:]
    return cov_cell_integral(a[:, None], b[:, None], a[None, :], b[None, :], hurst)


def _cholesky_with_jitter(gram: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        jitter = 1e-12
        warnings.warn(
            f"increment Gram factorization needed diagonal jitter {jitter:g}",
            RuntimeWarning,
            stacklevel=2,
        )
        return np.linalg.cholesky(gram + jitter * np.eye(gram.shape[0]))


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
    :func:`fbm_covariance` to rounding.  Components are independent.
    ``path_offset`` shifts the substream indices, so batched generation
    reproduces exactly the paths a single large call would produce.
    Limited to ``n_steps <= 4096`` (cubic factorization budget).
    """
    if grid.n_steps > MAX_CHOLESKY_STEPS:
        raise ValueError(f"n_steps > {MAX_CHOLESKY_STEPS} exceeds the factorization budget")
    gram = _increment_gram(grid, hurst)
    lower = _cholesky_with_jitter(gram)
    n = grid.n_steps
    z = np.empty((n_paths, dims, n))
    for p in range(n_paths):
        z[p] = _path_rng(seed, path_offset + p).standard_normal((dims, n))
    samples = np.zeros((n_paths, dims, n + 1))
    # a stacked product, not one flat GEMM, keeps every path bitwise equal to
    # its own (dims, n) product whatever the batch
    samples[:, :, 1:] = np.cumsum(z @ lower.T, axis=2)
    return FbmPathSet(
        grid=grid, dims=int(dims), n_paths=int(n_paths), samples=samples,
        seed=int(seed), method="cholesky",
    )


def _kernel_matrix(grid: TimeGrid, hurst: HurstParam, scale: float) -> np.ndarray:
    """K(t_k, s_j^mid) for j < k, zero elsewhere; shape (n+1, n)."""
    n = grid.n_steps
    pts = grid.points
    mids = grid.midpoints
    kmat = np.zeros((n + 1, n))
    rows, cols = np.tril_indices(n)
    kmat[rows + 1, cols] = volterra_kernel(pts[rows + 1], mids[cols], hurst, scale)
    return kmat


def generate_volterra(
    driver: BrownianDriver, hurst: HurstParam, scale: float | None = None
) -> FbmPathSet:
    """Moving-average transform of a Brownian driver through the Volterra kernel.

    ``beta(t_k) = sum_{j<k} K(t_k, s_j^mid) dW_j`` with the kernel scale
    calibrated (by default) at the driver's own resolution, which pins the
    discrete variance at the horizon to t^2H exactly.  The same driver
    always produces the same paths.
    """
    if scale is None:
        scale = calibrate_kernel_scale(hurst, max(driver.grid.n_steps, 64))
    kmat = _kernel_matrix(driver.grid, hurst, scale)
    samples = np.einsum("kl,pjl->pjk", kmat, driver.increments, optimize=True)
    samples[:, :, 0] = 0.0
    return FbmPathSet(
        grid=driver.grid, dims=driver.dims, n_paths=driver.n_paths,
        samples=samples, seed=driver.seed, method="volterra",
        extra={"scale": float(scale)},
    )


def generate_polygonal(
    driver: BrownianDriver,
    hurst: HurstParam,
    coarse_factor: int,
    scale: float | None = None,
) -> FbmPathSet:
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
    if scale is None:
        scale = calibrate_kernel_scale(hurst, max(n, 64))
    dt = driver.grid.dt
    # slope of the interpolated driver on each fine cell
    inc = driver.increments
    n_coarse = n // coarse_factor
    coarse_inc = inc.reshape(inc.shape[0], inc.shape[1], n_coarse, coarse_factor).sum(axis=3)
    slopes = np.repeat(coarse_inc / (coarse_factor * dt), coarse_factor, axis=2)
    kmat = _kernel_matrix(driver.grid, hurst, scale)
    samples = np.einsum("kl,pjl->pjk", kmat * dt, slopes, optimize=True)
    samples[:, :, 0] = 0.0
    return FbmPathSet(
        grid=driver.grid, dims=driver.dims, n_paths=driver.n_paths,
        samples=samples, seed=driver.seed, method="polygonal",
        extra={"scale": float(scale), "coarse_factor": coarse_factor},
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
