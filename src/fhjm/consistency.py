"""Finite-dimensional forward-curve families and invariance (tangency) checks.

A parameterized family F(x, y) of smooth curves is invariant under the
forward-rate dynamics exactly when, at every curve of the family, three
directions lie in the tangent space spanned by the parameter partials:

* the shift direction dF/dx                     (transport part),
* the no-arbitrage drift curve at every time t  (drift part),
* every factor volatility curve                 (noise directions).

Because the tangent space is a linear span, the affine inclusion
decomposes exactly into separate least-squares membership tests, each
returning a relative residual on a weighted maturity grid.  The built-in
exponential-decay family with curve shape

    F(x, y) = y1 + y2 * exp(-y4 x) + y3 * x * exp(-y4 x),   y4 != 0,

passes the shift test but fails the drift test against both built-in
volatility models: the flat model's drift grows linearly in x, and the
damped model's drift carries an exp(-2 a x) component outside the span.
``controlled_path`` drives the deterministic control system whose
trajectories generate the support of the forward-rate law, giving a
constructive route to the same verdicts (a curve family that loses a
controlled path is not invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .drift import (
    DriftField,
    _drift_row,
    _warn_if_table_read_flat,
    ho_lee_drift,
    hull_white_drift,
)
from .kernels import FracOrder, HurstParam, frac_integral
from .vol import ExpDecayVol, FlatVol, VolatilitySpec, eval_vol

__all__ = [
    "CurveFamily",
    "nelson_siegel_family",
    "TangencyVerdict",
    "default_membership_grid",
    "tangent_residual",
    "check_shift_condition",
    "check_drift_and_vol_condition",
    "nagumo_full_check",
    "controlled_path",
    "family_fit_distance",
]


def family_fit_distance(family: CurveFamily, xs, weights, target, y0) -> float:
    """Weighted distance from a sampled curve to the family's best fit.

    Nonlinear least squares over the parameters, seeded at ``y0``.  Used
    to demonstrate manifold escape: along a controlled trajectory that
    leaves the family, this distance becomes strictly positive.

    The distance does not depend on the target's overall scale while its
    weighted norm lies between 1e-300, the floor of the relative norm,
    and about 1e286.  Measured with the Nelson-Siegel family on the
    64-node membership grid, y0 = (5.9 s, 2.4 s, 2.6 s, 2.5) and the
    target 1.0001 F(x, y0) + s sin(x): 0.0722638493 to 2e-10 relative for
    s from 5e-302 to 7e284.  Below, the floor shrinks it; above, the fit
    tries a y at which the curve overflows and settles at 0.0616.
    """
    from scipy.optimize import least_squares

    xs = np.asarray(xs, dtype=float)
    sw = np.sqrt(np.asarray(weights, dtype=float))
    target = np.asarray(target, dtype=float)
    scale = _norm_scale(target * sw)

    def resid(y):
        # scaled, so that the fit's own sums of squares do not overflow
        return (family.curve(xs, y) - target) * (sw * scale)

    sol = least_squares(resid, np.asarray(y0, dtype=float), method="lm", max_nfev=2000)
    return _relative_norm(sol.fun / scale, target * sw)

PASS_TOLERANCE = 1e-6
REFINE_BAND = 1e-3


def _norm_scale(reference: np.ndarray) -> float:
    """The power of two that brings max |reference| into [1/2, 1), at most 2**1021.

    A larger scale would itself overflow, so subnormal references scale less.
    """
    return float(np.ldexp(1.0, min(-int(np.frexp(np.max(np.abs(reference)))[1]), 1021)))


def _relative_norm(residual: np.ndarray, reference: np.ndarray) -> float:
    """||residual|| / max(||reference||, 1e-300), finite for entries near 1e300.

    Both norms are taken on the vectors scaled by :func:`_norm_scale` of
    ``reference``, so neither overflows, and the scale is then undone; a
    power of two changes no bit of the ratio.
    """
    scale = _norm_scale(reference)
    num = float(np.linalg.norm(residual * scale) / scale)
    den = max(float(np.linalg.norm(reference * scale) / scale), 1e-300)
    return num / den


def _nan_as_inf(res: float) -> float:
    """``res``, or infinity for a NaN, which every comparison would pass."""
    return math.inf if math.isnan(res) else res


@dataclass(frozen=True)
class CurveFamily:
    """Smooth curve family F(x, y) with analytic parameter and x partials.

    ``curve(x, y)`` evaluates F; ``tangent_basis(x, y)`` returns the
    partials dF/dy_i stacked as columns (the tangent space at y);
    ``x_derivative(x, y)`` returns dF/dx.  ``domain_check`` rejects
    parameters outside the family's state space.  Consistency of the
    analytic partials with central finite differences is testable via
    :meth:`partials_self_check`.
    """

    name: str
    n_params: int
    curve: callable
    tangent_basis: callable
    x_derivative: callable
    domain_check: callable = lambda y: True

    def require_in_domain(self, y: np.ndarray) -> None:
        if not self.domain_check(np.asarray(y, dtype=float)):
            raise ValueError(f"parameter {y!r} outside the domain of family {self.name}")

    def partials_self_check(self, y, xs) -> float:
        """Max relative gap between analytic partials and central differences."""
        y = np.asarray(y, dtype=float)
        xs = np.asarray(xs, dtype=float)
        basis = self.tangent_basis(xs, y)
        worst = 0.0
        for i in range(self.n_params):
            h = 1e-6 * max(1.0, abs(y[i]))
            yp, ym = y.copy(), y.copy()
            yp[i] += h
            ym[i] -= h
            fd = (self.curve(xs, yp) - self.curve(xs, ym)) / (2.0 * h)
            scale = max(float(np.max(np.abs(basis[:, i]))), 1e-12)
            worst = max(worst, _nan_as_inf(float(np.max(np.abs(fd - basis[:, i])) / scale)))
        return worst


def nelson_siegel_family(decay_fixed: float | None = None) -> CurveFamily:
    """The 4-parameter exponential-decay yield-curve family.

    With ``decay_fixed`` set, the decay parameter y4 is frozen to that
    value (the restricted state space used when matching a damped
    volatility model); the family still exposes all four parameters but
    its domain is the slice y4 == decay_fixed.
    """

    def curve(x, y):
        x = np.asarray(x, dtype=float)
        return y[0] + (y[1] + y[2] * x) * np.exp(-y[3] * x)

    def tangent_basis(x, y):
        x = np.asarray(x, dtype=float)
        e = np.exp(-y[3] * x)
        cols = [np.ones_like(x), e, x * e, -x * (y[1] + y[2] * x) * e]
        return np.stack(cols, axis=1)

    def x_derivative(x, y):
        x = np.asarray(x, dtype=float)
        e = np.exp(-y[3] * x)
        return (y[2] - y[3] * (y[1] + y[2] * x)) * e

    if decay_fixed is None:
        domain = lambda y: abs(float(y[3])) > 1e-12  # noqa: E731
        name = "nelson-siegel"
    else:
        domain = lambda y: abs(float(y[3]) - decay_fixed) < 1e-9  # noqa: E731
        name = f"nelson-siegel(y4={decay_fixed:g})"
    return CurveFamily(
        name=name, n_params=4, curve=curve, tangent_basis=tangent_basis,
        x_derivative=x_derivative, domain_check=domain,
    )


@dataclass
class TangencyVerdict:
    """Outcome of a tangency test over (time, parameter) samples."""

    check: str
    passed: bool
    max_residual: float
    tolerance: float
    witnesses: list = field(default_factory=list)  # (label, t, y, residual)
    indeterminate: bool = False

    def to_dict(self) -> dict:
        """The verdict as JSON-ready values, one entry per witness."""
        return {
            "check": self.check,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "indeterminate": self.indeterminate,
            "witnesses": [
                {"component": lab, "t": t, "y": list(map(float, y)), "residual": r}
                for (lab, t, y, r) in self.witnesses
            ],
        }


def default_membership_grid(n: int = 512):
    """Maturity grid of ``n`` nodes on [0, 10] and weights for membership tests.

    Exponential weights keep constants and decaying exponentials
    simultaneously well conditioned on the grid.
    """
    xs = np.linspace(0.0, 10.0, n)
    weights = np.exp(-xs / 4.0)
    return xs, weights


def tangent_residual(
    family: CurveFamily, y, g, xs=None, weights=None
) -> tuple[float, int]:
    """Relative weighted least-squares distance of curve ``g`` from the tangent span.

    Returns (residual, rank):  min_c ||g - B c||_w / max(||g||_w, floor).
    Zero means g lies in the span; a rank below the parameter count
    signals a degenerate basis (the pseudo-inverse solution is used).
    The norms do not overflow at g near 1e300 (:func:`_relative_norm`).
    """
    if xs is None or weights is None:
        xs, weights = default_membership_grid()
    y = np.asarray(y, dtype=float)
    family.require_in_domain(y)
    g = np.asarray(g, dtype=float)
    sw = np.sqrt(weights)
    basis = family.tangent_basis(xs, y) * sw[:, None]
    target = g * sw
    coef, _, rank, _ = np.linalg.lstsq(basis, target, rcond=None)
    return _relative_norm(target - basis @ coef, target), int(rank)


def check_shift_condition(family: CurveFamily, y_samples, xs=None, weights=None) -> TangencyVerdict:
    """Test whether dF/dx stays in the tangent span at each parameter sample."""
    if xs is None or weights is None:
        xs, weights = default_membership_grid()
    worst = 0.0
    witnesses = []
    for y in y_samples:
        g = family.x_derivative(xs, np.asarray(y, dtype=float))
        res = _nan_as_inf(tangent_residual(family, y, g, xs, weights)[0])
        worst = max(worst, res)
        if res > PASS_TOLERANCE:
            witnesses.append(("shift dF/dx", 0.0, np.asarray(y, float), res))
    # failures inside the refinement band could still be quadrature noise
    indeterminate = bool(witnesses) and max(w[3] for w in witnesses) <= REFINE_BAND
    return TangencyVerdict(
        check="shift", passed=not witnesses, max_residual=worst, tolerance=PASS_TOLERANCE,
        witnesses=witnesses, indeterminate=indeterminate,
    )


def _drift_components(
    spec: VolatilitySpec, hurst: HurstParam, t: float, xs: np.ndarray
):
    """Labelled drift curves to test: the total plus closed-form split terms.

    For the built-in one-factor models the drift splits into named
    components (constant / linear-in-x, damped / doubly damped), which the
    verdict reports as the failing witness.
    """
    comps = []
    if spec.dims == 1 and isinstance(spec.factors[0], FlatVol):
        sig = spec.factors[0].sigma
        h = hurst.h
        comps.append(("drift constant term", np.full_like(xs, ho_lee_drift(sig, hurst, t, 0.0))))
        comps.append(
            ("drift linear-in-x term", sig**2 * 2.0 * h * t ** (2.0 * h - 1.0) * xs)
        )
        comps.append(("drift total", ho_lee_drift(sig, hurst, t, xs)))
    elif spec.dims == 1 and isinstance(spec.factors[0], ExpDecayVol):
        sig = spec.factors[0].sigma
        a = spec.factors[0].decay
        from .drift import exp_damped_cov_integral

        h = hurst.h
        i0 = h * t ** (2.0 * h - 1.0)
        j = exp_damped_cov_integral(a, hurst, t)
        comps.append(("drift exp(-a x) term", (sig**2 / a) * (i0 + j) * np.exp(-a * xs)))
        comps.append(("drift exp(-2 a x) term", -(2.0 * sig**2 / a) * j * np.exp(-2.0 * a * xs)))
        comps.append(("drift total", hull_white_drift(sig, a, hurst, t, xs)))
    else:
        comps.append(("drift total", _drift_row(spec, hurst, t, xs, theta_cells=512)))
    return comps


def check_drift_and_vol_condition(
    family: CurveFamily,
    spec: VolatilitySpec | None,
    hurst: HurstParam,
    t_samples,
    y_samples,
    xs=None,
    weights=None,
) -> TangencyVerdict:
    """Test drift curves and every factor volatility curve for span membership.

    The affine inclusion {drift(t) + span of volatilities} subset tangent
    space reduces exactly to separate span tests because the tangent space
    is linear.  All samples must pass; the first failures are recorded as
    witnesses with their component labels.  ``spec=None`` models the
    zero-volatility case, which passes trivially (zero drift, zero noise
    directions).
    """
    if spec is None:
        return TangencyVerdict(
            check="drift+vol", passed=True, max_residual=0.0, tolerance=PASS_TOLERANCE
        )
    if xs is None or weights is None:
        xs, weights = default_membership_grid()
    t_samples = [float(t) for t in t_samples]
    _warn_if_table_read_flat(spec, float(np.max(xs)) + max(t_samples, default=0.0))
    worst = 0.0
    witnesses = []
    vol_curves = [
        (f"volatility factor {j}", np.asarray(eval_vol(spec, j, 0.0, xs), float))
        for j in range(1, spec.dims + 1)
    ]
    # the drift curves depend on t only: one set per t, shared by every y
    drift_curves = [(t, _drift_components(spec, hurst, t, xs)) for t in t_samples]
    for y in y_samples:
        y = np.asarray(y, dtype=float)
        for label, g in vol_curves:
            if not np.any(g):
                continue
            res = _nan_as_inf(tangent_residual(family, y, g, xs, weights)[0])
            worst = max(worst, res)
            if res > PASS_TOLERANCE:
                witnesses.append((label, 0.0, y, res))
        for t, components in drift_curves:
            for label, g in components:
                if not np.any(g):
                    continue
                res = _nan_as_inf(tangent_residual(family, y, g, xs, weights)[0])
                worst = max(worst, res)
                if res > PASS_TOLERANCE:
                    witnesses.append((label, t, y, res))
    # keep the most informative witnesses: largest residual per component
    best = {}
    for lab, t, y, r in witnesses:
        if lab not in best or r > best[lab][3]:
            best[lab] = (lab, t, y, r)
    witnesses = sorted(best.values(), key=lambda w: -w[3])
    indeterminate = bool(witnesses) and max(w[3] for w in witnesses) <= REFINE_BAND
    return TangencyVerdict(
        check="drift+vol", passed=not witnesses, max_residual=worst, tolerance=PASS_TOLERANCE,
        witnesses=witnesses, indeterminate=indeterminate,
    )


def nagumo_full_check(
    family: CurveFamily,
    spec: VolatilitySpec | None,
    hurst: HurstParam,
    t_samples,
    y_samples,
    xs=None,
    weights=None,
) -> TangencyVerdict:
    """Combined invariance verdict: shift AND (drift + volatility) tangency.

    For finite-dimensional families the full condition (shift + drift +
    every noise direction in the tangent space) is equivalent to the two
    split conditions, so the verdict is their conjunction.
    """
    shift = check_shift_condition(family, y_samples, xs, weights)
    dv = check_drift_and_vol_condition(family, spec, hurst, t_samples, y_samples, xs, weights)
    failed = [v for v in (shift, dv) if not v.passed]
    return TangencyVerdict(
        check="nagumo",
        passed=shift.passed and dv.passed,
        max_residual=max(shift.max_residual, dv.max_residual),
        tolerance=PASS_TOLERANCE,
        witnesses=shift.witnesses + dv.witnesses,
        indeterminate=bool(failed) and all(v.indeterminate for v in failed),
    )


def controlled_path(
    spec: VolatilitySpec,
    hurst: HurstParam,
    drift: DriftField,
    init,
    controls,
    x_grid,
):
    """Deterministic trajectory of the control system generating the support.

    ``controls`` is a list (one per factor) of :class:`~fhjm.kernels.SampledFunction`
    on the simulation time grid; each is mapped through the fractional
    integral of order H - 1/2 and then drives the transport recursion in
    place of the noise increments:

        y(t_{i+1}, x_k) = y(t_i, x_{k+1}) + [drift(t_i, x_{k+1})
                          + sum_j (I^{H-1/2} u_j)(t_i) sigma_j(t_i, x_{k+1})] dt.

    With zero controls this is the drift-only mean path; trajectories for
    square-summable controls sweep out the closure of the attainable set,
    so a family that loses one of them cannot be invariant.
    """
    from .fbm import FbmPathSet, TimeGrid
    from .hjm import simulate_forward

    if len(controls) != spec.dims:
        raise ValueError("need one control per volatility factor")
    n = controls[0].grid.size - 1
    t_star = float(controls[0].grid[-1])
    tg = TimeGrid(t_star, n)
    order = FracOrder(hurst.h - 0.5)
    # fractional integrals of the controls become synthetic noise increments
    inc = np.empty((1, spec.dims, n))
    for j, u in enumerate(controls):
        u.require_uniform_from_zero()
        iu = frac_integral(u, order).values
        inc[0, j, :] = iu[:-1] * tg.dt  # left-point values times dt
    samples = np.zeros((1, spec.dims, n + 1))
    samples[0, :, 1:] = np.cumsum(inc[0], axis=1)
    fake = FbmPathSet(grid=tg, dims=spec.dims, n_paths=1, samples=samples)
    return simulate_forward(spec, hurst, drift, init, fake, x_grid)
