"""Alpha-cut envelope construction and the fuzzy-PDE verification engine.

Decides whether a fuzzified candidate solution of

    (dV/dx1) / (dV/dx2) = F(x1, x2, parameters)

is a Buckley-Feuring solution.  The candidate is a crisp expression G whose
parameters are triangular fuzzy numbers; for every grid sample (x1, x2, alpha)
the engine forms the envelope

    y1 = min G over the alpha-cut box,   y2 = max G over the box,

applies the quotient-of-partials operator to each end to obtain the Gamma
curves, and then gates five checks in a fixed order: structure (positivity and
one-signed dG/dx2), fuzzy validity of the Y/F envelopes, the three
differentiability conditions on Gamma, equality of Gamma with the F envelope,
and boundary conditions.

Envelope strategy
-----------------
Each alpha slice of the grid is visited once per expression.  For G, that one
visit serves the structure check, the Y envelope and the Gamma curves: G and
dG/dx2 are evaluated at every cut-box corner once, and each parameter's partial
of G is probed at the box center and at every box corner once.  If no
parameter shows strictly opposite signs across those probes, the extremum is
attained at a corner and the envelope is the exact min/max of the corner
values; Gamma then substitutes the extremal corner into the symbolic partials
(ties between corners are re-broken by probing the tied corners at a point
nudged slightly into the domain interior, which keeps the corner selection
consistent with the envelope's one-sided derivative at boundary samples).
Otherwise the sample falls back to dense sampling of the box, is flagged
approximate, and its Gamma values are computed by central finite differences
of the envelope instead of the symbolic partials.  Checks that consume
approximate samples run at a widened tolerance (``FALLBACK_TOL``) because the
fallback route carries sampling plus O(h^2) noise that the fully symbolic route
does not.  A NaN or infinite corner value, envelope or Gamma value at a
feasible sample is reported as structure evidence with its location, never
passed on to the checks.

The same pass builds every envelope the engine uses: the F envelope, the
candidate and target envelopes on a boundary edge (the grid with a single
point on the fixed axis) and the point envelope of :func:`envelope` (a
1x1x1 grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import EvalError, Expression, differentiate, evaluate, free_variables
from .fuzzy import FuzzyVector, alpha_cut

# verdict outcomes
BF_SOLUTION = "BF_SOLUTION"
NOT_FUZZY_VALID = "NOT_FUZZY_VALID"
NOT_DIFFERENTIABLE = "NOT_DIFFERENTIABLE"
EQUALITY_FAILS = "EQUALITY_FAILS"
BOUNDARY_FAILS = "BOUNDARY_FAILS"
STRUCTURE_FAILS = "STRUCTURE_FAILS"

# envelope curve roles
ROLE_Y = "Y"
ROLE_F = "F"
ROLE_GAMMA = "GAMMA"

DEFAULT_EQ_TOL = 1e-8
DEFAULT_MONO_TOL = 1e-8
DEFAULT_DENOM_TOL = 1e-10
FALLBACK_TOL = 1e-4  # noise floor of the dense-sampling + finite-difference route
FALLBACK_BOX_SAMPLES = 33  # per-axis lattice density of the dense fallback
BOX_SAMPLE_BUDGET = 100_000  # total lattice size cap for many-parameter boxes
CORNER_PARAM_LIMIT = 16  # 2^k corner enumeration cap; beyond it everything falls back
EDGE_NUDGE_REL = 1e-4  # tie-break probe offset, relative to the axis range
FD_STEP_REL = 1e-5  # fallback finite-difference step, relative to the axis range

_CHECK_OUTCOME = (
    ("structure", STRUCTURE_FAILS),
    ("fuzzy_validity", NOT_FUZZY_VALID),
    ("differentiability", NOT_DIFFERENTIABLE),
    ("equality", EQUALITY_FAILS),
    ("boundary", BOUNDARY_FAILS),
)


class NearZeroDenominatorError(ArithmeticError):
    """|dY/dx2| fell below the denominator tolerance at some grid sample."""

    def __init__(self, x1: float, x2: float, alpha: float, value: float):
        super().__init__(
            f"near-zero envelope denominator |dY/dx2| = {abs(value):.3e} "
            f"at (x1={x1:g}, x2={x2:g}, alpha={alpha:g})"
        )
        self.location = (x1, x2, alpha)
        self.value = value


class NonFiniteValueError(ArithmeticError):
    """A value some check consumes was NaN or infinite at a feasible grid sample."""

    def __init__(self, what: str, x1: float, x2: float, alpha: float, value: float):
        super().__init__(f"non-finite {what} = {value!r} at (x1={x1:g}, x2={x2:g}, alpha={alpha:g})")
        self.location = (x1, x2, alpha)
        self.value = value


# --- problem geometry --------------------------------------------------------

@dataclass(frozen=True)
class DomainBox:
    """Rectangular (x1, x2) domain with open/closed ends and an optional predicate.

    Lower ends sit inside (0, M]: a closed lower end must be strictly positive,
    an open lower end may be 0 because sampling starts epsilon_edge inside it.
    The constraint expression, when present, restricts checks to samples where
    it evaluates >= 0.
    """

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    x1_min_open: bool = False
    x1_max_open: bool = False
    x2_min_open: bool = False
    x2_max_open: bool = False
    constraint: Expression | None = None

    def __post_init__(self):
        for name, lo, hi, lo_open in (
            ("x1", self.x1_min, self.x1_max, self.x1_min_open),
            ("x2", self.x2_min, self.x2_max, self.x2_min_open),
        ):
            if not lo < hi:
                raise ValueError(f"{name} range is empty: [{lo}, {hi}]")
            if lo < 0.0 or (lo == 0.0 and not lo_open):
                raise ValueError(f"{name} lower bound must be positive (got {lo})")
        if self.constraint is not None:
            extra = free_variables(self.constraint) - {"x1", "x2"}
            if extra:
                raise ValueError(f"constraint may only use x1, x2; found {sorted(extra)}")


@dataclass(frozen=True)
class GridSpec:
    n_x1: int = 41
    n_x2: int = 41
    n_alpha: int = 21
    epsilon_edge: float = 1e-6  # relative offset used to sample open interval ends

    def __post_init__(self):
        for name, n in (("n_x1", self.n_x1), ("n_x2", self.n_x2), ("n_alpha", self.n_alpha)):
            if n < 2:
                raise ValueError(f"{name} must be at least 2, got {n}")
        if not 0.0 < self.epsilon_edge < 0.5:
            raise ValueError(f"epsilon_edge must lie in (0, 0.5), got {self.epsilon_edge}")


@dataclass(frozen=True)
class Tolerances:
    eq_tol: float = DEFAULT_EQ_TOL
    mono_tol: float = DEFAULT_MONO_TOL
    denom_tol: float = DEFAULT_DENOM_TOL

    def __post_init__(self):
        for name, v in (("eq_tol", self.eq_tol), ("mono_tol", self.mono_tol), ("denom_tol", self.denom_tol)):
            if not v > 0.0:
                raise ValueError(f"{name} must be positive, got {v}")


@dataclass(frozen=True)
class BoundaryCondition:
    """Fix one variable at a constant and require the candidate envelope to
    match the target expression's envelope along that edge."""

    fix: str  # "x1" or "x2"
    at: float
    target: Expression
    target_text: str = ""

    def __post_init__(self):
        if self.fix not in ("x1", "x2"):
            raise ValueError(f"fix must be 'x1' or 'x2', got {self.fix!r}")


@dataclass(frozen=True)
class ProblemSpec:
    """Fully explicit problem statement consumed by :func:`verify`."""

    name: str
    g_text: str
    f_text: str
    g: Expression
    f: Expression
    parameters: FuzzyVector
    box: DomainBox
    grid: GridSpec = GridSpec()
    tolerances: Tolerances = Tolerances()
    boundary: tuple[BoundaryCondition, ...] = ()

    def __post_init__(self):
        if len(self.parameters) > CORNER_PARAM_LIMIT:
            raise ValueError(
                f"at most {CORNER_PARAM_LIMIT} fuzzy parameters are supported, "
                f"got {len(self.parameters)}"
            )
        allowed = set(self.parameters.names) | {"x1", "x2"}
        for label, e in (("G", self.g), ("F", self.f)):
            extra = free_variables(e) - allowed
            if extra:
                raise ValueError(f"{label} uses undeclared names {sorted(extra)}")
        for i, cond in enumerate(self.boundary):
            lo, hi = (
                (self.box.x1_min, self.box.x1_max)
                if cond.fix == "x1"
                else (self.box.x2_min, self.box.x2_max)
            )
            if not lo <= cond.at <= hi:
                raise ValueError(
                    f"boundary condition {i}: at={cond.at} outside the closure [{lo}, {hi}] of {cond.fix}"
                )
            remaining = "x2" if cond.fix == "x1" else "x1"
            extra = free_variables(cond.target) - (set(self.parameters.names) | {remaining})
            if extra:
                raise ValueError(
                    f"boundary condition {i}: target may only use {remaining} and parameters; "
                    f"found {sorted(extra)}"
                )


# --- results -----------------------------------------------------------------

@dataclass
class EnvelopeCurve:
    """Sampled lower/upper values over the (x1, x2, alpha) grid for one role.

    ``approximate`` marks samples produced by the dense-sampling fallback;
    ``feasible`` is the (x1, x2) domain-constraint mask.
    """

    role: str
    x1: np.ndarray
    x2: np.ndarray
    alpha: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    approximate: np.ndarray
    feasible: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.lower.shape


@dataclass
class CheckReport:
    name: str
    passed: bool
    worst_violation: float
    location: tuple[float, float, float] | None = None
    note: str = ""


@dataclass
class Verdict:
    """Decision outcome plus the per-check diagnostics that produced it.

    ``curves`` holds the Y, F and GAMMA curves the checks consumed, in that
    order; when one of them could not be computed it is None and
    ``curves_error`` is the error :func:`compute_curves` would raise.
    """

    outcome: str
    checks: list[CheckReport]
    problem_name: str
    grid: GridSpec
    tolerances: Tolerances
    curves: list[EnvelopeCurve] | None = field(default=None, compare=False, repr=False)
    curves_error: Exception | None = field(default=None, compare=False, repr=False)

    def report(self, name: str) -> CheckReport:
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)


# --- grid sampling -----------------------------------------------------------

def axis_points(lo: float, hi: float, lo_open: bool, hi_open: bool, n: int, eps_rel: float) -> np.ndarray:
    """Sample an interval: closed ends exactly, open ends offset by eps_rel*range."""
    off = eps_rel * (hi - lo)
    a = lo + off if lo_open else lo
    b = hi - off if hi_open else hi
    return np.linspace(a, b, n)


def grid_axes(box: DomainBox, grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (x1, x2, alpha) sample coordinates; alpha covers the closed [0, 1]."""
    x1 = axis_points(box.x1_min, box.x1_max, box.x1_min_open, box.x1_max_open, grid.n_x1, grid.epsilon_edge)
    x2 = axis_points(box.x2_min, box.x2_max, box.x2_min_open, box.x2_max_open, grid.n_x2, grid.epsilon_edge)
    alpha = np.linspace(0.0, 1.0, grid.n_alpha)
    return x1, x2, alpha


def feasible_mask(box: DomainBox, X1, X2, shape) -> np.ndarray:
    if box.constraint is None:
        return np.ones(shape, dtype=bool)
    vals = np.broadcast_to(np.asarray(evaluate(box.constraint, {"x1": X1, "x2": X2}), dtype=float), shape)
    return vals >= 0.0


def _cut_arrays(params: FuzzyVector, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    cuts = [alpha_cut(t, alpha) for t in params.numbers]
    return np.array([c.lo for c in cuts]), np.array([c.hi for c in cuts])


# --- envelope core -----------------------------------------------------------

# Values may be NaN or infinite at infeasible samples.  Code that computes over
# whole arrays and masks those samples out afterwards runs under this, so numpy
# does not warn about results nothing reads; feasible samples are checked.
_masked_out_invalid = np.errstate(invalid="ignore")


def _as_mesh(value, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def _box_lattice(los: np.ndarray, his: np.ndarray, m: int) -> np.ndarray:
    """(k, M) lattice over the parameter box, endpoints included, budget-capped."""
    k = len(los)
    m_eff = max(2, min(m, int(BOX_SAMPLE_BUDGET ** (1.0 / k))))
    if m_eff**k > 4 * BOX_SAMPLE_BUDGET:
        raise ValueError(f"parameter box too high-dimensional for dense sampling (k={k})")
    axes = [np.linspace(lo, hi, m_eff) for lo, hi in zip(los, his)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids])


def _eval_box(expr: Expression, names, lattice: np.ndarray, x1f: np.ndarray, x2f: np.ndarray) -> np.ndarray:
    """Evaluate expr at every (sample point) x (lattice point); returns (q, M)."""
    binding = {"x1": x1f[:, None], "x2": x2f[:, None]}
    for j, name in enumerate(names):
        binding[name] = lattice[j][None, :]
    out = np.asarray(evaluate(expr, binding), dtype=float)
    return np.broadcast_to(out, (x1f.size, lattice.shape[1]))


def _corner_binding(base: dict, names, los, his, c: int) -> dict:
    binding = dict(base)
    for j, name in enumerate(names):
        binding[name] = his[j] if (c >> j) & 1 else los[j]
    return binding


def _corner_values(exprs, names, los, his, base: dict, shape) -> list[np.ndarray]:
    """Each expression at every cut-box corner, as a ``(2^k,) + shape`` array.

    Corner index c has bit j set when parameter j sits at its upper cut end.
    """
    out = [np.empty((2 ** len(names),) + tuple(shape)) for _ in exprs]
    for c in range(2 ** len(names)):
        binding = _corner_binding(base, names, los, his, c)
        for values, expr in zip(out, exprs):
            values[c] = _as_mesh(evaluate(expr, binding), shape)
    return out


def _sign_fallback(partials, names, los, his, base: dict, shape) -> np.ndarray:
    """Samples whose extremum may lie inside the box: some parameter's partial
    takes strictly opposite signs across the box center and corners."""
    k = len(names)
    fallback = np.zeros(shape, dtype=bool)
    if k > CORNER_PARAM_LIMIT:
        fallback[...] = True
        return fallback
    center = dict(base)
    for j, name in enumerate(names):
        center[name] = 0.5 * (los[j] + his[j])
    probes = [center] + [_corner_binding(base, names, los, his, c) for c in range(2**k)]
    for j in range(k):
        if his[j] == los[j] or not free_variables(partials[j]) & set(names):
            continue  # degenerate axis, or a partial that takes one value at every probe
        has_pos = np.zeros(shape, dtype=bool)
        has_neg = np.zeros(shape, dtype=bool)
        for probe in probes:
            d = _as_mesh(evaluate(partials[j], probe), shape)
            has_pos |= d > 0.0
            has_neg |= d < 0.0
        fallback |= has_pos & has_neg
    return fallback


def _corner_envelope(values: np.ndarray | None, shape) -> tuple[np.ndarray, np.ndarray]:
    """Min and max over the corner values; NaN placeholders when there are none."""
    if values is None:
        return np.full(shape, np.nan), np.full(shape, np.nan)
    return values.min(axis=0), values.max(axis=0)


def _dense_fill(expr, names, los, his, X1, X2, shape, fallback, lower, upper) -> None:
    """Overwrite the envelope at fallback samples with the dense-lattice extremes."""
    if not fallback.any():
        return
    idx = np.nonzero(fallback)
    lattice = _box_lattice(los, his, FALLBACK_BOX_SAMPLES)
    w = _eval_box(expr, names, lattice, _as_mesh(X1, shape)[idx], _as_mesh(X2, shape)[idx])
    lower[idx] = w.min(axis=1)
    upper[idx] = w.max(axis=1)


def _extremal_corners(expr, names, los, his, values, lower, upper, nudged, fallback):
    """Bitmask indices of the corners attaining the corner envelope, -1 at
    fallback samples (and everywhere when the corners were not enumerated)."""
    if values is None:
        none = np.full(fallback.shape, -1, dtype=np.int64)
        return none, none
    at_lo = values == lower
    at_hi = values == upper
    if (at_lo.sum(axis=0) > 1).any() or (at_hi.sum(axis=0) > 1).any():
        # several corners attain the extremum (e.g. the partial vanishes
        # along an axis); keep the corner that is extremal at a probe
        # point nudged into the domain interior, so the symbolic Gamma
        # matches the envelope's one-sided derivative
        X1n, X2n = nudged
        (probed,) = _corner_values((expr,), names, los, his, {"x1": X1n, "x2": X2n}, fallback.shape)
        corner_lo = np.where(at_lo, probed, np.inf).argmin(axis=0)
        corner_hi = np.where(at_hi, probed, -np.inf).argmax(axis=0)
    else:
        corner_lo = values.argmin(axis=0)
        corner_hi = values.argmax(axis=0)
    corner_lo[fallback] = -1
    corner_hi[fallback] = -1
    return corner_lo, corner_hi


def _nudged_coords(X1, X2, shape, x1_bounds, x2_bounds):
    """Probe coordinates one small step into the interior of the sampled box."""
    lo1, hi1 = x1_bounds
    lo2, hi2 = x2_bounds
    d1 = EDGE_NUDGE_REL * (hi1 - lo1)
    d2 = EDGE_NUDGE_REL * (hi2 - lo2)
    x1 = _as_mesh(X1, shape)
    x2 = _as_mesh(X2, shape)
    X1n = np.where(x1 + d1 <= hi1, x1 + d1, x1 - d1)
    X2n = np.where(x2 + d2 <= hi2, x2 + d2, x2 - d2)
    return X1n, X2n


def _non_finite(arrays: dict, feas: np.ndarray, X1, X2, alpha: float) -> NonFiniteValueError | None:
    """The error for the first feasible sample, in sample order, where one of
    the named ``(...,) + feas.shape`` arrays is NaN or infinite; None if there
    is none.  ``X1`` and ``X2`` broadcast to the sample coordinates."""
    finite = [np.isfinite(a).reshape((-1,) + feas.shape).all(axis=0) for a in arrays.values()]
    bad = feas & ~np.logical_and.reduce(finite)
    if not bad.any():
        return None
    pos = tuple(np.argwhere(bad)[0])
    x1 = float(np.broadcast_to(X1, feas.shape)[pos])
    x2 = float(np.broadcast_to(X2, feas.shape)[pos])
    for what, a in arrays.items():
        column = np.ravel(a[(...,) + pos])
        off = column[~np.isfinite(column)]
        if off.size:
            return NonFiniteValueError(what, x1, x2, alpha, float(off[0]))
    raise AssertionError("a non-finite sample has a non-finite value")


# --- the alpha-slice pass ----------------------------------------------------

@dataclass
class _AlphaPass:
    """What one pass over the alpha slices of an expression produced.

    A curve is None when it could not be computed; its error field then holds
    the first error, in alpha order, that computing that curve alone raises.
    """

    envelope: EnvelopeCurve | None = None
    envelope_error: Exception | None = None
    gamma: EnvelopeCurve | None = None
    gamma_error: Exception | None = None
    structure: CheckReport | None = None


def _result(curve: EnvelopeCurve | None, error: Exception | None) -> EnvelopeCurve:
    if error is not None:
        raise error
    return curve


def _grid_samples(box: DomainBox, grid: GridSpec):
    """The grid's (x1, x2, alpha) sample axes and its feasible (x1, x2) mask."""
    x1p, x2p, alphas = grid_axes(box, grid)
    return x1p, x2p, alphas, feasible_mask(box, x1p[:, None], x2p[None, :], (grid.n_x1, grid.n_x2))


def _alpha_pass(
    expr: Expression,
    params: FuzzyVector,
    x1p: np.ndarray,
    x2p: np.ndarray,
    alphas: np.ndarray,
    feas: np.ndarray,
    role: str = ROLE_Y,
    denom_tol: float = DEFAULT_DENOM_TOL,
    *,
    with_envelope: bool = True,
    with_structure: bool = False,
    with_gamma: bool = False,
    label: str | None = None,
) -> _AlphaPass:
    """Visit every alpha slice of the sample grid once and build what was asked for.

    The samples are every (x1p, x2p, alphas) combination; ``feas`` is the
    ``(x1p.size, x2p.size)`` mask of the samples the checks consume.
    ``with_envelope``: the envelope curve of ``expr`` under ``role``; a
    non-finite value there is named after ``label`` (default "<role> envelope").
    ``with_structure``: the structure check, from ``expr`` and its x2-partial
    at every cut-box corner.  ``with_gamma``: the quotient-of-partials curves
    of the envelope.  Each slice evaluates the corner values, the sign probes,
    the corner selection and the dense fallback once for all of them.
    Evaluation errors of the structure scan are raised at once; the curves'
    errors are collected in the result instead.
    """
    names = params.names
    k = len(names)
    if with_structure and k > CORNER_PARAM_LIMIT:
        raise ValueError(f"structure check enumerates box corners; at most {CORNER_PARAM_LIMIT} parameters")
    X1, X2 = x1p[:, None], x2p[None, :]
    shape = (x1p.size, x2p.size)
    if with_structure and not feas.any():
        raise ValueError("no grid samples satisfy the domain constraint")
    base = {"x1": X1, "x2": X2}
    partials = [differentiate(expr, name) for name in names]
    dg_dx1 = differentiate(expr, "x1") if with_gamma else None
    dg_dx2 = differentiate(expr, "x2") if with_gamma or with_structure else None
    x1_bounds = (float(x1p[0]), float(x1p[-1]))
    x2_bounds = (float(x2p[0]), float(x2p[-1]))
    nudged = _nudged_coords(X1, X2, shape, x1_bounds, x2_bounds) if with_gamma else None

    def corner_gamma(corner: np.ndarray, los, his, fb: np.ndarray, alpha: float) -> np.ndarray:
        binding = {"x1": X1, "x2": X2}
        for j, name in enumerate(names):
            bit = (corner >> j) & 1
            binding[name] = np.where(bit == 1, his[j], los[j])
        num = _as_mesh(evaluate(dg_dx1, binding), shape)
        den = _as_mesh(evaluate(dg_dx2, binding), shape)
        exact = feas & ~fb
        bad = exact & (np.abs(den) < denom_tol)
        if bad.any():
            pos = np.argwhere(bad)[0]
            raise NearZeroDenominatorError(
                float(x1p[pos[0]]), float(x2p[pos[1]]), alpha, float(den[tuple(pos)])
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(num, den)

    @_masked_out_invalid
    def fallback_gamma(fb, los, his, lo_env, up_env, alpha):
        idx = np.nonzero(fb)
        x1f = _as_mesh(X1, shape)[idx]
        x2f = _as_mesh(X2, shape)[idx]
        feas_f = feas[idx]
        lattice = _box_lattice(los, his, FALLBACK_BOX_SAMPLES)

        def env_at(xa, xb):
            w = _eval_box(expr, names, lattice, xa, xb)
            return w.min(axis=1), w.max(axis=1)

        results = []
        for var_idx, (pts, bounds, other) in enumerate(
            (
                (x1f, x1_bounds, x2f),
                (x2f, x2_bounds, x1f),
            )
        ):
            lo_b, hi_b = bounds
            h = FD_STEP_REL * (hi_b - lo_b)
            up_ok = pts + h <= hi_b
            dn_ok = pts - h >= lo_b
            plus = np.minimum(pts + h, hi_b)
            minus = np.maximum(pts - h, lo_b)
            if var_idx == 0:
                y1p, y2p = env_at(plus, other)
                y1m, y2m = env_at(minus, other)
            else:
                y1p, y2p = env_at(other, plus)
                y1m, y2m = env_at(other, minus)
            y1c, y2c = lo_env[idx], up_env[idx]
            both = up_ok & dn_ok
            d_y1 = np.where(both, (y1p - y1m) / (2 * h), np.where(up_ok, (y1p - y1c) / h, (y1c - y1m) / h))
            d_y2 = np.where(both, (y2p - y2m) / (2 * h), np.where(up_ok, (y2p - y2c) / h, (y2c - y2m) / h))
            results.append((d_y1, d_y2))

        (num1, num2), (den1, den2) = results
        for den in (den1, den2):
            bad = feas_f & (np.abs(den) < denom_tol)
            if bad.any():
                pos = int(np.argmax(bad))
                raise NearZeroDenominatorError(float(x1f[pos]), float(x2f[pos]), alpha, float(den[pos]))
        with np.errstate(divide="ignore", invalid="ignore"):
            return idx, num1 / den1, num2 / den2

    def slice_gamma(los, his, alpha, lower, upper, fb, corners):
        g_lo = corner_gamma(corners[0], los, his, fb, alpha)
        g_hi = corner_gamma(corners[1], los, his, fb, alpha)
        if fb.any():
            idx, g1f, g2f = fallback_gamma(fb, los, his, lower, upper, alpha)
            g_lo[idx] = g1f
            g_hi[idx] = g2f
        error = _non_finite({"lower Gamma": g_lo, "upper Gamma": g_hi}, feas, X1, X2, alpha)
        if error is not None:
            raise error
        return g_lo, g_hi

    # alpha-major buffers: every slice lands in one contiguous block
    planes = (alphas.size,) + shape
    env_lo, env_hi = np.empty(planes), np.empty(planes)
    approx = np.zeros(planes, dtype=bool)
    if with_gamma:
        gam_lo, gam_hi = np.empty(planes), np.empty(planes)
    env_err = gam_err = None
    slots, structure_err = [], None

    what = label or f"{role} envelope"
    for ki in range(alphas.size):
        alpha = float(alphas[ki])
        los, his = _cut_arrays(params, alpha)
        values = None
        if with_structure:
            values, d2 = _corner_values((expr, dg_dx2), names, los, his, base, shape)
            finite = np.isfinite(values).all(axis=0) & np.isfinite(d2).all(axis=0)
            if structure_err is None and not finite[feas].all():
                structure_err = _non_finite(
                    {"cut-box corner value of G": values, "cut-box corner value of dG/dx2": d2}, feas, X1, X2, alpha
                )
            slots.append(_structure_slice(values, d2, feas & finite))
        env_live = with_envelope and env_err is None
        gamma_live = with_gamma and gam_err is None
        if not (env_live or gamma_live):
            continue
        try:
            fb = _sign_fallback(partials, names, los, his, base, shape)
            if values is None and k <= CORNER_PARAM_LIMIT:
                (values,) = _corner_values((expr,), names, los, his, base, shape)
        except EvalError as err:
            env_err, gam_err = env_err or err, gam_err or err
            continue
        lower, upper = _corner_envelope(values, shape)
        if gamma_live:
            try:
                corners = _extremal_corners(expr, names, los, his, values, lower, upper, nudged, fb)
            except EvalError as err:
                gam_err = err
        try:
            _dense_fill(expr, names, los, his, X1, X2, shape, fb, lower, upper)
        except EvalError as err:
            env_err, gam_err = env_err or err, gam_err or err
            continue
        env_lo[ki], env_hi[ki], approx[ki] = lower, upper, fb
        if env_live:
            env_err = _non_finite(
                {f"lower {what}": lower, f"upper {what}": upper}, feas, X1, X2, alpha
            )
        if with_gamma and gam_err is None:
            try:
                gam_lo[ki], gam_hi[ki] = slice_gamma(los, his, alpha, lower, upper, fb, corners)
            except (EvalError, NearZeroDenominatorError, NonFiniteValueError) as err:
                gam_err = err

    def curve(curve_role, lo, hi):
        return EnvelopeCurve(curve_role, x1p, x2p, alphas, lo.transpose(1, 2, 0), hi.transpose(1, 2, 0),
                             approx.transpose(1, 2, 0), feas)

    result = _AlphaPass()
    if with_envelope:
        result.envelope_error = env_err
        if env_err is None:
            result.envelope = curve(role, env_lo, env_hi)
    if with_gamma:
        result.gamma_error = gam_err
        if gam_err is None:
            result.gamma = curve(ROLE_GAMMA, gam_lo, gam_hi)
    if with_structure:
        result.structure = _structure_report(slots, x1p, x2p, alphas, denom_tol, structure_err)
    return result


def envelope_curve(
    expr: Expression,
    params: FuzzyVector,
    box: DomainBox,
    grid: GridSpec,
    role: str,
) -> EnvelopeCurve:
    """Sample the envelope of ``expr`` over the whole (x1, x2, alpha) grid.

    Raises :class:`NonFiniteValueError` when the envelope is NaN or infinite at
    a feasible sample.
    """
    result = _alpha_pass(expr, params, *_grid_samples(box, grid), role)
    return _result(result.envelope, result.envelope_error)


def envelope(expr: Expression, params: FuzzyVector, x1: float, x2: float, alpha: float) -> tuple[float, float]:
    """(min, max) of ``expr`` over the parameter cut box at one (x1, x2, alpha).

    Raises :class:`NonFiniteValueError` when either end is NaN or infinite.
    """
    point = _alpha_pass(expr, params, np.array([x1], dtype=float), np.array([x2], dtype=float),
                        np.array([alpha], dtype=float), np.ones((1, 1), dtype=bool), label="envelope")
    curve = _result(point.envelope, point.envelope_error)
    return float(curve.lower[0, 0, 0]), float(curve.upper[0, 0, 0])


# --- Gamma curves ------------------------------------------------------------

def gamma_curves(
    g: Expression,
    params: FuzzyVector,
    box: DomainBox,
    grid: GridSpec,
    denom_tol: float = DEFAULT_DENOM_TOL,
) -> EnvelopeCurve:
    """Apply the quotient-of-partials operator to both envelope ends of ``g``.

    Corner-strategy samples substitute the envelope-selecting corner parameters
    into the symbolic partials of ``g``; fallback samples use central finite
    differences of the densely sampled envelope (one-sided at domain edges).

    Raises :class:`NearZeroDenominatorError` when |dY/dx2| < denom_tol at a
    feasible sample; the caller reports that as structure evidence, since it
    means the candidate is not strictly monotone in x2 along that envelope end.
    Raises :class:`NonFiniteValueError` when Gamma is NaN or infinite at a
    feasible sample.
    """
    result = _alpha_pass(g, params, *_grid_samples(box, grid), denom_tol=denom_tol,
                         with_envelope=False, with_gamma=True)
    return _result(result.gamma, result.gamma_error)


# --- checks ------------------------------------------------------------------

def _masked_worst(values: np.ndarray, mask: np.ndarray, axes: tuple[np.ndarray, ...]):
    """Max of values over mask plus its location, one coordinate per axis
    (the first maximum in C order); None if the mask is empty."""
    if not mask.any():
        return None, None
    flat = np.where(mask, values, -np.inf)
    pos = np.unravel_index(int(flat.argmax()), flat.shape)
    loc = tuple(float(ax[i]) for ax, i in zip(axes, pos))
    return float(flat[pos]), loc


def _widen(tol: float, curve_has_fallback: bool) -> float:
    return max(tol, FALLBACK_TOL) if curve_has_fallback else tol


def _fallback_note(widened: bool, tol_eff: float) -> str:
    if not widened:
        return ""
    return f"dense-sampling fallback in effect; tolerance widened to {tol_eff:g}"


def _structure_slice(values: np.ndarray, d2: np.ndarray, mask: np.ndarray):
    """Min of G, min and max of dG/dx2 over one slice's corner values at the
    masked samples, each with its (i1, i2) position (first in corner, then
    sample order)."""

    def scan(a: np.ndarray, find_min: bool):
        flat = np.where(mask, a, np.inf if find_min else -np.inf)
        pos = np.unravel_index(int(flat.argmin() if find_min else flat.argmax()), flat.shape)
        return float(flat[pos]), pos[1:]

    return scan(values, True), scan(d2, True), scan(d2, False)


def _structure_report(slots, x1p, x2p, alphas, denom_tol: float, error: Exception | None) -> CheckReport:
    """Fold the per-slice extrema into the structure report; a non-finite
    corner value (``error``) fails it with its location."""
    g_min, g_loc = np.inf, None
    d_min, d_min_loc = np.inf, None
    d_max, d_max_loc = -np.inf, None
    for alpha, ((gm, gp), (dm, dmp), (dx, dxp)) in zip(alphas, slots):
        alpha = float(alpha)
        if gm < g_min:
            g_min, g_loc = gm, (float(x1p[gp[0]]), float(x2p[gp[1]]), alpha)
        if dm < d_min:
            d_min, d_min_loc = dm, (float(x1p[dmp[0]]), float(x2p[dmp[1]]), alpha)
        if dx > d_max:
            d_max, d_max_loc = dx, (float(x1p[dxp[0]]), float(x2p[dxp[1]]), alpha)

    pos_violation = -g_min  # > 0 (or == 0) iff G fails strict positivity
    pos_ok = g_min > 0.0
    # one global sign: the better hypothesis decides the slack
    if d_min >= -d_max:  # positive sign fits better
        sign_violation = denom_tol - d_min
        sign_loc = d_min_loc
    else:
        sign_violation = denom_tol + d_max
        sign_loc = d_max_loc
    sign_ok = sign_violation <= 0.0

    if not pos_ok and (pos_violation >= sign_violation or sign_ok):
        worst, loc, note = pos_violation, g_loc, "G is not strictly positive on the grid"
    elif not sign_ok:
        worst, loc, note = sign_violation, sign_loc, "dG/dx2 is not one-signed and bounded away from zero"
    else:
        worst = max(pos_violation, sign_violation)
        loc = g_loc if pos_violation >= sign_violation else sign_loc
        note = ""
    report = CheckReport("structure", pos_ok and sign_ok, worst, loc, note)
    return report if error is None else _structure_evidence(report, error)


def check_structure(
    g: Expression,
    params: FuzzyVector,
    box: DomainBox,
    grid: GridSpec,
    denom_tol: float = DEFAULT_DENOM_TOL,
) -> CheckReport:
    """G must be strictly positive, and dG/dx2 must keep one global sign with
    |dG/dx2| >= denom_tol, at every grid sample and every cut-box corner.
    A NaN or infinite corner value fails the check at its location."""
    return _alpha_pass(
        g, params, *_grid_samples(box, grid), denom_tol=denom_tol, with_envelope=False, with_structure=True
    ).structure


@_masked_out_invalid
def check_fuzzy_validity(curves: list[EnvelopeCurve]) -> CheckReport:
    """Every envelope must satisfy lower <= upper at every feasible sample."""
    worst, loc, role = -np.inf, None, None
    for curve in curves:
        mask = curve.feasible[:, :, None] & np.ones(curve.shape, dtype=bool)
        v, l = _masked_worst(curve.lower - curve.upper, mask, (curve.x1, curve.x2, curve.alpha))
        if v is not None and v > worst:
            worst, loc, role = v, l, curve.role
    if loc is None:
        return CheckReport("fuzzy_validity", True, 0.0, None, "no feasible samples")
    passed = worst <= 0.0
    note = "" if passed else f"lower exceeds upper in the {role} envelope"
    return CheckReport("fuzzy_validity", passed, worst, loc, note)


@_masked_out_invalid
def check_differentiability(gamma: EnvelopeCurve, tol: float = DEFAULT_MONO_TOL) -> CheckReport:
    """The three fuzzy-number conditions on the Gamma interval:

    1. Gamma_1 non-decreasing in alpha,
    2. Gamma_2 non-increasing in alpha,
    3. Gamma_1 <= Gamma_2 at alpha = 1,

    each within ``tol`` slack at every feasible (x1, x2).
    """
    feas3 = gamma.feasible[:, :, None] & np.ones(gamma.shape, dtype=bool)
    axes = (gamma.x1, gamma.x2, gamma.alpha)
    tol_eff = _widen(tol, bool((gamma.approximate & feas3).any()))

    # condition 1: drops of Gamma_1 across successive alpha samples
    d1 = -(gamma.lower[:, :, 1:] - gamma.lower[:, :, :-1])
    v1, l1 = _masked_worst(d1, feas3[:, :, 1:], (gamma.x1, gamma.x2, gamma.alpha[1:]))
    # condition 2: rises of Gamma_2
    d2 = gamma.upper[:, :, 1:] - gamma.upper[:, :, :-1]
    v2, l2 = _masked_worst(d2, feas3[:, :, 1:], (gamma.x1, gamma.x2, gamma.alpha[1:]))
    # condition 3 at the core cut
    c3 = gamma.lower[:, :, -1] - gamma.upper[:, :, -1]
    v3, l3 = _masked_worst(c3[:, :, None], feas3[:, :, -1:], (gamma.x1, gamma.x2, gamma.alpha[-1:]))

    candidates = [(v, l, i + 1) for i, (v, l) in enumerate(((v1, l1), (v2, l2), (v3, l3))) if v is not None]
    if not candidates:
        return CheckReport("differentiability", True, 0.0, None, "no feasible samples")
    worst, loc, cond = max(candidates, key=lambda t: t[0])
    passed = worst <= tol_eff
    note = _fallback_note(tol_eff != tol, tol_eff)
    if not passed:
        prefix = f"condition {cond} violated"
        note = f"{prefix}; {note}" if note else prefix
    return CheckReport("differentiability", passed, worst, loc, note)


@_masked_out_invalid
def check_equality(gamma: EnvelopeCurve, f_curve: EnvelopeCurve, tol: float = DEFAULT_EQ_TOL) -> CheckReport:
    """Gamma must equal the F envelope end-to-end: |Gamma_i - f_i| <= tol*(1+|f_i|)."""
    feas3 = gamma.feasible[:, :, None] & np.ones(gamma.shape, dtype=bool)
    resid_lo = np.abs(gamma.lower - f_curve.lower) / (1.0 + np.abs(f_curve.lower))
    resid_hi = np.abs(gamma.upper - f_curve.upper) / (1.0 + np.abs(f_curve.upper))
    resid = np.maximum(resid_lo, resid_hi)
    worst, loc = _masked_worst(resid, feas3, (gamma.x1, gamma.x2, gamma.alpha))
    if worst is None:
        return CheckReport("equality", True, 0.0, None, "no feasible samples")
    has_fb = bool(((gamma.approximate | f_curve.approximate) & feas3).any())
    tol_eff = _widen(tol, has_fb)
    passed = worst <= tol_eff
    return CheckReport("equality", passed, worst, loc, _fallback_note(tol_eff != tol, tol_eff))


@_masked_out_invalid
def check_boundary(
    candidate: Expression,
    params: FuzzyVector,
    conditions: tuple[BoundaryCondition, ...],
    box: DomainBox,
    grid: GridSpec,
    tol: float = DEFAULT_EQ_TOL,
) -> CheckReport:
    """Candidate envelope must match each target envelope endpoint-wise on its edge.

    Raises :class:`NonFiniteValueError` when either envelope is NaN or infinite
    at a feasible edge sample.
    """
    if not conditions:
        return CheckReport("boundary", True, 0.0, None, "no conditions")

    x1p, x2p, alphas = grid_axes(box, grid)
    worst, loc = -np.inf, None
    any_fb = False

    def edge_envelope(expr, whose, e1, e2, feas) -> EnvelopeCurve:
        edge = _alpha_pass(expr, params, e1, e2, alphas, feas, label=f"{whose} envelope on the boundary")
        return _result(edge.envelope, edge.envelope_error)

    for cond in conditions:
        # the edge is the grid with one point on the fixed axis
        at = np.array([cond.at], dtype=float)
        e1, e2 = (x1p, at) if cond.fix == "x2" else (at, x2p)
        feas = feasible_mask(box, e1[:, None], e2[None, :], (e1.size, e2.size))
        if not feas.any():
            continue
        c = edge_envelope(candidate, "candidate", e1, e2, feas)
        t = edge_envelope(cond.target, "target", e1, e2, feas)
        any_fb = any_fb or bool(((c.approximate | t.approximate) & feas[:, :, None]).any())
        # alpha-major views, so ties go to the lowest alpha, then the lowest edge position
        c_lo, c_hi, t_lo, t_hi = (v.transpose(2, 0, 1) for v in (c.lower, c.upper, t.lower, t.upper))
        resid = np.maximum(
            np.abs(c_lo - t_lo) / (1.0 + np.abs(t_lo)),
            np.abs(c_hi - t_hi) / (1.0 + np.abs(t_hi)),
        )
        v, (at_alpha, at_x1, at_x2) = _masked_worst(resid, np.broadcast_to(feas, resid.shape), (alphas, e1, e2))
        if v > worst:
            worst, loc = v, (at_x1, at_x2, at_alpha)

    if loc is None:
        return CheckReport("boundary", True, 0.0, None, "no feasible boundary samples")
    tol_eff = _widen(tol, any_fb)
    passed = worst <= tol_eff
    return CheckReport("boundary", passed, worst, loc, _fallback_note(tol_eff != tol, tol_eff))


# --- verdict -----------------------------------------------------------------

def _structure_evidence(previous: CheckReport, err: Exception) -> CheckReport:
    loc = getattr(err, "location", None) or previous.location
    worst = previous.worst_violation if not previous.passed else 0.0
    note = f"{previous.note}; {err}" if previous.note else str(err)
    return CheckReport("structure", False, worst, loc, note)


def verify(problem: ProblemSpec) -> Verdict:
    """Run the full gate sequence on a problem and assemble the verdict.

    Gate order: structure, fuzzy validity of the Y/F envelopes,
    differentiability, equality with F, boundary conditions.  The outcome is
    the first failing gate (or BF_SOLUTION), but every report that could be
    computed is carried for diagnostics.  Near-zero envelope denominators,
    non-finite values and expression domain errors surface as structure
    evidence.  Structure, Y and Gamma come from one pass over the alpha slices
    of G; F has its own.
    """
    tols = problem.tolerances
    g_pass = _alpha_pass(
        problem.g, problem.parameters, *_grid_samples(problem.box, problem.grid), ROLE_Y, tols.denom_tol,
        with_structure=True, with_gamma=True,
    )
    reports: dict[str, CheckReport] = {"structure": g_pass.structure}
    curves_error = None

    y_curve = f_curve = gamma = None
    try:
        y_curve = _result(g_pass.envelope, g_pass.envelope_error)
        f_curve = envelope_curve(problem.f, problem.parameters, problem.box, problem.grid, ROLE_F)
        reports["fuzzy_validity"] = check_fuzzy_validity([y_curve, f_curve])
    except (EvalError, NonFiniteValueError) as err:
        reports["structure"] = _structure_evidence(reports["structure"], err)
        curves_error = err

    try:
        gamma = _result(g_pass.gamma, g_pass.gamma_error)
        reports["differentiability"] = check_differentiability(gamma, tols.mono_tol)
        if f_curve is not None:
            reports["equality"] = check_equality(gamma, f_curve, tols.eq_tol)
    except (NearZeroDenominatorError, EvalError, NonFiniteValueError) as err:
        reports["structure"] = _structure_evidence(reports["structure"], err)
        curves_error = curves_error or err

    try:
        reports["boundary"] = check_boundary(
            problem.g, problem.parameters, problem.boundary, problem.box, problem.grid, tols.eq_tol,
        )
    except (EvalError, NonFiniteValueError) as err:
        reports["structure"] = _structure_evidence(reports["structure"], err)

    outcome = BF_SOLUTION
    for name, failure in _CHECK_OUTCOME:
        if name in reports and not reports[name].passed:
            outcome = failure
            break

    checks = [reports[name] for name, _ in _CHECK_OUTCOME if name in reports]
    curves = None if curves_error is not None else [y_curve, f_curve, gamma]
    return Verdict(outcome, checks, problem.name, problem.grid, problem.tolerances, curves, curves_error)


def compute_curves(problem: ProblemSpec) -> list[EnvelopeCurve]:
    """The Y, F and GAMMA curves for a problem, in that order (plot/CSV surface)."""
    g_pass = _alpha_pass(
        problem.g, problem.parameters, *_grid_samples(problem.box, problem.grid), ROLE_Y,
        problem.tolerances.denom_tol, with_gamma=True,
    )
    return [
        _result(g_pass.envelope, g_pass.envelope_error),
        envelope_curve(problem.f, problem.parameters, problem.box, problem.grid, ROLE_F),
        _result(g_pass.gamma, g_pass.gamma_error),
    ]
