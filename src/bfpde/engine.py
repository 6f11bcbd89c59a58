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
Each alpha slice of the grid is visited once per expression; for G that one
candidate pass serves the structure check, the Y envelope and Gamma.  A
parameter whose cut has no width (lo == hi: a crisp one, or any at alpha = 1)
is a constant of the slice, so each slice builds one table of the 2^m corners
of the cut box over its m live parameters, a leading array axis that every
stage reads.  G and dG/dx2 are evaluated once over all corners, for the
structure check and the envelope.  Three stages follow.

Envelope: before the first slice, each partial of G is enclosed by interval
arithmetic over the alpha = 0 cut box, which holds every cut, so a sign it
certifies at a sample holds there in every slice.  A live parameter's partial
is then probed over the box center and the corners, unless it is certified at
every sample or free of the parameters.  If no parameter shows strictly
opposite signs, the extremum is attained at a corner and the envelope is the
exact min/max of the corner values.  Otherwise the sample falls back to the
extremes of G over a dense lattice and is flagged approximate.  The lattice
spans only the live axes left uncertified: a parameter certified one-signed
at every fallback sample of a slice is pinned at the cut end attaining each
sample's min, and its max.

Point: each envelope end carries the parameter point that attains it: at a
fallback sample, the first lattice point attaining it; on the corner route,
the first extremal corner or, where distinct corners tie, the tied corner
extremal at a point nudged slightly into the domain interior (consistent with
the envelope's one-sided derivative at boundary samples).  One subset
evaluator serves the lattice sweep and the tie-break.

Gamma: by Danskin's theorem, d(min_p G)/dx = dG/dx at the minimiser (and
likewise for the max), so Gamma substitutes those points into the symbolic
partials, and its values are symbolic on both routes.

Checks that consume approximate samples run at a widened tolerance
(``FALLBACK_TOL``), since a lattice optimum is only as close to the true one
as the lattice spacing.  A NaN or infinite corner value, envelope or Gamma
value at a feasible sample, and a domain error of G or dG/dx2 at a cut-box
corner, are structure evidence, never passed on to the checks.  Every check,
structure included, reports its first worst violation, a NaN beating any
number (:func:`_first_worst`).  The four curve checks end in one gate that
turns their parts' worst residuals into the report, so a NaN or overflowing
residual (finite values too far apart to subtract) is structure evidence with
its location in each.

The same pass, in envelope-only mode, builds every other envelope the engine
uses: the F envelope, the candidate and target envelopes on a boundary edge
(the grid with a single point on the fixed axis) and the point envelope of
:func:`envelope` (a 1x1x1 grid); it builds no parameter points.  Both modes
enumerate up to 2^k cut-box corners, so every envelope takes at most
``CORNER_PARAM_LIMIT`` parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import EvalError, Expression, differentiate, evaluate, free_variables, interval_eval
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
FALLBACK_TOL = 1e-4  # slack for the lattice spacing of the dense-sampling route
FALLBACK_BOX_SAMPLES = 33  # per-axis lattice density of the dense fallback
BOX_SAMPLE_BUDGET = 100_000  # total lattice size cap for many-parameter boxes
CORNER_PARAM_LIMIT = 16  # parameter cap: every envelope enumerates the 2^k cut-box corners
EDGE_NUDGE_REL = 1e-4  # tie-break probe offset, relative to the axis range

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
            if not math.isfinite(lo) or not math.isfinite(hi):
                raise ValueError(f"{name} range must be finite: [{lo}, {hi}]")
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
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")


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
    ``curves_error`` is the first error met computing them, which
    :func:`compute_curves` raises.
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
# does not warn about results nothing reads; feasible samples are checked, and
# a residual that overflows there is caught by the check's gate.
_masked_out_invalid = np.errstate(invalid="ignore", over="ignore")


def _as_mesh(value, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def _box_lattice(los: np.ndarray, his: np.ndarray, m: int, signs: np.ndarray):
    """The dense-fallback table at q samples: one ``(M,)`` or ``(q, M)`` row per
    parameter, and the column masks the min and the max may take (None: all).
    It spans the live axes uncertified at some sample (``signs``, ``(k, q)``
    certified signs, 0 where none), endpoints included, with the density of a
    budget-capped lattice over all k axes.  A parameter certified at every
    sample is pinned per sample at its cut end where expr is least (min half)
    and greatest (max half), the lattice endpoint of the full lattice's optimum."""
    pinned = (los < his) & (signs != 0).all(axis=1)
    m_eff = max(2, min(m, int(BOX_SAMPLE_BUDGET ** (1.0 / len(los)))))
    axes = [np.linspace(lo, hi, m_eff if lo < hi and not pin else 1) for lo, hi, pin in zip(los, his, pinned)]
    lattice = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    if not pinned.any():
        return lattice, None
    ends = np.where((signs > 0)[..., None], np.stack([los, his], 1)[:, None], np.stack([his, los], 1)[:, None])
    half = np.arange(2 * lattice.shape[1]) < lattice.shape[1]
    return [np.repeat(e, r.size, 1) if p else np.tile(r, 2) for e, p, r in zip(ends, pinned, lattice)], (half, ~half)


def _corner_points(los: np.ndarray, his: np.ndarray) -> np.ndarray:
    """The ``(k, 2^m)`` corners of the cut box over its m live parameters
    (lo < hi): corner c sets the i-th live parameter to its upper cut end when
    bit i of c is set; a degenerate row holds its one value."""
    live = np.flatnonzero(los < his)
    bits = (np.arange(2 ** live.size) >> np.arange(live.size)[:, None]) & 1
    corners = np.repeat(los[:, None], bits.shape[1], axis=1)
    corners[live] = np.where(bits == 1, his[live, None], los[live, None])
    return corners


def _extremes_at(expr: Expression, names, points, x1: np.ndarray, x2: np.ndarray, allowed=None):
    """The min and the max of expr over M parameter points (one ``(M,)`` or
    ``(q, M)`` row per parameter) at each of the ``(q,)`` samples (x1, x2), and
    the ``(k, q)`` points attaining them, the first in column order; ``allowed``,
    a pair of masks, restricts the min and the max to the points it marks."""
    binding = dict({"x1": x1[:, None], "x2": x2[:, None]}, **dict(zip(names, points)))
    w = np.broadcast_to(np.asarray(evaluate(expr, binding), dtype=float), (x1.size, np.shape(points[0])[-1]))
    lo_w, hi_w = (w, w) if allowed is None else (np.where(allowed[0], w, np.inf), np.where(allowed[1], w, -np.inf))
    rows, at = np.arange(x1.size), (lo_w.argmin(axis=1), hi_w.argmax(axis=1))
    optima = [np.stack([np.broadcast_to(r, w.shape)[rows, a] for r in points]) for a in at]
    return w[rows, at[0]], w[rows, at[1]], optima


def _corner_values(exprs, names, points: np.ndarray, base: dict, shape) -> list[np.ndarray]:
    """Each expression at every column of the ``(k, n)`` parameter ``points``
    (the corners, or the sign probes), as read-only ``(n,) + shape`` arrays from
    one evaluation over a leading probe axis.  A degenerate cut (lo == hi, a
    row of one value) binds as a scalar, and an evaluation error replays the
    probes one at a time, so values and errors are those of a per-probe loop."""
    degenerate = points.min(axis=1) == points.max(axis=1)

    def bind(cols) -> dict:
        return dict(base, **{name: points[j, 0] if degenerate[j] else points[j, cols][:, None, None]
                             for j, name in enumerate(names)})

    try:
        binding = bind(slice(None))
        return [_as_mesh(evaluate(expr, binding), (points.shape[1],) + tuple(shape)) for expr in exprs]
    except EvalError:
        for c in range(points.shape[1]):
            for expr in exprs:
                evaluate(expr, bind(slice(c, c + 1)))
        raise


def _sign_fallback(partials, names, corners: np.ndarray, base: dict, shape) -> np.ndarray:
    """Samples whose extremum may lie inside the box: some live parameter's
    partial (in ``partials``, None where its sign needs no probe) takes strictly
    opposite signs across the box center and the :func:`_corner_points`
    ``corners``, whose first and last columns are the cut ends."""
    los, his = corners[:, 0], corners[:, -1]
    live = los < his
    probes = np.hstack([corners[:, :1], corners])  # the box center, then the corners
    probes[live, 0] = 0.5 * los[live] + 0.5 * his[live]
    fallback = np.zeros(shape, dtype=bool)
    for partial in (d for d, on in zip(partials, live) if on and d is not None):
        (d,) = _corner_values((partial,), names, probes, base, shape)
        fallback |= (d > 0.0).any(axis=0) & (d < 0.0).any(axis=0)
    return fallback


def _certified_signs(partials, params: FuzzyVector, X1, X2, shape) -> np.ndarray:
    """Each partial's sign at every sample, certified by interval arithmetic on the alpha = 0 cut box: +1, -1 or 0."""
    los, his = _cut_arrays(params, 0.0)
    box = dict({"x1": (X1, X1), "x2": (X2, X2)}, **{name: (lo, hi) for name, lo, hi in zip(params.names, los, his)})
    ends = [interval_eval(d, box) if lo < hi and free_variables(d) <= box.keys() else (0.0, 0.0)
            for d, lo, hi in zip(partials, los, his)]  # 0 for an unbound name: it raises where evaluated
    return np.stack([np.broadcast_to(np.int8(lo > 0.0) - np.int8(hi < 0.0), shape) for lo, hi in ends])


def _first_extremal(values: np.ndarray, end: np.ndarray):
    """Per sample, the first of the ``(C,) + shape`` corner values equal to
    ``end`` (argmin's or argmax's pick, found without a strided reduction) and
    whether more than one is; where none is (a NaN end, or a fallback sample's
    lattice end), the first NaN corner, else corner 0."""
    hit = values == end
    first, open_ = np.zeros(end.shape, dtype=np.intp), np.ones(end.shape, dtype=bool)
    for h in hit:
        open_ &= ~h
        first += open_
    if open_.any():
        first[open_] = np.isnan(values[:, open_]).argmax(axis=0)
    return first, hit.sum(axis=0) > 1


def _nudged(x: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Coordinates x moved one small step into the interior of the sampled axis."""
    lo, hi = float(axis[0]), float(axis[-1])
    d = EDGE_NUDGE_REL * (hi - lo)
    return np.where(x + d <= hi, x + d, x - d)


def _non_finite(arrays: dict, feas: np.ndarray, x1p, x2p, alpha: float) -> NonFiniteValueError | None:
    """The error for the first feasible sample, in sample order, where one of
    the named ``(...,) + feas.shape`` arrays is NaN or infinite; None if there
    is none.  ``x1p`` and ``x2p`` are the sample axes."""
    finite = [np.isfinite(a).reshape((-1,) + feas.shape).all(axis=0) for a in arrays.values()]
    bad = feas & ~np.logical_and.reduce(finite)
    if not bad.any():
        return None
    pos = tuple(np.argwhere(bad)[0])
    for what, a in arrays.items():
        column = np.ravel(a[(...,) + pos])
        off = column[~np.isfinite(column)]
        if off.size:
            return NonFiniteValueError(what, float(x1p[pos[0]]), float(x2p[pos[1]]), alpha, float(off[0]))
    raise AssertionError("a non-finite sample has a non-finite value")


# --- the alpha-slice pass ----------------------------------------------------

@dataclass
class _AlphaPass:
    """What one pass over the alpha slices of an expression produced.

    ``errors`` maps each part ("structure", "envelope", "gamma") that failed
    to its first error in alpha order; that part's curve is then None, while
    the structure report already carries its error.
    """

    envelope: EnvelopeCurve | None = None
    gamma: EnvelopeCurve | None = None
    structure: CheckReport | None = None
    errors: dict[str, Exception] = field(default_factory=dict)

    def fail(self, parts, error: Exception | None) -> None:
        """Keep ``error`` (unless None) for each of ``parts`` that has none yet."""
        for part in parts if error is not None else ():
            self.errors.setdefault(part, error)

    def result(self, part: str):
        """The part's curve; raises the part's error if it failed."""
        if part in self.errors:
            raise self.errors[part]
        return getattr(self, part)


def _grid_samples(box: DomainBox, grid: GridSpec):
    """The grid's (x1, x2, alpha) sample axes and its feasible (x1, x2) mask."""
    x1p, x2p, alphas = grid_axes(box, grid)
    return x1p, x2p, alphas, feasible_mask(box, x1p[:, None], x2p[None, :], (grid.n_x1, grid.n_x2))


def _envelope_stage(expr, names, probed, signs, corners, values, base: dict, x1p, x2p):
    """One slice's envelope of ``expr``: the min and max of its corner ``values``
    (evaluated here when None), or, at the samples where a sign probe of the
    ``probed`` partials falls back, of the dense lattice that the partials'
    certified ``signs`` pin.  Returns both ends, the fallback mask and the
    lattice points attaining the ends there (None if no sample falls back)."""
    shape = (x1p.size, x2p.size)
    fb = _sign_fallback(probed, names, corners, base, shape)
    if values is None:
        (values,) = _corner_values((expr,), names, corners, base, shape)
    lower, upper, optima = values.min(axis=0), values.max(axis=0), None
    if fb.any():
        i1, i2 = np.nonzero(fb)
        table, allowed = _box_lattice(corners[:, 0], corners[:, -1], FALLBACK_BOX_SAMPLES, signs[:, i1, i2])
        lower[i1, i2], upper[i1, i2], optima = _extremes_at(expr, names, table, x1p[i1], x2p[i2], allowed)
    return lower, upper, fb, optima


def _point_stage(expr, names, corners, values, lower, upper, fb, optima, x1p, x2p) -> list[np.ndarray]:
    """The parameter point attaining each end of one slice's envelope, a
    ``(k,) + shape`` array each: the lattice ``optima`` at the fallback
    samples ``fb``, else the first extremal corner or, where distinct corners
    tie (e.g. the partial vanishes along an axis), the tied corner extremal
    one step into the domain interior, so that the symbolic Gamma matches the
    envelope's one-sided derivative."""
    (first_lo, tie_lo), (first_hi, tie_hi) = _first_extremal(values, lower), _first_extremal(values, upper)
    points = [np.take(corners, first_lo, axis=1), np.take(corners, first_hi, axis=1)]
    if optima is not None:
        points[0][:, fb], points[1][:, fb] = optima
    t1, t2 = np.nonzero(~fb & (tie_lo | tie_hi))
    if t1.size:
        tied = values[:, t1, t2].T
        nudged = _nudged(x1p[t1], x1p), _nudged(x2p[t2], x2p)
        *_, optima = _extremes_at(expr, names, corners, *nudged,
                                  (tied == lower[t1, t2, None], tied == upper[t1, t2, None]))
        points[0][:, t1, t2], points[1][:, t1, t2] = optima
    return points


def _gamma_stage(x_partials, names, points, base: dict, feas, x1p, x2p, alpha: float, denom_tol: float):
    """Gamma's lower and upper end on one slice.  By Danskin's theorem each
    envelope end moves with G at the parameter point attaining it, so its
    x-partials (``x_partials``, dG/dx1 and dG/dx2) are G's there.  Raises
    :class:`NearZeroDenominatorError` where |dG/dx2| < denom_tol, and
    :class:`NonFiniteValueError` where Gamma is NaN or infinite, each at the
    first such feasible sample."""
    ends = []
    for point in points:
        binding = dict(base, **{name: point[j] for j, name in enumerate(names)})
        num, den = (_as_mesh(evaluate(d, binding), feas.shape) for d in x_partials)
        bad = feas & (np.abs(den) < denom_tol)
        if bad.any():
            pos = np.argwhere(bad)[0]
            raise NearZeroDenominatorError(float(x1p[pos[0]]), float(x2p[pos[1]]), alpha, float(den[tuple(pos)]))
        with np.errstate(divide="ignore", invalid="ignore"):
            ends.append(np.divide(num, den))
    error = _non_finite({"lower Gamma": ends[0], "upper Gamma": ends[1]}, feas, x1p, x2p, alpha)
    if error is not None:
        raise error
    return ends


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
    candidate: bool = False,
    label: str | None = None,
) -> _AlphaPass:
    """Visit every alpha slice of the sample grid once.

    The samples are every (x1p, x2p, alphas) combination; ``feas`` is the
    ``(x1p.size, x2p.size)`` mask of the samples the checks consume.  The pass
    builds the envelope curve of ``expr`` under ``role``; a non-finite value
    there is named after ``label`` (default "<role> envelope").  In candidate
    mode it also builds the structure check, from ``expr`` and its x2-partial
    at every corner, and runs the point and the Gamma stage after the
    envelope stage.  Errors are kept per part in ``errors``, not raised: a
    domain error at a corner fails every part, one in the envelope stage both
    curves, one in the point or the Gamma stage Gamma only, and a non-finite
    envelope the envelope only.
    """
    names = params.names
    if len(names) > CORNER_PARAM_LIMIT:
        raise ValueError(f"every envelope enumerates the 2^k cut-box corners; at most {CORNER_PARAM_LIMIT} parameters")
    if not feas.any():
        raise ValueError("no grid samples satisfy the domain constraint")
    shape, base = (x1p.size, x2p.size), {"x1": x1p[:, None], "x2": x2p[None, :]}
    partials = [differentiate(expr, name) for name in names]
    # a sign certified on the alpha = 0 box, which holds every cut, needs no probe in any slice
    signs = _certified_signs(partials, params, base["x1"], base["x2"], shape)
    probed = [None if s.all() or not free_variables(d) & set(names) else d for d, s in zip(partials, signs)]
    parts = ("envelope", "gamma") if candidate else ("envelope",)
    # alpha-major buffers: every slice lands in one contiguous block
    planes = (alphas.size,) + shape
    env, approx = (np.empty(planes), np.empty(planes)), np.zeros(planes, dtype=bool)
    if candidate:
        x_partials = differentiate(expr, "x1"), differentiate(expr, "x2")
        gam = np.empty(planes), np.empty(planes)
    result, slots = _AlphaPass(), []
    what = label or f"{role} envelope"
    for ki, alpha in enumerate(alphas.tolist()):
        corners, values = _corner_points(*_cut_arrays(params, alpha)), None
        if candidate:
            try:
                values, d2 = _corner_values((expr, x_partials[1]), names, corners, base, shape)
            except EvalError as err:
                result.fail(("structure",) + parts, err)
            else:
                finite = np.isfinite(values).all(axis=0) & np.isfinite(d2).all(axis=0)
                if not finite[feas].all():
                    corner_values = {"cut-box corner value of G": values, "cut-box corner value of dG/dx2": d2}
                    result.fail(("structure",), _non_finite(corner_values, feas, x1p, x2p, alpha))
                slots.append((alpha, _structure_slice(values, d2, feas & finite)))
        if all(part in result.errors for part in parts):
            continue  # every curve this slice feeds has already failed
        try:
            lower, upper, fb, optima = _envelope_stage(expr, names, probed, signs, corners, values, base, x1p, x2p)
        except EvalError as err:
            result.fail(parts, err)
            continue
        env[0][ki], env[1][ki], approx[ki] = lower, upper, fb
        result.fail(("envelope",), _non_finite({f"lower {what}": lower, f"upper {what}": upper}, feas, x1p, x2p, alpha))
        if not candidate or "gamma" in result.errors:
            continue
        try:
            points = _point_stage(expr, names, corners, values, lower, upper, fb, optima, x1p, x2p)
            gam[0][ki], gam[1][ki] = _gamma_stage(x_partials, names, points, base, feas, x1p, x2p, alpha, denom_tol)
        except (EvalError, NearZeroDenominatorError, NonFiniteValueError) as err:
            result.fail(("gamma",), err)

    def curve(curve_role, ends):
        return EnvelopeCurve(curve_role, x1p, x2p, alphas, *(a.transpose(1, 2, 0) for a in (*ends, approx)), feas)

    if "envelope" not in result.errors:
        result.envelope = curve(role, env)
    if candidate:
        if "gamma" not in result.errors:
            result.gamma = curve(ROLE_GAMMA, gam)
        result.structure = _structure_report(slots, x1p, x2p, denom_tol, result.errors.get("structure"))
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
    return _alpha_pass(expr, params, *_grid_samples(box, grid), role).result("envelope")


def envelope(expr: Expression, params: FuzzyVector, x1: float, x2: float, alpha: float) -> tuple[float, float]:
    """(min, max) of ``expr`` over the parameter cut box at one (x1, x2, alpha).

    Raises :class:`NonFiniteValueError` when either end is NaN or infinite.
    """
    point = _alpha_pass(expr, params, np.array([x1], dtype=float), np.array([x2], dtype=float),
                        np.array([alpha], dtype=float), np.ones((1, 1), dtype=bool), label="envelope")
    curve = point.result("envelope")
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

    Each end substitutes the parameters that attain it into the symbolic
    partials of ``g`` (Danskin's theorem): the extremal cut-box corner on the
    corner route, the lattice optimum at a dense-fallback sample.

    Raises :class:`NearZeroDenominatorError` when |dY/dx2| < denom_tol at a
    feasible sample; the caller reports that as structure evidence, since it
    means the candidate is not strictly monotone in x2 along that envelope end.
    Raises :class:`NonFiniteValueError` when Gamma is NaN or infinite at a
    feasible sample.
    """
    return _alpha_pass(g, params, *_grid_samples(box, grid), denom_tol=denom_tol, candidate=True).result("gamma")


# --- checks ------------------------------------------------------------------

def _masked_worst(planes, mask: np.ndarray, axes: tuple[np.ndarray, ...]):
    """Max of a sequence of residual arrays over the samples mask marks, read
    one array at a time, plus its location, one coordinate per axis: mask's,
    then the sequence's (a one-array sequence may leave it out).  It is the
    first maximum, or the first NaN, in C order of the arrays stacked along a
    last axis; None if the mask is empty."""
    if not mask.any():
        return None, None
    every, best = mask.all(), None
    for k, plane in enumerate(planes):
        flat = plane if every else np.where(mask, plane, -np.inf)
        pos = int(flat.argmax())
        v = float(flat.flat[pos])
        # a NaN beats any number and a larger number a smaller one; then the
        # smaller position wins, and on an equal key the earlier array
        key = (v != v, 0.0 if v != v else v, -pos)
        if best is None or key > best[0]:
            best = key, v, pos, k
    _, v, pos, k = best
    return v, tuple(float(ax[i]) for ax, i in zip(axes, np.unravel_index(pos, mask.shape) + (k,)))


def _endpoint_residual(lo, hi, ref_lo, ref_hi) -> np.ndarray:
    """Relative end-to-end distance of the interval [lo, hi] from [ref_lo, ref_hi]."""
    return np.maximum(np.abs(lo - ref_lo) / (1.0 + np.abs(ref_lo)), np.abs(hi - ref_hi) / (1.0 + np.abs(ref_hi)))


def _first_worst(results):
    """The first of the ``(value, ...)`` results whose value is worst: a NaN
    beats any number and a larger number a smaller one; a None value never
    wins.  None if no result has a value."""
    best = None
    for result in results:
        v = result[0]
        if v is not None and (best is None or v > best[0] or (v != v and best[0] == best[0])):
            best = result
    return best


def _gate(name: str, results, tol: float, widened: bool) -> CheckReport:
    """A check's report from its parts' ``(residual, location, fail_note)``:
    the first worst (:func:`_first_worst`) passes within ``tol``, widened to
    ``FALLBACK_TOL`` when the check consumed dense-fallback samples; a NaN or
    infinite one raises :class:`NonFiniteValueError` at its location, and no
    residual at all passes with "no feasible samples"."""
    first = _first_worst(results)
    if first is None:
        return CheckReport(name, True, 0.0, None, "no feasible samples")
    worst, loc, fail_note = first
    if not np.isfinite(worst):
        raise NonFiniteValueError(f"{name} residual", *loc, worst)
    tol_eff = max(tol, FALLBACK_TOL) if widened else tol
    passed = worst <= tol_eff
    notes = [fail_note] if fail_note and not passed else []
    if tol_eff != tol:
        notes.append(f"dense-sampling fallback in effect; tolerance widened to {tol_eff:g}")
    return CheckReport(name, passed, worst, loc, "; ".join(notes))


def _structure_slice(values: np.ndarray, d2: np.ndarray, mask: np.ndarray):
    """Min of G, min and max of dG/dx2 over one slice's corner values at the
    masked samples, each with its (i1, i2) position (first in corner, then
    sample order)."""

    def scan(a: np.ndarray, find_min: bool):
        flat = a if mask.all() else np.where(mask, a, np.inf if find_min else -np.inf)
        pos = np.unravel_index(int(flat.argmin() if find_min else flat.argmax()), flat.shape)
        return float(flat[pos]), pos[1:]

    return scan(values, True), scan(d2, True), scan(d2, False)


def _structure_report(slots, x1p, x2p, denom_tol: float, error: Exception | None) -> CheckReport:
    """Fold the per-slice ``(alpha, extrema)`` into the structure report: the
    first worst (:func:`_first_worst`) of the positivity and the sign
    violation, each itself the first worst over the slices.  A non-finite or
    domain-failing corner value (``error``) fails it."""

    def fold(k: int, sign: float):
        # sign * the k-th extremum (negating a minimum is exact); a slice with
        # no feasible finite corner scanned to +-inf and never wins
        return _first_worst((sign * v if math.isfinite(v) else None, (float(x1p[i1]), float(x2p[i2]), alpha))
                            for alpha, extrema in slots for v, (i1, i2) in [extrema[k]]) or (-np.inf, None)

    # pos_violation >= 0 iff G fails strict positivity
    (pos_violation, g_loc), (neg_d_min, d_min_loc), (d_max, d_max_loc) = fold(0, -1.0), fold(1, -1.0), fold(2, 1.0)
    pos_ok = pos_violation < 0.0
    # one global sign: the better hypothesis decides the slack, the positive one on a tie
    positive = neg_d_min <= d_max
    sign_violation, sign_loc = (denom_tol + neg_d_min, d_min_loc) if positive else (denom_tol + d_max, d_max_loc)
    sign_ok = sign_violation <= 0.0
    worst, loc, note = _first_worst((
        (pos_violation, g_loc, "" if pos_ok else "G is not strictly positive on the grid"),
        (sign_violation, sign_loc, "" if sign_ok else "dG/dx2 is not one-signed and bounded away from zero"),
    ))
    report = CheckReport("structure", pos_ok and sign_ok, worst, loc, note)
    return _structure_evidence(report, [] if error is None else [error])


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
    return _alpha_pass(g, params, *_grid_samples(box, grid), denom_tol=denom_tol, candidate=True).structure


def _alpha_planes(*arrays: np.ndarray):
    """The alpha planes of curve arrays: contiguous in the buffers the pass writes."""
    return [a.transpose(2, 0, 1) for a in arrays]


def _any_feasible(flags: np.ndarray, feasible: np.ndarray) -> bool:
    return bool(flags.any(axis=2)[feasible].any())


@_masked_out_invalid
def check_fuzzy_validity(curves: list[EnvelopeCurve]) -> CheckReport:
    """Every envelope must satisfy lower <= upper at every feasible sample (a
    NaN or overflowing lower - upper raises :class:`NonFiniteValueError`, the
    first NaN in curve order first).  Each curve is read one plane at a time."""
    results = [(*_masked_worst(map(np.subtract, *_alpha_planes(c.lower, c.upper)), c.feasible, (c.x1, c.x2, c.alpha)),
                f"lower exceeds upper in the {c.role} envelope") for c in curves]
    return _gate("fuzzy_validity", results, 0.0, False)


@_masked_out_invalid
def check_differentiability(gamma: EnvelopeCurve, tol: float = DEFAULT_MONO_TOL) -> CheckReport:
    """The three fuzzy-number conditions on the Gamma interval:

    1. Gamma_1 non-decreasing in alpha,
    2. Gamma_2 non-increasing in alpha,
    3. Gamma_1 <= Gamma_2 at alpha = 1,

    each within ``tol`` slack at every feasible (x1, x2) (an overflowing
    difference, or a NaN, raises :class:`NonFiniteValueError`).  Each
    condition reads two alpha planes at a time.
    """
    lo, hi = _alpha_planes(gamma.lower, gamma.upper)
    axes = (gamma.x1, gamma.x2, gamma.alpha[1:])
    conditions = (
        # 1: drops of Gamma_1 across successive alpha samples
        _masked_worst((-(b - a) for a, b in zip(lo, lo[1:])), gamma.feasible, axes),
        # 2: rises of Gamma_2
        _masked_worst(map(np.subtract, hi[1:], hi), gamma.feasible, axes),
        # 3: at the core cut
        _masked_worst([lo[-1] - hi[-1]], gamma.feasible, (gamma.x1, gamma.x2, gamma.alpha[-1:])),
    )
    results = [(v, loc, f"condition {i} violated") for i, (v, loc) in enumerate(conditions, 1)]
    return _gate("differentiability", results, tol, _any_feasible(gamma.approximate, gamma.feasible))


@_masked_out_invalid
def check_equality(gamma: EnvelopeCurve, f_curve: EnvelopeCurve, tol: float = DEFAULT_EQ_TOL) -> CheckReport:
    """Gamma must equal the F envelope end-to-end: |Gamma_i - f_i| <= tol*(1+|f_i|)
    (an overflowing residual raises :class:`NonFiniteValueError`).  The
    residual is formed one alpha plane at a time."""
    planes = map(_endpoint_residual, *_alpha_planes(gamma.lower, gamma.upper, f_curve.lower, f_curve.upper))
    widened = _any_feasible(gamma.approximate, gamma.feasible) or _any_feasible(f_curve.approximate, gamma.feasible)
    results = [(*_masked_worst(planes, gamma.feasible, (gamma.x1, gamma.x2, gamma.alpha)), "")]
    return _gate("equality", results, tol, widened)


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

    Raises :class:`NonFiniteValueError` when either envelope, or the residual
    between them, is NaN or infinite at a feasible edge sample.
    """
    if not conditions:
        return CheckReport("boundary", True, 0.0, None, "no conditions")

    x1p, x2p, alphas = grid_axes(box, grid)
    results, any_fb = [], False
    for cond in conditions:
        # the edge is the grid with one point on the fixed axis
        at = np.array([cond.at], dtype=float)
        e1, e2 = (x1p, at) if cond.fix == "x2" else (at, x2p)
        feas = feasible_mask(box, e1[:, None], e2[None, :], (e1.size, e2.size))
        if not feas.any():
            continue
        c, t = (_alpha_pass(expr, params, e1, e2, alphas, feas, label=f"{whose} envelope on the boundary")
                .result("envelope") for expr, whose in ((candidate, "candidate"), (cond.target, "target")))
        any_fb = any_fb or bool(((c.approximate | t.approximate) & feas[:, :, None]).any())
        # alpha-major views, so ties (and the first overflow) go to the lowest
        # alpha, then the lowest edge position
        resid = _endpoint_residual(*_alpha_planes(c.lower, c.upper, t.lower, t.upper))
        v, (at_alpha, at_x1, at_x2) = _masked_worst([resid], np.broadcast_to(feas, resid.shape), (alphas, e1, e2))
        results.append((v, (at_x1, at_x2, at_alpha), ""))
        if not np.isfinite(v):
            break  # the gate fails on the first condition whose residual overflows

    if not results:
        return CheckReport("boundary", True, 0.0, None, "no feasible boundary samples")
    return _gate("boundary", results, tol, any_fb)


# --- verdict -----------------------------------------------------------------

def _structure_evidence(report: CheckReport, errors) -> CheckReport:
    """The structure report failed by each error in turn."""
    for err in errors:
        loc = getattr(err, "location", None) or report.location
        worst = report.worst_violation if not report.passed else 0.0
        note = f"{report.note}; {err}" if report.note else str(err)
        report = CheckReport("structure", False, worst, loc, note)
    return report


def verify(problem: ProblemSpec) -> Verdict:
    """Run the full gate sequence on a problem and assemble the verdict.

    Gate order: structure, fuzzy validity of the Y/F envelopes,
    differentiability, equality with F, boundary conditions.  The outcome is
    the first failing gate (or BF_SOLUTION), but every report that could be
    computed is carried for diagnostics.  Near-zero envelope denominators,
    non-finite values and expression domain errors surface as structure
    evidence.  Structure, Y and Gamma come from the candidate pass over the
    alpha slices of G; F has its own envelope-only pass.  The curves are taken
    first, so a check whose residual overflows fails structure but leaves
    them in the verdict.
    """
    tols = problem.tolerances
    g_pass = _alpha_pass(problem.g, problem.parameters, *_grid_samples(problem.box, problem.grid),
                         denom_tol=tols.denom_tol, candidate=True)
    y_curve, f_curve, gamma, errors = g_pass.envelope, None, g_pass.gamma, g_pass.errors
    if "envelope" not in errors:
        try:
            f_curve = envelope_curve(problem.f, problem.parameters, problem.box, problem.grid, ROLE_F)
        except (EvalError, NonFiniteValueError) as err:
            errors["envelope"] = err
    # one failed sign probe fails Y and Gamma alike, with one error
    evidence = list(dict.fromkeys(errors[part] for part in ("envelope", "gamma") if part in errors))
    curves_error = evidence[0] if evidence else None
    # a domain error at a corner already fails the structure report
    evidence = [e for e in evidence if e is not errors.get("structure")]
    reports: dict[str, CheckReport] = {}

    def attempt(name: str, check, *args) -> None:
        try:
            reports[name] = check(*args)
        except (EvalError, NearZeroDenominatorError, NonFiniteValueError) as err:
            evidence.append(err)

    if "envelope" not in errors:
        attempt("fuzzy_validity", check_fuzzy_validity, [y_curve, f_curve])
    if gamma is not None:
        attempt("differentiability", check_differentiability, gamma, tols.mono_tol)
        if f_curve is not None:
            attempt("equality", check_equality, gamma, f_curve, tols.eq_tol)
    attempt("boundary", check_boundary, problem.g, problem.parameters, problem.boundary, problem.box, problem.grid,
            tols.eq_tol)
    reports["structure"] = _structure_evidence(g_pass.structure, evidence)

    outcome = BF_SOLUTION
    for name, failure in _CHECK_OUTCOME:
        if name in reports and not reports[name].passed:
            outcome = failure
            break

    checks = [reports[name] for name, _ in _CHECK_OUTCOME if name in reports]
    curves = None if curves_error is not None else [y_curve, f_curve, gamma]
    return Verdict(outcome, checks, problem.name, problem.grid, problem.tolerances, curves, curves_error)


def compute_curves(problem: ProblemSpec) -> list[EnvelopeCurve]:
    """The Y, F and GAMMA curves :func:`verify` checks, in that order (plot/CSV
    surface); raises the verdict's ``curves_error`` when one of them could not
    be computed."""
    verdict = verify(problem)
    if verdict.curves_error is not None:
        raise verdict.curves_error
    return verdict.curves
