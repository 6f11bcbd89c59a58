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
candidate pass serves the structure check, the Y envelope and Gamma.  Every
extreme is read from one kind of table, the vertex method of Dong & Shah over
some points of the cut box (:func:`_table`): a parameter whose cut has no width
(lo == hi: a crisp one, or any at alpha = 1), or that does not occur in the
expression, is one value; a parameter certified one-signed at every sample of
the table's group is pinned per sample, at the cut end its sign makes the
expression least (the min block) or greatest (the max block); every other one
spans 2 points (the corners) or, on the dense fallback, a lattice.  Both
envelope ends share one leading block axis, from the table to Gamma: a
table's values are ``(blocks, columns, samples)``, its ends and ties ``(2,
samples)`` and its points ``(k, 2, samples)``, the lower end first.  One
evaluator (:func:`_values`) and one selector (:func:`_extremes`) serve every
table.  A slice's (x1, x2) samples are held flat, in sample order (x1
slowest), and every group a table covers is a list of them: the whole slice,
or the positions one mask picks.

Before the first slice, each partial of the expression is enclosed by interval
arithmetic over the alpha = 0 cut box, which holds every cut, so a sign it
certifies at a sample holds there in every slice.  A sample is settled when
every parameter live at alpha = 0 has a certified sign there or does not occur
in the expression: the expression is monotone in each parameter there.

Envelope: at a settled sample the table pins every live parameter, so it has
one column in each block and nothing to enumerate (the certified route).  The
other samples take the corner route, on those samples alone, with a table that
pins the parameters certified at all of them; a live parameter's partial is
probed over the box center and all the corners, unless it is certified at
every sample or free of the parameters.  If no parameter shows strictly
opposite signs, the extremum is attained at a corner and the envelope is
exact.  Otherwise the sample falls back to a table at lattice density over the
fallback samples and is flagged approximate; a wide lattice goes over runs of
those samples, so its memory does not grow with them.  A sample whose pinned
ends tie or cross, which only rounding does, loses its pins for that slice (a
settled one joins the corner route).

Structure: the least of G is the min block's end of the corner-density tables
the envelope reads; dG/dx2's least and greatest come from its own table, at
every sample at alpha = 0 and above it only at the samples where G or dG/dx2
(whose partials the candidate pass certifies too) is not proved monotone or an
end was not finite at alpha = 0: elsewhere no later cut, inside the alpha = 0
box, is more extreme, and the report keeps the first worst in alpha order,
then in sample order.  Every location the pass reports, in the envelope,
Gamma, a near-zero denominator or structure, is the (x1, x2) of the first
such flat position.

Point: each envelope end carries the parameter point that attains it: the
first column of its block that does or, where distinct corners tie on the
corner route, the tied corner extremal in d . grad_x G along one step d into
the sampled box, which by Danskin's theorem is the envelope's one-sided
derivative: the tie-break evaluates the x-partials at grid samples, never G
off the grid.

Gamma: by Danskin's theorem, d(min_p G)/dx = dG/dx at the minimiser (and
likewise for the max), so Gamma substitutes those points into the symbolic
partials, evaluated at each end's points in turn, and its values are symbolic
on every route.

Checks that consume approximate samples run at a widened tolerance
(``FALLBACK_TOL``), since a lattice optimum is only as close to the true one
as the lattice spacing.  A NaN or infinite corner value, envelope or Gamma
value at a feasible sample, and a domain error of G or dG/dx2 at a cut-box
corner and a feasible sample, are structure evidence, never passed on to the
checks; an evaluation fails only where it fails at a feasible sample.  Every
check, structure included, reports its first worst violation, a NaN beating
any number (:func:`_first_worst`).  The four curve checks end in one gate that
turns their parts' worst residuals into the report, so a NaN or overflowing
residual (finite values too far apart to subtract) is structure evidence with
its location in each.

The same pass, in envelope-only mode, builds every other envelope the engine
uses: the F envelope, the candidate and target envelopes on a boundary edge
(the grid with a single point on the fixed axis) and the point envelope of
:func:`envelope` (a 1x1x1 grid); it builds no parameter points.  The sign
probe of both modes may enumerate 2^k cut-box corners, so every envelope takes
at most ``CORNER_PARAM_LIMIT`` parameters.
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


def _broadcast(value, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


def _flat_samples(x1p: np.ndarray, x2p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (x1, x2) sample of two axes in sample order (x1 slowest), as two
    ``(n1 * n2,)`` arrays: the layout of every group the pass evaluates."""
    return np.repeat(x1p, x2p.size), np.tile(x2p, x1p.size)


def _table(los: np.ndarray, his: np.ndarray, density: int, signs: np.ndarray) -> list[np.ndarray]:
    """The parameter points at which a group of ``(q,)`` samples evaluates an
    expression: one row per parameter, each broadcasting to ``(2, C, q)``,
    whose leading axis is the block (the min block, then the max block) and
    whose C columns are the points a block spans.  ``signs`` are the
    certified signs at the group's samples, ``(k, q)``, 0 where none.  A live
    parameter (lo < hi) certified at every sample is pinned per sample,
    ``(2, 1, q)``, the pinned rows being views of one array: at the cut end
    its sign makes the expression least in the min block, greatest in the
    max block.  Every other live one spans ``density`` points, ``(1, C, 1)``,
    endpoints included, the first parameter fastest (2 points: the cut-box
    corners; more: a lattice over the spanning parameters, capped at
    ``BOX_SAMPLE_BUDGET`` points).  A degenerate one is its one value, ``(1,
    1, 1)``."""
    pinned = (los < his) & signs.all(axis=1)
    spans = (los < his) & ~pinned
    ab = np.stack([los, his], 1)[pinned][:, :, None, None]
    ends = iter(np.where((signs[pinned] > 0)[:, None, None], ab, ab[:, ::-1]))
    n = min(density, max(2, int(BOX_SAMPLE_BUDGET ** (1.0 / spans.sum())))) if spans.any() else 1
    columns = np.arange(n ** int(spans.sum()))
    # the corners are the cut ends themselves (linspace's step overflows where
    # hi - lo does); a one-value row binds like a scalar: numpy's power, for
    # one, takes another loop for a full array of one value, which can differ
    # in the last bit
    return [next(ends) if pin else ((np.array([lo, hi]) if n == 2 else np.linspace(lo, hi, n))[columns // n ** b % n]
                                    if span else np.array([lo]))[None, :, None]
            for lo, hi, pin, span, b in zip(los, his, pinned, spans, np.cumsum(spans) - spans)]


def _values(expr: Expression, names, rows, x1, x2, feas: np.ndarray) -> np.ndarray:
    """expr at every point of a :func:`_table` and every sample of its group,
    ``(B, C, q)``, B being 2 where a row is pinned and 1 where both ends read
    one block: ``x1`` and ``x2`` are the ``(q,)`` samples and ``feas`` marks
    the feasible ones.  An evaluation error is retried at the feasible samples
    alone, NaN at the others; if that fails too, the points are replayed one
    at a time, block by block, and the first failing point's error is
    raised."""
    shape = np.broadcast(*rows, feas[None, None]).shape

    def at_feasible(point) -> dict:
        binding = {name: np.broadcast_to(row, shape)[point][..., feas] for name, row in zip(names, rows)}
        return dict(binding, x1=x1[feas], x2=x2[feas])

    try:
        return _broadcast(evaluate(expr, dict(zip(names, rows), x1=x1, x2=x2)), shape)
    except EvalError:
        values = np.full(shape, np.nan)
    try:
        values[..., feas] = _broadcast(evaluate(expr, at_feasible(...)), shape[:2] + (int(feas.sum()),))
    except EvalError:
        for b, c in np.ndindex(shape[:2]):
            evaluate(expr, at_feasible((slice(b, b + 1), slice(c, c + 1))))
        raise
    return values


def _extremes(values: np.ndarray, rows=None, allowed=None):
    """Per sample, the least of a :func:`_table`'s ``(B, C, q)`` ``values``
    in its min block and the greatest in its max block, over the ``(2, C,
    q)`` points ``allowed`` marks if given: the ``(2, q)`` ends, lower then
    upper, and, given the table's ``rows``, whether more than one point
    attains each, ``(2, q)``, and the ``(k, 2, q)`` parameter point at the
    first column attaining it (the first NaN one where the end is NaN)."""
    per_end = np.broadcast_to(values, (2,) + values.shape[1:])  # the min block, then the max block
    if allowed is not None:
        per_end = np.where(allowed, per_end, np.array([np.inf, -np.inf])[:, None, None])
    one = per_end.shape[1] == 1  # one column: each end is its block's, and nothing ties
    ends = per_end[:, 0] if one else np.stack([per_end[0].min(axis=0), per_end[1].max(axis=0)])
    if rows is None:
        return ends, None, None
    # argmin's pick is the first NaN where the end is NaN
    first = None if one else np.stack([per_end[0].argmin(axis=0), per_end[1].argmax(axis=0)])
    ties = np.zeros(ends.shape, dtype=bool) if one else (per_end == ends[:, None]).sum(axis=1) > 1
    # a pinned or one-value row is its block's; a spanning one is its column's
    points = np.empty((len(rows),) + ends.shape)
    for point, row in zip(points, rows):
        point[...] = row[:, 0] if row.shape[1] == 1 else row[0, first, 0]
    return ends, ties, points


def _reduce(expr: Expression, names, los, his, density: int, signs, x1, x2, feas, with_points: bool):
    """expr's :func:`_table` at ``density`` over a group of samples, its
    values and their :func:`_extremes` (ties and points too if
    ``with_points``), as ``rows, values, ends, ties, points``.  A lattice
    (``density`` > 2) is evaluated and reduced over runs of consecutive
    samples, each holding at most ``FALLBACK_BOX_SAMPLES`` times
    ``BOX_SAMPLE_BUDGET`` points of a block (the largest lattice at 33
    samples), so its memory does not grow with the group; its values are then
    the last run's.  Where the pinned ends tie or cross, which only rounding
    does, the sample loses its pins and the group's table is built again,
    once: a group with such a sample pins nothing."""
    while True:
        rows = _table(los, his, density, signs)
        step = FALLBACK_BOX_SAMPLES * BOX_SAMPLE_BUDGET // np.broadcast(*rows).shape[1] if density > 2 else x1.size
        runs = []
        for at in (slice(i, i + step) for i in range(0, x1.size, step)):
            run = [row if row.shape[2] == 1 else row[..., at] for row in rows]
            values = _values(expr, names, run, x1[at], x2[at], feas[at])
            runs.append(_extremes(values, run if with_points else None))
        ends, ties, points = (None if r[0] is None else np.concatenate(r, axis=-1) for r in zip(*runs))
        crossed = len(values) == 2 and ~(ends[0] < ends[1])
        if not np.any(crossed):
            return rows, values, ends, ties, points
        signs = np.where(crossed, 0, signs)


def _sign_fallback(partials, names, los, his, x1, x2, feas) -> np.ndarray:
    """The ``(q,)`` samples whose extremum may lie inside the box: some live
    parameter's partial (in ``partials``, None where its sign needs no probe)
    takes strictly opposite signs across the box center and the 2^m
    corners."""
    corners = _table(los, his, 2, np.zeros((los.size, 1), dtype=np.int8))
    probes = [np.concatenate([np.full_like(row[:, :1], 0.5 * lo + 0.5 * hi), row], axis=1) if lo < hi else row
              for row, lo, hi in zip(corners, los, his)]
    fallback = np.zeros(feas.shape, dtype=bool)
    for partial in (d for d, lo, hi in zip(partials, los, his) if lo < hi and d is not None):
        d = _values(partial, names, probes, x1, x2, feas)[0]
        fallback |= (d > 0.0).any(axis=0) & (d < 0.0).any(axis=0)
    return fallback


def _settled(expr: Expression, partials, params: FuzzyVector, x1p, x2p):
    """Each partial's sign at every (x1, x2) sample of the axes ``x1p`` and
    ``x2p``, ``(k, q)`` in sample order, certified by interval arithmetic on
    the alpha = 0 cut box (+1, -1 or 0); the samples where those signs prove
    expr monotone in each parameter over that box, where every parameter live
    there that occurs in expr has a sign; and the mask of the parameters that
    occur in expr.  Each axis is bound once, so a term of one x alone is
    enclosed once per value of that x, not once per sample."""
    los, his = _cut_arrays(params, 0.0)
    x1, x2 = x1p[:, None], x2p[None, :]
    box = dict({"x1": (x1, x1), "x2": (x2, x2)}, **{name: (lo, hi) for name, lo, hi in zip(params.names, los, his)})
    ends = [interval_eval(d, box) if lo < hi and free_variables(d) <= box.keys() else (0.0, 0.0)
            for d, lo, hi in zip(partials, los, his)]  # 0 for an unbound name: it raises where evaluated
    signs = np.stack([np.broadcast_to(np.int8(lo > 0.0) - np.int8(hi < 0.0), (x1p.size, x2p.size))
                      for lo, hi in ends]).reshape(len(ends), -1)
    uses = np.array([name in free_variables(expr) for name in params.names], dtype=bool)
    return signs, (signs[(los < his) & uses] != 0).all(axis=0), uses


def _non_finite(arrays: dict, feas: np.ndarray, x1, x2, alpha: float) -> NonFiniteValueError | None:
    """The error for the first feasible sample, in sample order, where one of
    the named ``(..., q)`` arrays is NaN or infinite; None if there is none.
    ``x1`` and ``x2`` are the ``(q,)`` samples."""
    finite = [np.isfinite(a).reshape(-1, feas.size).all(axis=0) for a in arrays.values()]
    bad = feas & ~np.logical_and.reduce(finite)
    if not bad.any():
        return None
    i = int(bad.argmax())
    for what, a in arrays.items():
        column = np.ravel(a[..., i])
        off = column[~np.isfinite(column)]
        if off.size:
            return NonFiniteValueError(what, float(x1[i]), float(x2[i]), alpha, float(off[0]))
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


def _tie_break(x_partials, names, rows, values, ends, tied, x1, x2, feas, axes) -> np.ndarray:
    """The ``(k, 2, t)`` points of the corner route (its table's ``rows``,
    ``values`` and ``ends`` on the ``(q,)`` samples ``x1``, ``x2``) at the t
    ``tied`` samples, where distinct columns of one block tie for an end (e.g.
    the partial vanishes along an axis): the first tied column whose
    d . grad_x G (``x_partials``: dG/dx1, dG/dx2) is least for the lower end
    and greatest for the upper, d being the range of each sampled axis in
    ``axes`` (backward at its last sample)."""
    rows, x = [row if row.shape[2] == 1 else row[..., tied] for row in rows], (x1[tied], x2[tied])
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf at an infeasible sample
        score = sum(np.where(xs < a[-1], a[-1] - a[0], a[0] - a[-1]) * _values(d, names, rows, *x, feas[tied])
                    for xs, a, d in zip(x, axes, x_partials))
    return _extremes(score, rows, values[..., tied] == ends[:, None, tied])[2]


def _gamma_stage(x_partials, names, points, x1, x2, feas, alpha: float, denom_tol: float) -> np.ndarray:
    """Gamma's lower and upper end on one slice of ``(q,)`` samples, ``(2,
    q)``.  By Danskin's theorem each envelope end moves with G at the ``(k,
    2, q)`` parameter point attaining it, so its x-partials (``x_partials``,
    dG/dx1 and dG/dx2) are G's there, evaluated one end at a time, the lower
    end first.  Raises :class:`NearZeroDenominatorError` where |dG/dx2| <
    denom_tol, and :class:`NonFiniteValueError` where Gamma is NaN or
    infinite, each at the first such feasible sample."""
    gamma = np.empty((2, x1.size))
    for end, point in zip(gamma, points.swapaxes(0, 1)):
        num, den = (_values(d, names, point[:, None, None], x1, x2, feas)[0, 0] for d in x_partials)
        bad = feas & (np.abs(den) < denom_tol)
        if bad.any():
            i = int(bad.argmax())
            raise NearZeroDenominatorError(float(x1[i]), float(x2[i]), alpha, float(den[i]))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(num, den, out=end)
    error = _non_finite({"lower Gamma": gamma[0], "upper Gamma": gamma[1]}, feas, x1, x2, alpha)
    if error is not None:
        raise error
    return gamma


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
    mode it also builds the structure check, from the least value of the
    tables of ``expr`` and the extremes of its x2-partial's own table, and
    runs the tie-break and the Gamma stage after the envelope.  Errors are
    kept per part in ``errors``, not raised: a domain error in a table at
    corner density fails every part, one in the sign probe or the lattice both
    curves, one in the tie-break or the Gamma stage Gamma only, and a
    non-finite envelope the envelope only.

    A slice is held flat, its (x1, x2) samples in sample order: the certified
    table covers all of them, and every other group the positions one mask
    picks (the open samples, the fallback ones, the tied ones, the scan's).
    """
    names = params.names
    if len(names) > CORNER_PARAM_LIMIT:
        raise ValueError(f"every envelope enumerates the 2^k cut-box corners; at most {CORNER_PARAM_LIMIT} parameters")
    if not feas.any():
        raise ValueError("no grid samples satisfy the domain constraint")
    (x1, x2), ok = _flat_samples(x1p, x2p), feas.ravel()
    partials = [differentiate(expr, name) for name in names]
    # a sign certified on the alpha = 0 box, which holds every cut, holds in
    # every slice: it needs no probe, and at a settled sample the table pins
    # every live parameter of expr.  The certified table spans the slice: an
    # open sample, which the corner route overwrites, takes lo for the min
    # and hi for the max where it has no sign
    signs, settled, uses = _settled(expr, partials, params, x1p, x2p)
    probed = [None if s.all() or not free_variables(d) & set(names) else d for d, s in zip(partials, signs)]
    pins = np.where(signs == 0, np.int8(1), signs)
    parts = ("envelope", "gamma") if candidate else ("envelope",)
    # alpha-major buffers, lower end then upper: each end's slice is
    # contiguous
    planes = (alphas.size, ok.size)
    env, approx = np.empty((2,) + planes), np.zeros(planes, dtype=bool)
    if candidate:
        x_partials = differentiate(expr, "x1"), differentiate(expr, "x2")
        d2 = x_partials[1]
        d2_signs, d2_settled, d2_uses = _settled(d2, [differentiate(d2, name) for name in names], params, x1p, x2p)
        # the structure scan's samples: all of them, until alpha = 0 bounds
        # every later cut where G and dG/dx2 are proved monotone
        scan = np.arange(ok.size)
        gam = np.empty((2,) + planes)
    result, slots = _AlphaPass(), []
    what = label or f"{role} envelope"
    for ki, alpha in enumerate(alphas.tolist()):
        los, his = _cut_arrays(params, alpha)
        his_e = np.where(uses, his, los)  # a parameter absent from expr is bound at lo
        ends, points, open_ = env[:, ki], np.empty((len(names), 2, ok.size)), ~settled
        try:
            if settled.any():
                table = _table(los, his_e, 2, pins)
                values = _values(expr, names, table, x1, x2, ok)
                ends[:], _, points = _extremes(values, table if candidate else None)
                open_ |= (len(values) == 2) & ~(ends[0] < ends[1])  # pinned ends that tie or cross lose their pins
            at = np.flatnonzero(open_)
            if at.size:  # the corner route, on the open samples
                x1r, x2r, ok_r = x1[at], x2[at], ok[at]
                signs_r = np.where(settled[at], 0, signs[:, at])
                rows, values, ends[:, at], ties, pts = _reduce(expr, names, los, his_e, 2, signs_r, x1r, x2r, ok_r,
                                                               candidate)
            if candidate and scan.size:
                x1s, x2s, ok_s = x1[scan], x2[scan], ok[scan]
                _, _, d2_ends, _, _ = _reduce(d2, names, los, np.where(d2_uses, his, los), 2, d2_signs[:, scan], x1s,
                                              x2s, ok_s, False)
                # the tables' ends, before the lattice: a table value that is
                # NaN or infinite makes an end so
                g_ends = ends[:, scan]
                finite = np.isfinite(g_ends).all(axis=0) & np.isfinite(d2_ends).all(axis=0)
                if not finite[ok_s].all():
                    result.fail(("structure",), _non_finite({"cut-box corner value of G": g_ends,
                                                             "cut-box corner value of dG/dx2": d2_ends}, ok_s, x1s, x2s,
                                                            alpha))
                # each plane's first worst feasible finite sample
                worst, kept = (-g_ends[0], -d2_ends[0], d2_ends[1]), ok_s & finite
                first = [int(np.where(kept, p, -np.inf).argmax()) for p in worst]
                slots.append((alpha, [(float(p[i]), (float(x1s[i]), float(x2s[i]))) if kept.any() else (None, None)
                                      for p, i in zip(worst, first)]))
                if alpha == 0.0:
                    # where G and dG/dx2 are proved monotone, a later cut lies
                    # in this box and no table is more extreme than this one:
                    # later scans skip those samples
                    scan = np.flatnonzero(~(settled & d2_settled & (finite | ~ok)))
        except EvalError as err:
            result.fail(("structure",) + parts if candidate else parts, err)
            continue
        if all(part in result.errors for part in parts):
            continue  # every curve this slice feeds has already failed
        if at.size:
            try:
                fb = _sign_fallback(probed, names, los, his_e, x1r, x2r, ok_r)
                if fb.any():
                    # fb_values (the last run's) stays bound until the next level's lattice: freed at
                    # once, its pages go back to the system and every level faults them in again
                    _, fb_values, fb_ends, _, fb_points = _reduce(expr, names, los, his_e, FALLBACK_BOX_SAMPLES,
                                                                  signs_r[:, fb], x1r[fb], x2r[fb], ok_r[fb], candidate)
                    approx[ki][at] = fb  # the open samples keep their order
                    ends[:, approx[ki]] = fb_ends
                    if candidate:
                        pts[:, :, fb] = fb_points
            except EvalError as err:
                result.fail(parts, err)
                continue
        result.fail(("envelope",), _non_finite({f"lower {what}": ends[0], f"upper {what}": ends[1]}, ok, x1, x2, alpha))
        if not candidate or "gamma" in result.errors:
            continue
        try:
            if at.size:
                tied = ~fb & ties.any(axis=0)
                if tied.any():
                    pts[:, :, tied] = _tie_break(x_partials, names, rows, values, ends[:, at], tied, x1r, x2r, ok_r,
                                                 (x1p, x2p))
                points[:, :, at] = pts
            gam[:, ki] = _gamma_stage(x_partials, names, points, x1, x2, ok, alpha, denom_tol)
        except (EvalError, NearZeroDenominatorError, NonFiniteValueError) as err:
            result.fail(("gamma",), err)

    def curve(name, ends):  # (n1, n2, n_alpha) views of the alpha-major buffers
        return EnvelopeCurve(name, x1p, x2p, alphas, *(a.T.reshape(feas.shape + (-1,)) for a in (*ends, approx)), feas)

    if "envelope" not in result.errors:
        result.envelope = curve(role, env)
    if candidate:
        if "gamma" not in result.errors:
            result.gamma = curve(ROLE_GAMMA, gam)
        result.structure = _structure_report(slots, denom_tol, result.errors.get("structure"))
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


def _structure_report(slots, denom_tol: float, error: Exception | None) -> CheckReport:
    """Fold the per-slice ``(alpha, worst)`` into the structure report: each
    slice's -min G, -min dG/dx2 and max dG/dx2 with their (x1, x2), as
    :func:`_masked_worst` gives them.  The report is the first worst
    (:func:`_first_worst`) of the positivity and the sign violation, each
    itself the first worst over the slices.  A non-finite or domain-failing
    corner value (``error``) fails it."""

    def fold(k: int):
        # a slice with no feasible finite sample has no value and never wins
        worsts = ((v, (*at, alpha)) for alpha, worst in slots for v, at in [worst[k]] if at)
        return _first_worst(worsts) or (-np.inf, None)

    # pos_violation >= 0 iff G fails strict positivity
    (pos_violation, g_loc), (neg_d_min, d_min_loc), (d_max, d_max_loc) = fold(0), fold(1), fold(2)
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


def _check_finite_ends(curve: EnvelopeCurve) -> None:
    """Raise :class:`NonFiniteValueError` at the first feasible sample, in
    alpha then sample order, where an end of the curve is NaN or infinite; one
    alpha plane at a time.  A residual check needs this: an infinite end can
    leave every residual finite but one -inf, which never is the worst."""
    for alpha, lower, upper in zip(curve.alpha.tolist(), *_alpha_planes(curve.lower, curve.upper)):
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            ends = {f"lower end of the {curve.role} curve": lower.ravel(),
                    f"upper end of the {curve.role} curve": upper.ravel()}
            error = _non_finite(ends, curve.feasible.ravel(), *_flat_samples(curve.x1, curve.x2), alpha)
            if error is not None:
                raise error


def _any_feasible(flags: np.ndarray, feasible: np.ndarray) -> bool:
    return bool(flags.any(axis=2)[feasible].any())


@_masked_out_invalid
def check_fuzzy_validity(curves: list[EnvelopeCurve]) -> CheckReport:
    """Every envelope must satisfy lower <= upper at every feasible sample (a
    NaN or overflowing lower - upper raises :class:`NonFiniteValueError`, the
    first NaN in curve order first, and so does a NaN or infinite end).  Each
    curve is read one plane at a time."""
    results = [(*_masked_worst(map(np.subtract, *_alpha_planes(c.lower, c.upper)), c.feasible, (c.x1, c.x2, c.alpha)),
                f"lower exceeds upper in the {c.role} envelope") for c in curves]
    report = _gate("fuzzy_validity", results, 0.0, False)
    for curve in curves:
        _check_finite_ends(curve)
    return report


@_masked_out_invalid
def check_differentiability(gamma: EnvelopeCurve, tol: float = DEFAULT_MONO_TOL) -> CheckReport:
    """The three fuzzy-number conditions on the Gamma interval:

    1. Gamma_1 non-decreasing in alpha,
    2. Gamma_2 non-increasing in alpha,
    3. Gamma_1 <= Gamma_2 at alpha = 1,

    each within ``tol`` slack at every feasible (x1, x2) (an overflowing
    difference, a NaN, or an infinite end raises
    :class:`NonFiniteValueError`).  Each condition reads two alpha planes at
    a time.
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
    report = _gate("differentiability", results, tol, _any_feasible(gamma.approximate, gamma.feasible))
    _check_finite_ends(gamma)
    return report


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
