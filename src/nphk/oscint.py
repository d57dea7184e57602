"""Numerical verification of oscillatory-integral decay rates.

Evaluates I(lambda, s) = integral of exp(i*lambda*(phi(x) + s.x)) g(x) dx over
a compactly supported polynomial bump g, fits decay exponents on dyadic
lambda grids, and probes the local L^q behavior of the weighted maximal
function sup_lambda lambda^(1/2 + 1/(m+1)) |I(lambda, s)|.

Quadrature is a tensor-product composite Gauss rule whose panels are sized
locally: along each axis, a monomialwise bound of |d phi / d axis| + |s| on
each strip of the amplitude's support gives the local oscillation count, and
the panel edges follow it so that no panel holds more than an oversampled
nodes-per-cycle budget allows or is wider than a fixed share of the support.
A grid beyond a fixed node budget is refused before any node is built.  The
integrand is evaluated in blocks of one panel's worth of x rows; for the
radial bump each block covers only the y nodes inside the disc at its row
nearest x = 0, since the amplitude is exactly zero on every other node, so
each value is the full tensor-product sum without its zero terms.  Along
every axis in which the phase is even (every exponent of that variable in
``phi.terms`` is even) and whose nodes mirror exactly, only the nodes >= 0
are swept and each -u column of the offset matrices is added into its +u
column: both bumps are even, so the integrand's values at u and -u are the
same floats.  Panel edges are made to mirror exactly, so this holds for
every phase even in a variable.
Every value is checked by a second Gauss-Legendre rule of order CHECK_ORDER
on the same panels: the reported value is the order-CHECK_ORDER one, and its
error is the relative difference between the two orders.  That error is a
measured difference, not a rigorous bound: for the four decay phases with an
order-2 bump at lambda = 64..4096, against an order-20 reference on panels a
quarter as wide, the true error was up to twice the reported one, and at
most 3.6e-7, far below REL_TOL.  No asymptotic (Filon-type) schemes: lambda
stays at desk scale, the point is an independent, error-checked test of the
predicted power laws, not speed.

Offset grids for the maximal-function scans are cell-centered.  The caustic
of the probed phases is an axis line through s = 0 where the maximal
function is genuinely infinite; endpoint grids would sample it directly and
the Riemann sums would measure the grid, not the function.
"""

from __future__ import annotations

import functools
import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .classify import D_TYPE, UnsupportedKindError, classify_singularity
from .polyring import INFINITE_ORDER, BivariatePolynomial

GAUSS_ORDER = 10
# The check rule on the same panels.  It is even, so its nodes mirror too and
# the check sweep folds like the coarse one.
CHECK_ORDER = 14
# Nodes per oscillation cycle, so at most GAUSS_ORDER / 4 = 2.5 cycles per
# panel.  Order-10 Gauss integrates a pure tone of 2.5 cycles per panel to
# about 2.4e-7 of the panel width (1.4e-11 at 1.5 cycles); panels near the
# stationary point are held narrower by the MIN_PANELS width share, and
# every reported value is checked against the order-CHECK_ORDER rule on the
# same panels.
OVERSAMPLE_NODES_PER_CYCLE = 4
# No panel is wider than 2R / MIN_PANELS.
MIN_PANELS = 6
REL_TOL = 1e-3
MAX_FEASIBLE_LAMBDA = float(1 << 15)
# Coarse quadrature nodes one lambda may use.  The acceptance phases need at
# most 9.3e7 at MAX_FEASIBLE_LAMBDA (x^2*y + y^3 with R = 0.6); a grid far
# beyond that is a run of hours, not a desk-scale check.
MAX_COARSE_NODES = 10**8
# Equal strips per axis on which the gradient bound is taken.  This sets how
# closely the panel sizes follow the local frequency, not the accuracy budget.
_STRIPS = 512

DEFAULT_LAMBDA_GRID = tuple(float(2**j) for j in range(6, 15))
DEFAULT_RADIUS = 0.25
DEFAULT_SCAN_HALF_WIDTH = 0.25
# Cell count per axis for offset scans.  Must be even: the probed phases have
# their caustic on an axis line, where the maximal function is infinite, and
# an odd cell-centered grid would place sample points exactly on it.
DEFAULT_SCAN_CELLS = 32


class QuadratureNotConverged(RuntimeError):
    """The order-GAUSS_ORDER and order-CHECK_ORDER values differ by more than REL_TOL."""


@dataclass(frozen=True)
class AmplitudeSpec:
    """Compactly supported polynomial bump amplitude.

    ``profile`` is "radial" for (1 - (r/R)^2)^order on the disc of radius R,
    or "product" for the tensor bump (1 - (x/R)^2)^order (1 - (y/R)^2)^order
    on the square.
    """

    radius: float = DEFAULT_RADIUS
    order: int = 8
    profile: str = "radial"

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"amplitude radius must be positive and finite, got {self.radius}")
        if self.order < 2 or self.order % 2:
            raise ValueError("bump order must be an even integer >= 2")
        if self.profile not in ("radial", "product"):
            raise ValueError(f"unknown amplitude profile {self.profile!r}")


@dataclass(frozen=True)
class DecayFit:
    """Sampled values of I(lambda, s) and the fitted decay exponent."""

    lambdas: Tuple[float, ...]
    values: Tuple[complex, ...]
    magnitudes: Tuple[float, ...]
    gamma_hat: float
    log_correction: bool
    residual: float
    quadrature_error_bound: Tuple[float, ...]


@dataclass(frozen=True)
class RandolScan:
    """Maximal-function samples and empirical L^q refinement ratios."""

    m: int
    s_grid: Tuple[Tuple[float, float], ...]
    M_values: Tuple[float, ...]
    q_report: Dict[float, Tuple[float, float, float]]  # q -> (coarse, fine, ratio)


def resolve_workers(workers: Optional[int] = None) -> int:
    """``workers``, else ``NPHK_WORKERS``, else 1.

    Raises ValueError for a count below 1 or an ``NPHK_WORKERS`` that is not
    an integer.
    """
    if workers is None:
        env = os.environ.get("NPHK_WORKERS")
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"NPHK_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    return int(workers)


# -- quadrature engine ---------------------------------------------------------


def _float_terms(phi: BivariatePolynomial) -> List[Tuple[int, int, float]]:
    return [(a, b, float(c)) for (a, b), c in sorted(phi.terms.items())]


def _strip_cycles(
    phi: BivariatePolynomial, amp: AmplitudeSpec, lam: float, s_a: float, axis: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Strip edges along ``axis`` and an upper bound on the phase cycles in each strip.

    On each strip the bound is the monomialwise maximum of
    |d phi / d axis| + |s_a| over the part of the amplitude's support the
    strip covers: the strip's chord of the disc for the radial bump, the
    full [-R, R] across for the product bump.
    """
    r = amp.radius
    u = np.linspace(-r, r, _STRIPS + 1)
    lo, hi = u[:-1], u[1:]
    u_max = np.maximum(np.abs(lo), np.abs(hi))
    if amp.profile == "radial":
        u_min = np.where(lo * hi <= 0.0, 0.0, np.minimum(np.abs(lo), np.abs(hi)))
        v_max = np.sqrt(np.clip(r * r - u_min * u_min, 0.0, None))
    else:
        v_max = np.full_like(u_max, r)
    bound = np.full_like(u_max, abs(s_a))
    for a, b, c in _float_terms(phi.partial(axis)):
        e_u, e_v = (a, b) if axis == 0 else (b, a)
        bound += abs(c) * u_max**e_u * v_max**e_v
    return u, lam * bound * (hi - lo) / (2.0 * math.pi)


def _axis_cost(phi: BivariatePolynomial, amp: AmplitudeSpec, lam: float, s_a: float, axis: int) -> Tuple[np.ndarray, np.ndarray]:
    """Strip edges along ``axis`` and the cumulative panel-sizing cost at each.

    A panel's cost is cycles * OVERSAMPLE_NODES_PER_CYCLE / GAUSS_ORDER plus
    width * MIN_PANELS / (2R): a panel of cost at most 1 holds no more than
    GAUSS_ORDER / OVERSAMPLE_NODES_PER_CYCLE cycles and is no wider than
    2R / MIN_PANELS.
    """
    # A radius whose powers overflow gives a non-finite cost, which the node
    # budget in _panels_for rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        u, cycles = _strip_cycles(phi, amp, lam, s_a, axis)
        cost = cycles * OVERSAMPLE_NODES_PER_CYCLE / GAUSS_ORDER + np.diff(u) * MIN_PANELS / (2.0 * amp.radius)
    return u, np.concatenate(([0.0], np.cumsum(cost)))


def _axis_edges(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """Panel edges on [u[0], u[-1]]: the cost spread evenly over the fewest
    panels that keep every share <= 1."""
    panels = int(math.ceil(cum[-1]))
    edges = np.interp(cum[-1] * np.arange(panels + 1) / panels, cum, u)
    edges[0], edges[-1] = u[0], u[-1]
    # The cost is even in u up to rounding; make the edges mirror exactly so
    # that _fold can pair every node u with -u.
    return (edges - edges[::-1]) / 2.0


def _panels_for(phi: BivariatePolynomial, amp: AmplitudeSpec, lam: float, s_max: Tuple[float, float]) -> Tuple[np.ndarray, np.ndarray]:
    """Coarse panel edges per axis for offsets with |s_i| <= |s_max[i]|.

    Raises ValueError for a lambda outside the feasible range, and before
    any edge is placed when the coarse grid would need more than
    MAX_COARSE_NODES nodes or its size is not finite.
    """
    _check_lambda(lam)
    costs = [_axis_cost(phi, amp, lam, s_max[axis], axis) for axis in (0, 1)]
    nodes = float(GAUSS_ORDER**2)
    for _, cum in costs:
        nodes *= float(np.ceil(cum[-1]))
    if not nodes <= MAX_COARSE_NODES:
        raise ValueError(
            f"lambda={lam:g} with radius {amp.radius:g} needs {nodes:.3g} coarse quadrature nodes,"
            f" more than the budget of {MAX_COARSE_NODES:.3g}"
        )
    return _axis_edges(*costs[0]), _axis_edges(*costs[1])


@functools.lru_cache(maxsize=2)
def _gauss_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """The order-``order`` Gauss-Legendre rule on [-1, 1], computed once per order.

    leggauss returns exactly antisymmetric nodes and symmetric weights, so
    mirrored edges give exactly mirrored nodes and equal weights.  It runs on
    first use, not at import: it initializes LAPACK, about 2 MB of resident
    memory that the exact layer never needs.
    """
    gl_x, gl_w = np.polynomial.legendre.leggauss(order)
    gl_x.flags.writeable = gl_w.flags.writeable = False
    return gl_x, gl_w


def _gauss_axis(edges: np.ndarray, order: int = GAUSS_ORDER) -> Tuple[np.ndarray, np.ndarray]:
    gl_x, gl_w = _gauss_rule(order)
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * gl_x[None, :]).ravel()
    weights = (half[:, None] * gl_w[None, :]).ravel()
    return nodes, weights


def _fold(nodes: np.ndarray, mats: List[np.ndarray], even: bool) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The upper half of ``nodes`` and ``mats`` with each mirror column added in.

    Applies only when the integrand is even along this axis and the nodes
    mirror exactly; otherwise the axis is returned unchanged.
    """
    h = nodes.size // 2
    if not (even and np.array_equal(nodes[h:], -nodes[:h][::-1])):
        return nodes, mats
    return nodes[h:], [m[:, h:] + m[:, :h][:, ::-1] for m in mats]


def _bump_rows(amp: AmplitudeSpec, xc: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = amp.radius
    if amp.profile == "radial":
        t = 1.0 - (xc[:, None] ** 2 + y[None, :] ** 2) / (r * r)
        return np.where(t > 0.0, t, 0.0) ** amp.order
    tx = np.clip(1.0 - (xc / r) ** 2, 0.0, None) ** amp.order
    ty = np.clip(1.0 - (y / r) ** 2, 0.0, None) ** amp.order
    return tx[:, None] * ty[None, :]


def _power_cache(base: np.ndarray):
    # pw must not call itself: a self-referencing closure is a reference cycle,
    # and the cycle would keep the cached node powers alive until the next
    # cyclic collection instead of freeing them with the sweep.
    cache = [np.ones_like(base)]

    def pw(k):
        while len(cache) <= k:
            cache.append(cache[-1] * base)
        return cache[k]

    return pw


def _phase_rows(terms, xc: np.ndarray, ypow, out: np.ndarray) -> np.ndarray:
    """lam-free phase values on a block of rows, accumulated into ``out``."""
    xp = _power_cache(xc)
    out.fill(0.0)
    tmp = np.empty_like(out)
    for a, b, c in terms:
        np.multiply(xp(a)[:, None], ypow(b)[None, :], out=tmp)
        tmp *= c
        out += tmp
    return out


def _disc_columns(amp: AmplitudeSpec, xc: np.ndarray, y: np.ndarray) -> Tuple[int, int]:
    """The y-node range [lo, hi) a block of rows ``xc`` needs.

    For the radial bump every node with x^2 + y^2 >= R^2 has a zero
    amplitude, so a block needs only the y nodes inside the disc's chord at
    its row nearest x = 0.  The product bump needs every y node.
    """
    if amp.profile != "radial":
        return 0, y.size
    r = amp.radius
    x_min = float(np.abs(xc).min())
    w = math.sqrt(r * r - x_min * x_min)
    return int(np.searchsorted(y, -w)), int(np.searchsorted(y, w, "right"))


def _osc_grids(
    phi: BivariatePolynomial,
    amp: AmplitudeSpec,
    lam: float,
    grids: Sequence[Tuple[np.ndarray, np.ndarray]],
    edges: Tuple[np.ndarray, np.ndarray],
    order: int = GAUSS_ORDER,
) -> List[np.ndarray]:
    """I(lambda, s) over several separable s-grids, sharing one integrand sweep.

    Each grid is (s1_values, s2_values) and yields the full matrix
    I[i, j] = I(lambda, (s1[i], s2[j])) under the order-``order`` rule on
    every panel.  Each axis in which the phase is even is folded onto its
    nodes >= 0 (``_fold``).  The sweep takes ``order`` rows (one panel's
    worth) per block and evaluates the integrand only on the y nodes
    ``_disc_columns`` gives that block.
    """
    x, wx = _gauss_axis(edges[0], order)
    y, wy = _gauss_axis(edges[1], order)
    terms = _float_terms(phi)

    mats_a = [np.exp(1j * lam * np.outer(s1, x)) * wx[None, :] for s1, _ in grids]
    mats_b = [np.exp(1j * lam * np.outer(s2, y)) * wy[None, :] for _, s2 in grids]
    x, mats_a = _fold(x, mats_a, all(a % 2 == 0 for a, _ in phi.terms))
    y, mats_b = _fold(y, mats_b, all(b % 2 == 0 for _, b in phi.terms))
    totals = [
        np.zeros((a.shape[0], b.shape[0]), dtype=np.complex128)
        for a, b in zip(mats_a, mats_b)
    ]

    phase = np.empty(order * y.size)
    e = np.empty(order * y.size, dtype=np.complex128)
    ypow = _power_cache(y)
    for row in range(0, x.size, order):
        block = slice(row, row + order)
        xc = x[block]
        lo, hi = _disc_columns(amp, xc, y)
        cols = hi - lo
        p = _phase_rows(terms, xc, lambda b: ypow(b)[lo:hi], phase[: xc.size * cols].reshape(xc.size, cols))
        p *= lam
        g = _bump_rows(amp, xc, y[lo:hi])
        eh = e[: xc.size * cols].reshape(xc.size, cols)
        np.cos(p, out=eh.real)
        np.sin(p, out=eh.imag)
        eh.real *= g
        eh.imag *= g
        for total, a, b in zip(totals, mats_a, mats_b):
            total += a[:, block] @ (eh @ b[:, lo:hi].T)
    return totals


def amplitude_mass(amp: AmplitudeSpec) -> float:
    """The integral of the bump, in closed form.

    The radial bump has pi R^2 / (n + 1); the product bump is the square of
    R times the integral of (1 - t^2)^n over [-1, 1], 2^(2n+1) (n!)^2 / (2n+1)!.
    """
    n = amp.order
    if amp.profile == "radial":
        return math.pi * amp.radius**2 / (n + 1)
    one_d = amp.radius * (2 ** (2 * n + 1) * math.factorial(n) ** 2 / math.factorial(2 * n + 1))
    return one_d * one_d


def _cell_sign_change(g: np.ndarray) -> np.ndarray:
    """Per grid cell, whether the values at its four corners include 0 or both signs."""
    corners = (g[:-1, :-1], g[1:, :-1], g[:-1, 1:], g[1:, 1:])
    return (np.minimum.reduce(corners) <= 0) & (np.maximum.reduce(corners) >= 0)


def check_amplitude_support(phi: BivariatePolynomial, amp: AmplitudeSpec, grid: int = 49) -> bool:
    """Grid check that the phase has no critical points separated from the origin.

    Critical sets through the origin (curves of degenerate phases) are
    accepted; a low-gradient island disconnected from the origin's component
    is not, since it would contribute its own stationary-phase terms.

    The component grows through nodes of small gradient and through the
    corners of every grid cell on which both partials take both signs (or
    vanish at a corner), so a critical curve stays connected where the
    small-gradient band along it is thinner than the grid step.
    """
    r = amp.radius
    xs = np.linspace(-r, r, grid)
    g1 = np.zeros((grid, grid))
    g2 = np.zeros((grid, grid))
    for a, b, c in _float_terms(phi.partial(0)):
        g1 += c * xs[:, None] ** a * xs[None, :] ** b
    for a, b, c in _float_terms(phi.partial(1)):
        g2 += c * xs[:, None] ** a * xs[None, :] ** b
    mag = np.hypot(g1, g2)
    scale = max(float(mag.max()), 1e-30)
    mask = mag < 1e-2 * scale
    cells = _cell_sign_change(g1) & _cell_sign_change(g2)
    for di in (0, 1):
        for dj in (0, 1):
            mask[di : grid - 1 + di, dj : grid - 1 + dj] |= cells
    if amp.profile == "radial":
        inside = xs[:, None] ** 2 + xs[None, :] ** 2 <= (0.98 * r) ** 2
    else:
        inside = np.ones_like(mask)

    # flood fill from the cells nearest the origin
    seen = np.zeros_like(mask, dtype=bool)
    queue = deque()
    c0 = grid // 2
    for di in (0, 1):
        for dj in (0, 1):
            queue.append((c0 + di, c0 + dj))
    while queue:
        i, j = queue.popleft()
        if not (0 <= i < grid and 0 <= j < grid) or seen[i, j]:
            continue
        seen[i, j] = True
        if not mask[i, j]:
            continue
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                queue.append((i + di, j + dj))
    # a strong zero outside the origin's component signals a separate critical point
    strong = (mag < 1e-9 * scale) & inside
    stray = strong & ~seen
    stray[c0 - 1 : c0 + 2, c0 - 1 : c0 + 2] = False
    return not bool(stray.any())


def _check_lambda(lam: float) -> None:
    if not lam > 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if lam > MAX_FEASIBLE_LAMBDA:
        raise ValueError(f"lambda={lam} beyond the feasible range {MAX_FEASIBLE_LAMBDA}")


def _sweep_edges(
    phi: BivariatePolynomial, amp: AmplitudeSpec, lams: Sequence[float], s_max: Tuple[float, float]
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Coarse edges for every lambda of a sweep, then the support check.

    Every lambda is checked against the feasible range and the node budget
    before any node grid is built, so an infeasible sweep fails at once.
    """
    edges = [_panels_for(phi, amp, lam, s_max) for lam in lams]
    if not check_amplitude_support(phi, amp):
        raise ValueError("phase has critical points separated from the origin inside the support")
    return edges


def map_sweep(
    fn: Callable[[float, Tuple[np.ndarray, np.ndarray]], object],
    lams: Sequence[float],
    plan: Sequence[Tuple[np.ndarray, np.ndarray]],
    workers: Optional[int] = None,
) -> list:
    """``fn(lam, edges)`` for every lambda of a sweep, in order.

    Runs on a thread pool of ``resolve_workers(workers)`` threads when that
    is more than one.
    """
    nworkers = resolve_workers(workers)
    if nworkers > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            return list(pool.map(fn, lams, plan))
    return [fn(lam, edges) for lam, edges in zip(lams, plan)]


def _order_check(coarse: np.ndarray, fine: np.ndarray, amp: AmplitudeSpec, what: str) -> float:
    """The largest |fine - coarse| / |fine| over the values with |fine| above
    1e-9 of the amplitude's mass (0 when there are none), where ``fine`` is
    the order-CHECK_ORDER value and ``coarse`` the order-GAUSS_ORDER one.

    Raises QuadratureNotConverged when it exceeds REL_TOL.
    """
    big = np.abs(fine) > 1e-9 * amplitude_mass(amp)
    if not big.any():
        return 0.0
    rel = float((np.abs(fine - coarse)[big] / np.abs(fine)[big]).max())
    if rel > REL_TOL:
        raise QuadratureNotConverged(f"order {CHECK_ORDER} moved {what} by {rel:.2e} (> {REL_TOL})")
    return rel


def _eval_on_edges(
    phi: BivariatePolynomial,
    amp: AmplitudeSpec,
    lam: float,
    s: Tuple[float, float],
    edges: Tuple[np.ndarray, np.ndarray],
) -> Tuple[complex, float]:
    """The order-CHECK_ORDER value of I(lambda, s) on ``edges`` and its
    relative difference from the order-GAUSS_ORDER value."""
    grid = [(np.array([s[0]]), np.array([s[1]]))]
    coarse = _osc_grids(phi, amp, lam, grid, edges)[0]
    fine = _osc_grids(phi, amp, lam, grid, edges, CHECK_ORDER)[0]
    return fine[0, 0], _order_check(coarse, fine, amp, f"I(lambda={lam}, s={s})")


def _eval_with_error(
    phi: BivariatePolynomial,
    amp: AmplitudeSpec,
    lam: float,
    s: Tuple[float, float],
) -> Tuple[complex, float]:
    return _eval_on_edges(phi, amp, lam, s, _panels_for(phi, amp, lam, s))


def eval_oscillatory(
    phi: BivariatePolynomial,
    amp: AmplitudeSpec,
    lam: float,
    s: Tuple[float, float] = (0.0, 0.0),
) -> complex:
    """Quadrature value of I(lambda, s) under the order-CHECK_ORDER rule,
    checked against the order-GAUSS_ORDER rule on the same panels."""
    value, _ = _eval_with_error(phi, amp, lam, s)
    return value


def dyadic_grid(lmin: float, lmax: float) -> Tuple[float, ...]:
    """Powers of two from lmin through lmax inclusive."""
    if not (math.isfinite(lmin) and math.isfinite(lmax)):
        raise ValueError(f"lambda bounds must be finite, got [{lmin}, {lmax}]")
    if not 0 < lmin <= lmax:
        raise ValueError(f"lambda grid needs 0 < lmin <= lmax, got [{lmin}, {lmax}]")
    out = []
    lam = float(lmin)
    while lam <= lmax * (1 + 1e-12):
        out.append(lam)
        lam *= 2.0
    return tuple(out)


def fit_decay_from_samples(
    lams: Sequence[float],
    values: Sequence[complex],
    errors: Sequence[float],
    with_log: bool = False,
) -> DecayFit:
    """Least-squares decay exponent from precomputed I(lambda, s) samples."""
    if len(lams) < 3:
        raise ValueError("need at least three lambda samples for a decay fit")
    mags = [abs(v) for v in values]
    if min(mags) <= 0.0:
        raise QuadratureNotConverged("an |I| value underflowed; decay fit is degenerate")
    logl = np.log(np.asarray(lams, dtype=float))
    logm = np.log(np.asarray(mags, dtype=float))
    cols = [np.ones_like(logl), -logl]
    if with_log:
        cols.append(np.log(logl))
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, logm, rcond=None)
    fitted = design @ coef
    residual = float(np.sqrt(np.mean((fitted - logm) ** 2)))
    return DecayFit(
        lambdas=tuple(float(v) for v in lams),
        values=tuple(complex(v) for v in values),
        magnitudes=tuple(mags),
        gamma_hat=float(coef[1]),
        log_correction=bool(with_log),
        residual=residual,
        quadrature_error_bound=tuple(float(e) for e in errors),
    )


def fit_decay(
    phi: BivariatePolynomial,
    amp: AmplitudeSpec,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    s: Tuple[float, float] = (0.0, 0.0),
    with_log: bool = False,
    workers: Optional[int] = None,
) -> DecayFit:
    """Least-squares decay exponent of |I(lambda, s)| over a lambda grid.

    Fits log|I| against log(lambda) (optionally with a log log lambda
    regressor) and reports gamma_hat with the RMS fit residual and the
    per-point quadrature error estimates.
    """
    lams = sorted(float(v) for v in lambda_grid)
    plan = _sweep_edges(phi, amp, lams, s)
    results = map_sweep(lambda lam, edges: _eval_on_edges(phi, amp, lam, s, edges), lams, plan, workers)
    return fit_decay_from_samples(
        lams, [v for v, _ in results], [e for _, e in results], with_log=with_log
    )


# -- maximal-function scans -----------------------------------------------------


def _require_d_type(phi: BivariatePolynomial, m: int) -> None:
    kind = classify_singularity(phi)
    if kind.tag != D_TYPE or kind.m != m:
        raise UnsupportedKindError(
            f"phase classifies as {kind.tag} with m={kind.m}, not a D type with m={m}"
        )
    n = kind.n
    if n != INFINITE_ORDER and n <= 2 * m + 1:
        raise UnsupportedKindError(f"maximal-function scaling needs 2m+1 < n, got n={n}")


def randol_weight(m: int) -> float:
    return 0.5 + 1.0 / (m + 1)


def randol_maximal(
    phi: BivariatePolynomial,
    amp: AmplitudeSpec,
    m: int,
    s: Tuple[float, float],
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
) -> float:
    """Grid approximation (a lower bound) of sup_lambda lambda^(1/2+1/(m+1)) |I(lambda, s)|."""
    _require_d_type(phi, m)
    w = randol_weight(m)
    best = 0.0
    for lam in sorted(float(v) for v in lambda_grid):
        value, _ = _eval_with_error(phi, amp, lam, s)
        best = max(best, lam**w * abs(value))
    return best


def cell_centered_grid(half_width: float, cells: int) -> np.ndarray:
    """Cell centers of a uniform subdivision of [-w, w] into ``cells`` cells."""
    step = 2.0 * half_width / cells
    return -half_width + step * (np.arange(cells) + 0.5)


def randol_lq_scan(
    phi: BivariatePolynomial,
    amp: AmplitudeSpec,
    m: int,
    q_list: Sequence[float],
    half_width: float = DEFAULT_SCAN_HALF_WIDTH,
    cells: int = DEFAULT_SCAN_CELLS,
    lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
    refine: int = 2,
    validate: bool = True,
    workers: Optional[int] = None,
) -> RandolScan:
    """Empirical L^q Riemann sums of the maximal function at two grid refinements.

    A bounded coarse-to-fine ratio is the integrability signal; a growing one
    flags divergence.  The two cell-centered offset grids share every
    integrand sweep under the order-GAUSS_ORDER rule, which gives the
    reported values.  With ``validate`` each lambda's coarse-grid matrix is
    also checked against an order-CHECK_ORDER sweep on the same panels; the
    check does not change any reported value.  The per-lambda sweeps run
    through ``map_sweep`` on ``workers`` threads and are folded into the
    maxima in lambda order, so the values do not depend on ``workers``.
    """
    if cells < 1 or refine < 1:
        raise ValueError(f"offset scans need cells >= 1 and refine >= 1, got cells={cells}, refine={refine}")
    lams = sorted(float(v) for v in lambda_grid)
    _require_d_type(phi, m)
    plan = _sweep_edges(phi, amp, lams, (half_width, half_width))
    w = randol_weight(m)
    cells += cells % 2  # keep sample points off the axis caustic
    coarse = cell_centered_grid(half_width, cells)
    fine = cell_centered_grid(half_width, refine * cells)
    grids = [(coarse, coarse), (fine, fine)]

    def one(lam: float, edges: Tuple[np.ndarray, np.ndarray]) -> List[np.ndarray]:
        mats = _osc_grids(phi, amp, lam, grids, edges)
        if validate:
            checked = _osc_grids(phi, amp, lam, grids[:1], edges, CHECK_ORDER)[0]
            _order_check(mats[0], checked, amp, f"the scan at lambda={lam}")
        return [lam**w * np.abs(mat) for mat in mats]

    m_coarse = np.zeros((coarse.size, coarse.size))
    m_fine = np.zeros((fine.size, fine.size))
    for weighted_coarse, weighted_fine in map_sweep(one, lams, plan, workers):
        m_coarse = np.maximum(m_coarse, weighted_coarse)
        m_fine = np.maximum(m_fine, weighted_fine)

    area_c = (2.0 * half_width / coarse.size) ** 2
    area_f = (2.0 * half_width / fine.size) ** 2
    report: Dict[float, Tuple[float, float, float]] = {}
    for q in q_list:
        s_c = float(np.sum(m_coarse**q) * area_c)
        s_f = float(np.sum(m_fine**q) * area_f)
        report[float(q)] = (s_c, s_f, s_f / s_c if s_c > 0 else math.inf)

    points = tuple((float(a), float(b)) for a in coarse for b in coarse)
    return RandolScan(
        m=m,
        s_grid=points,
        M_values=tuple(float(v) for v in m_coarse.ravel()),
        q_report=report,
    )


# -- CSV emission ----------------------------------------------------------------


def write_fit_csv(path: str, fit: DecayFit) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("lambda,re_I,im_I,abs_I,quad_err\n")
        for lam, val, err in zip(fit.lambdas, fit.values, fit.quadrature_error_bound):
            fh.write(
                f"{lam:.10g},{val.real:.12g},{val.imag:.12g},{abs(val):.12g},{err:.3g}\n"
            )


def write_scan_csv(path: str, scan: RandolScan) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("s1,s2,M_value\n")
        for (s1, s2), value in zip(scan.s_grid, scan.M_values):
            fh.write(f"{s1:.10g},{s2:.10g},{value:.12g}\n")
