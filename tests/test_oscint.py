import decimal
import gc
import math
import time
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nphk import oscint
from nphk.classify import UnsupportedKindError, classify_singularity, height, linear_height
from nphk.oscint import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_SCAN_HALF_WIDTH,
    MAX_COARSE_NODES,
    MAX_SCAN_POINTS,
    SINCOS_RANGE,
    AmplitudeSpec,
    BudgetExceeded,
    QuadratureNotConverged,
    amplitude_mass,
    check_amplitude_support,
    cell_centered_grid,
    dyadic_grid,
    eval_oscillatory,
    fit_decay,
    randol_lq_scan,
    _BLOCK_ROWS,
    _RULE,
    _disc_columns,
    _gauss_axis,
    _global_phase,
    _lambda_step,
    _min_panels,
    _order_check,
    _osc_grids,
    _panels_for,
    _power,
    _radial_bump,
    _sincos,
    _split_phase,
    _strip_bounds,
)
from nphk.polyring import BivariatePolynomial, parse_polynomial

# the rule's two orders
ORDERS = sorted({_RULE.order, _RULE.check})


def _grids(s_max):
    """A scan's offset grids when s_max is the scan's square, else the one offset s_max."""
    return _SCAN_GRIDS if s_max == (DEFAULT_SCAN_HALF_WIDTH,) * 2 else _one(*s_max)


def _edges(phi, amp, lam, s_max, grids=None):
    """The panels an entry point builds for the offset ``grids`` (``_grids``
    of s_max by default) within ``s_max``."""
    grids = _grids(s_max) if grids is None else grids
    return _panels_for(_strip_bounds(phi, amp, s_max), amp, lam, _min_panels(amp, grids))


def _value(phi, amp, lam, s, edges):
    """I(lambda, s) on ``edges`` and its reported error, as the decay entry
    points take them."""
    (value,), err = _lambda_step(_split_phase(phi), amp, lam, [(np.array([s[0]]), np.array([s[1]]))], edges, "I")
    return value[0, 0], err


def _sweep(phi, amp, lam, grids, edges, order):
    """One order's sweep of ``phi``, split and with its global phase as the
    public entry points give them."""
    phase = _split_phase(phi)
    return _osc_grids(phase, amp, lam, grids, edges, order, _global_phase(phase.constant, lam))


class TestAmplitude:
    def test_radial_mass_closed_form(self):
        amp = AmplitudeSpec(radius=0.25, order=8)
        assert amplitude_mass(amp) == pytest.approx(math.pi * 0.0625 / 9, rel=1e-12)

    @pytest.mark.parametrize("order", range(2, 41, 2))
    def test_radial_mass_closed_form_matches_gauss(self, order):
        # in polar coordinates the mass is 2 pi R^2 times the integral of
        # (1 - t^2)^order t over [0, 1]; 64 Gauss points integrate that
        # polynomial, of degree <= 81, exactly
        amp = AmplitudeSpec(radius=0.3, order=order)
        gl_x, gl_w = np.polynomial.legendre.leggauss(64)
        t = (gl_x + 1.0) / 2.0
        radial = float(np.sum(gl_w / 2.0 * (1.0 - t**2) ** order * t))
        assert amplitude_mass(amp) == pytest.approx(2.0 * math.pi * amp.radius**2 * radial, rel=1e-12)

    def test_invalid_specs(self):
        for radius in (-1, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="radius"):
                AmplitudeSpec(radius=radius)
        with pytest.raises(ValueError):
            AmplitudeSpec(order=3)
        # the radial bump is the only amplitude
        with pytest.raises(TypeError, match="profile"):
            AmplitudeSpec(profile="radial")

    @pytest.mark.parametrize("order", [10**6, 10**8, 10**400], ids=["1e6", "1e8", "1e400"])
    def test_bump_order_beyond_the_measured_range_refused(self, order):
        # with x^2 + y^2 at R = 0.4 and lambda = 64, order 10^6 gave |I| =
        # 3.4e-86 against a mass of 5.0e-7 and passed the order check, whose
        # floor every value fell below; 10^8 gave 0, and 10^400 overflowed in
        # amplitude_mass
        with pytest.raises(ValueError, match="even integer from 2 to 400"):
            AmplitudeSpec(radius=0.4, order=order)

    def test_bump_orders_up_to_the_bound_accepted(self):
        # 40 is the largest order of the closed-form mass test above
        for order in (40, 400):
            assert AmplitudeSpec(radius=0.4, order=order).order == order
        with pytest.raises(ValueError, match="from 2 to 400"):
            AmplitudeSpec(order=402)

    @pytest.mark.parametrize("order", [6.0, 2.0])
    def test_float_order_refused(self, order):
        # _power needs an int order
        with pytest.raises(ValueError, match="even integer"):
            AmplitudeSpec(order=order)

    def test_support_check_accepts_degenerate_curve(self):
        amp = AmplitudeSpec(radius=0.25)
        assert check_amplitude_support(parse_polynomial("(y - x^2)^2"), amp)
        assert check_amplitude_support(parse_polynomial("x^2 + y^2"), amp)

    def test_support_check_flags_stray_critical_point(self):
        # gradient vanishes at (1/6, 0), inside the quarter-radius disc
        amp = AmplitudeSpec(radius=0.25)
        assert not check_amplitude_support(parse_polynomial("x^2 + y^2 - 4*x^3"), amp)

    def test_support_check_follows_a_critical_curve_through_grid_nodes(self):
        # at R = 0.25 and 0.3 a grid node lies exactly on the parabola, away
        # from the nodes of small gradient around it
        curve = parse_polynomial("(y - x^2)^2")
        for order in (2, 8):
            for step in range(7):
                amp = AmplitudeSpec(radius=0.1 + 0.05 * step, order=order)
                assert check_amplitude_support(curve, amp), amp
        # critical points at (0, +-1/5), apart from the one at the origin
        stray = parse_polynomial("x^2 + y^4 - 2/25*y^2")
        assert not check_amplitude_support(stray, AmplitudeSpec(radius=0.4))

    def test_support_check_sees_a_linear_term(self):
        # the gradient (2x - 1/4, 2y) vanishes only at (1/8, 0), away from the origin
        assert not check_amplitude_support(parse_polynomial("x^2 - 1/4*x + y^2"), AmplitudeSpec(radius=0.25))


class TestEval:
    def test_zero_phase_integrates_the_bump(self):
        amp = AmplitudeSpec()
        value = eval_oscillatory(parse_polynomial("0"), amp, 100.0)
        assert value.imag == pytest.approx(0.0, abs=1e-12)
        assert value.real == pytest.approx(amplitude_mass(amp), rel=1e-9)

    def test_quadratic_halving_ratio(self):
        amp = AmplitudeSpec()
        p = parse_polynomial("x^2 + y^2")
        i1 = eval_oscillatory(p, amp, 2048.0)
        i2 = eval_oscillatory(p, amp, 4096.0)
        assert abs(i2) / abs(i1) == pytest.approx(0.5, rel=0.05)

    def test_non_finite_offset_refused(self):
        # a nan offset would reach the node budget, which would ask for "nan coarse quadrature nodes"
        p, amp = parse_polynomial("x^2*y + y^3"), AmplitudeSpec()
        calls = [
            lambda: eval_oscillatory(p, amp, 64.0, (math.nan, 0.0)),
            lambda: fit_decay(p, amp, dyadic_grid(64, 256), s=(math.inf, 0.0)),
            lambda: _strip_bounds(p, amp, (0.0, -math.inf)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="offsets must be finite"):
                call()

    def test_conjugation_under_phase_and_offset_flip(self):
        amp = AmplitudeSpec()
        p = parse_polynomial("x^2*y + y^3")
        s = (0.05, -0.03)
        lhs = eval_oscillatory(-p, amp, 512.0, (-s[0], -s[1]))
        rhs = eval_oscillatory(p, amp, 512.0, s)
        assert lhs == pytest.approx(rhs.conjugate(), rel=1e-6, abs=1e-12)

    def test_amplitude_radius_continuity_smoke(self):
        p = parse_polynomial("x^2*y + y^3")
        big = abs(eval_oscillatory(p, AmplitudeSpec(radius=0.25), 256.0))
        small = abs(eval_oscillatory(p, AmplitudeSpec(radius=0.125), 256.0))
        assert big > 0 and small > 0

    def test_reported_error_within_tolerance(self):
        amp = AmplitudeSpec()
        phi, s = parse_polynomial("x^2 + y^2"), (0.0, 0.0)
        _, err = _value(phi, amp, 1024.0, s, _edges(phi, amp, 1024.0, s))
        assert err < 1e-3

    def test_feasibility_guard(self):
        # the node budget is the one upper limit on lambda; below it only a
        # lambda that is not positive is refused
        amp, phi = AmplitudeSpec(), parse_polynomial("x^2 + y^2")
        with pytest.raises(BudgetExceeded, match=r"needs 1\.99e\+08 coarse quadrature nodes"):
            eval_oscillatory(phi, amp, float(1 << 18))
        with pytest.raises(BudgetExceeded, match="budget"):
            randol_lq_scan(
                parse_polynomial("(y - x^2)^2"), amp, 2, q_list=(2.0,), lambda_grid=[64.0, float(1 << 18)]
            )
        with pytest.raises(BudgetExceeded, match="needs inf coarse quadrature nodes"):
            eval_oscillatory(phi, amp, math.inf)
        with pytest.raises(ValueError, match="lambda must be positive, got nan"):
            eval_oscillatory(phi, amp, math.nan)

    def test_a_lambda_above_2_15_runs_when_the_budget_affords_it(self):
        # x = R u gives I(lambda; R) = R^2 I(lambda R^2; 1) for a quadratic phase
        phi, s, r, lam = parse_polynomial("x^2 + y^2"), (0.0, 0.0), 0.01, float(1 << 20)
        small, unit = AmplitudeSpec(radius=r), AmplitudeSpec(radius=1.0)
        value, err = _value(phi, small, lam, s, _edges(phi, small, lam, s))
        ref, ref_err = _value(phi, unit, lam * r * r, s, _edges(phi, unit, lam * r * r, s))
        assert value == eval_oscillatory(phi, small, lam)
        assert abs(value - r * r * ref) <= err * abs(value) + ref_err * abs(r * r * ref)

    @staticmethod
    def _simpson(f, a, b, n=200001):
        """Composite Simpson rule for f on [a, b] with n (odd) nodes."""
        t = np.linspace(a, b, n)
        w = np.full(n, 2.0)
        w[1:-1:2] = 4.0
        w[0] = w[-1] = 1.0
        return np.sum(w * f(t)) * (b - a) / (3.0 * (n - 1))

    @pytest.mark.parametrize("lam", [512.0, 2048.0])
    def test_quadratic_phase_matches_radial_oracle(self, lam):
        # with t = x^2 + y^2 the disc integral is pi times a 1-D integral over [0, R^2]
        amp = AmplitudeSpec(radius=0.25, order=8)
        r2 = amp.radius**2
        value = eval_oscillatory(parse_polynomial("x^2 + y^2"), amp, lam)
        expect = math.pi * self._simpson(lambda t: (1.0 - t / r2) ** amp.order * np.exp(1j * lam * t), 0.0, r2)
        assert abs(value - expect) <= 1e-9 * abs(expect)

    @pytest.mark.parametrize("lam", [512.0, 2048.0])
    def test_cubic_phase_matches_radial_oracle(self, lam):
        # the bump's integral over each chord x = const is
        # c_n R (1 - x^2/R^2)^(n + 1/2) with c_n = sqrt(pi) n! / Gamma(n + 3/2)
        amp = AmplitudeSpec(radius=0.25, order=8)
        r, n = amp.radius, amp.order
        c_n = math.sqrt(math.pi) * math.gamma(n + 1) / math.gamma(n + 1.5)
        value = eval_oscillatory(parse_polynomial("x^3"), amp, lam)
        chord = lambda x: np.clip(1.0 - (x / r) ** 2, 0.0, None) ** (n + 0.5) * np.exp(1j * lam * x**3)
        expect = c_n * r * self._simpson(chord, -r, r)
        assert abs(value - expect) <= 1e-9 * abs(expect)


# The decay_fit phases with their acceptance amplitudes, and the criterion-6 scan phase.
SIZING_CASES = [
    ("x^2 + y^2", AmplitudeSpec(radius=0.4, order=2), (0.0, 0.0)),
    ("x^2*y + y^3", AmplitudeSpec(radius=0.6, order=2), (0.0, 0.0)),
    ("(y - x^2)^2 + x^5", AmplitudeSpec(radius=0.4, order=2), (0.0, 0.0)),
    ("x*y^2 + x^5", AmplitudeSpec(radius=0.6, order=2), (0.0, 0.0)),
    ("(y - x^2)^2", AmplitudeSpec(), (0.25, 0.25)),
    # a linear term: the partial's constant counts toward the cycles
    ("1/8*x + x^2 + y^2", AmplitudeSpec(radius=0.4, order=2), (0.0, 0.0)),
]
SIZING_IDS = [text for text, _, _ in SIZING_CASES]
# the sizing phases, and phases with a large coefficient, a dense expansion
# or one high mixed monomial
ROUNDING_CASES = SIZING_CASES + [
    ("1000000*x^2 + y^2", AmplitudeSpec(radius=0.4, order=2), (0.0, 0.0)),
    ("(x + y)^20 + x^2", AmplitudeSpec(radius=1.0, order=2), (0.0, 0.0)),
    ("x^11*y^12", AmplitudeSpec(radius=0.4, order=2), (0.0, 0.0)),
]


def _largest_admitted_lambda(phi, amp, s_max):
    """The largest lambda whose grid fits the node budget, bisected in log lambda."""

    def fits(lam):
        try:
            _edges(phi, amp, lam, s_max)
        except BudgetExceeded:
            return False
        return True

    lo, hi = 1.0, 2.0
    assert fits(lo)
    while fits(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(40):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


class TestPanelSizing:
    @pytest.mark.parametrize("text,amp,s_max", SIZING_CASES, ids=SIZING_IDS)
    @pytest.mark.parametrize("lam", [64.0, 4096.0, 16384.0])
    def test_edges_respect_cycle_and_width_budgets(self, text, amp, s_max, lam):
        phi = parse_polynomial(text)
        r = amp.radius
        u, bounds = _strip_bounds(phi, amp, s_max)
        for axis, edges in enumerate(_edges(phi, amp, lam, s_max)):
            assert edges[0] == -r and edges[-1] == r
            assert np.all(np.diff(edges) > 0)
            cycles = lam * bounds[axis] * np.diff(u) / (2 * math.pi)
            cum = np.concatenate(([0.0], np.cumsum(cycles)))
            panel_cycles = np.diff(np.interp(edges, u, cum))
            assert panel_cycles.max() <= _RULE.cycles * (1 + 1e-9)
            assert np.diff(edges).max() <= 2 * r / _min_panels(amp, _grids(s_max)) * (1 + 1e-9)

    @pytest.mark.parametrize("text,amp,s_max", SIZING_CASES, ids=SIZING_IDS)
    def test_strip_bound_dominates_sampled_gradient(self, text, amp, s_max):
        # the monomialwise strip bound must cover |d phi / d axis| + |s| on the support
        phi = parse_polynomial(text)
        r = amp.radius
        u, bounds = _strip_bounds(phi, amp, s_max)
        for axis, bound in enumerate(bounds):
            grad = phi.partial(axis)
            t = np.linspace(0.0, 1.0, 5)
            along = (u[:-1, None] + np.diff(u)[:, None] * t[None, :]).ravel()
            across = np.linspace(-r, r, 65)
            pts = (along[:, None], across[None, :]) if axis == 0 else (across[None, :], along[:, None])
            vals = np.zeros((along.size, across.size))
            for (a, b), c in grad.terms.items():
                vals += float(c) * pts[0] ** a * pts[1] ** b
            inside = pts[0] ** 2 + pts[1] ** 2 <= r * r
            sampled = np.where(inside, np.abs(vals), 0.0).max(axis=1).reshape(-1, t.size).max(axis=1)
            assert np.all(bound >= (sampled + abs(s_max[axis])) * (1 - 1e-12))

    @pytest.mark.parametrize("text,amp,s_max", SIZING_CASES, ids=SIZING_IDS)
    @pytest.mark.parametrize("lam", [64.0, 4096.0, 16384.0])
    def test_edges_mirror_exactly(self, text, amp, s_max, lam):
        # _fold pairs u with -u only where the nodes mirror exactly
        phi = parse_polynomial(text)
        for offsets in ((0.0, 0.0), (DEFAULT_SCAN_HALF_WIDTH, DEFAULT_SCAN_HALF_WIDTH)):
            for edges in _edges(phi, amp, lam, offsets):
                assert np.array_equal(edges, -edges[::-1])

    def test_mirrored_edges_give_mirrored_nodes_and_equal_weights(self):
        coarse = _edges(parse_polynomial("x^2*y + y^3"), AmplitudeSpec(radius=0.6, order=2), 4096.0, (0.0, 0.0))[1]
        # the last: an odd panel count, whose middle panel straddles 0
        for edges in (coarse, np.array([-0.4, -0.1, 0.1, 0.4])):
            for order in ORDERS:
                nodes, weights = _gauss_axis(edges, order)
                assert nodes.size == order * (edges.size - 1)
                assert np.array_equal(nodes, -nodes[::-1])
                assert np.array_equal(weights, weights[::-1])

    def test_coarse_node_total_at_4096(self):
        # the four decay_fit phases; a single global gradient bound needed 25,532,500
        total = 0
        for text, amp, s_max in SIZING_CASES[:4]:
            ex, ey = _edges(parse_polynomial(text), amp, 4096.0, s_max)
            total += _RULE.check * (ex.size - 1) * _RULE.check * (ey.size - 1)
        assert total <= 25_532_500 // 4

    def test_width_cap_follows_the_bump_and_the_offsets(self, monkeypatch):
        # the cap is 2R/6 for a decay value at any order and for an order-2
        # scan, and 2R/3 for an order-8 scan.  An axis costs n plus its
        # cycles / 7.5 (_axis_cost), so at lambda = 64 it takes n + 1 panels
        built, panels_for = [], oscint._panels_for
        monkeypatch.setattr(oscint, "_panels_for", lambda *args: built.append(panels_for(*args)) or built[-1])
        eval_oscillatory(parse_polynomial("x^2*y + y^3"), AmplitudeSpec(), 64.0)
        for order in (2, 8):
            randol_lq_scan(
                parse_polynomial("(y - x^2)^2"), AmplitudeSpec(order=order), 2, q_list=(2.0,), cells=2,
                lambda_grid=[64.0],
            )
        assert [[e.size - 1 for e in edges] for edges in built] == [[7, 7], [7, 7], [4, 4]]

    @pytest.mark.parametrize("text,amp,s_max", SIZING_CASES, ids=SIZING_IDS)
    def test_acceptance_phases_fit_the_node_budget(self, text, amp, s_max):
        # every sizing phase fits the budget through lambda = 2^15, and the
        # budget, not a lambda cap, refuses each at 2^18
        ex, ey = _edges(parse_polynomial(text), amp, 2.0**15, s_max)
        assert _RULE.check**2 * (ex.size - 1) * (ey.size - 1) <= MAX_COARSE_NODES
        with pytest.raises(BudgetExceeded, match="coarse quadrature nodes"):
            _edges(parse_polynomial(text), amp, 2.0**18, s_max)

    @pytest.mark.parametrize("text,amp,s_max", ROUNDING_CASES, ids=[text for text, _, _ in ROUNDING_CASES])
    def test_node_budget_bounds_the_phase_rounding(self, text, amp, s_max):
        # the bound of the MAX_COARSE_NODES comment at the largest lambda the
        # budget admits: lambda * A <= 2 pi * cycles * (panels on both axes),
        # with A = sum |c_ab| |x|^a |y|^b + |s1 x| + |s2 y| largest on the circle
        phi = parse_polynomial(text)
        lam = _largest_admitted_lambda(phi, amp, s_max)
        ex, ey = _edges(phi, amp, lam, s_max)
        t = np.linspace(0.0, 2.0 * np.pi, 4097)
        x, y = np.abs(amp.radius * np.cos(t)), np.abs(amp.radius * np.sin(t))
        size = abs(s_max[0]) * x + abs(s_max[1]) * y
        for (a, b), c in phi.terms.items():
            if a + b:
                size = size + abs(float(c)) * x**a * y**b
        theta_max = lam * float(size.max())
        assert theta_max <= 2.0 * math.pi * _RULE.cycles * (ex.size - 1 + ey.size - 1)
        most_panels = MAX_COARSE_NODES / (_RULE.check**2 * 3) + 3
        assert theta_max <= 2.0 * math.pi * _RULE.cycles * most_panels < 3.93e6


def _dense_reference(phi, amp, lam, grids, edges, order):
    """Every tensor node summed at once, with the bump written out independently."""
    x, wx = _gauss_axis(edges[0], order)
    y, wy = _gauss_axis(edges[1], order)
    X, Y = np.meshgrid(x, y, indexing="ij")
    phase = np.zeros_like(X)
    for (a, b), c in phi.terms.items():
        phase += float(c) * X**a * Y**b
    bump = np.clip(1.0 - (X**2 + Y**2) / amp.radius**2, 0.0, None) ** amp.order
    f = wx[:, None] * wy[None, :] * bump * np.exp(1j * lam * phase)
    return [np.exp(1j * lam * np.outer(s1, x)) @ f @ np.exp(1j * lam * np.outer(y, s2)) for s1, s2 in grids]


def _finer_reference(phi, amp, lam, grids, edges):
    """The first grid's matrix under order 20 on ``edges`` bisected twice,
    summed densely a few x panels at a time."""
    ex, ey = (_bisected(_bisected(e)) for e in edges)
    return sum(
        _dense_reference(phi, amp, lam, grids[:1], (ex[i : i + 17], ey), 20)[0]
        for i in range(0, ex.size - 1, 16)
    )


def _bisected(edges):
    """Every panel split at its midpoint."""
    out = np.empty(2 * edges.size - 1)
    out[0::2] = edges
    out[1::2] = (edges[1:] + edges[:-1]) / 2.0
    return out


def _one(s1, s2):
    return [(np.array([s1]), np.array([s2]))]


def _mirrored(edges):
    return (edges - edges[::-1]) / 2.0


_SCAN_GRIDS = [(cell_centered_grid(0.25, 8),) * 2, (cell_centered_grid(0.25, 16),) * 2]
# one offset axis not mirrored in each grid, so each axis takes the full path once
_UNMIRRORED_GRIDS = [
    (np.linspace(-0.2, 0.25, 7), cell_centered_grid(0.25, 8)),
    (cell_centered_grid(0.25, 8), np.linspace(-0.25, 0.1, 5)),
]
# (phase, amplitude, lambda, offset grids, edges or None for _panels_for's).
# The parities are those of the mixed terms.  The first five phases fold even
# in x and odd in y; even in x and odd in y with x^4 and y^2 moved to the 1-D
# factors; even in both with no theta; odd in x and even in y; and even in x
# and odd in y with x^4, x^5 and y^2 moved out.
SWEEP_CASES = [
    ("x^2*y + y^3", AmplitudeSpec(radius=0.6, order=2), 256.0, _one(0.03, -0.02), None),
    ("(y - x^2)^2", AmplitudeSpec(), 256.0, _SCAN_GRIDS, None),
    # odd panel counts: the middle panel straddles x = 0 and y = 0, so a
    # folded axis starts with half a panel
    ("x^2 + y^2", AmplitudeSpec(radius=0.4, order=2), 64.0, _one(0.0, 0.0),
     (_mirrored(np.linspace(-0.4, 0.4, 8)), _mirrored(np.linspace(-0.4, 0.4, 6)))),
    ("x*y^2 + x^5", AmplitudeSpec(radius=0.6, order=2), 128.0, _SCAN_GRIDS,
     (_mirrored(np.linspace(-0.6, 0.6, 10)), _mirrored(np.linspace(-0.6, 0.6, 12)))),
    ("(y - x^2)^2 + x^5", AmplitudeSpec(radius=0.4, order=2), 256.0, _one(0.02, 0.01), None),
    # the CLI's order-8 bump, an order that is not a power of two, a
    # constant term and a linear term
    ("x^2*y + y^3", AmplitudeSpec(radius=0.25, order=8), 256.0, _one(0.03, -0.02), None),
    ("x*y^2 + x^5", AmplitudeSpec(radius=0.3, order=6), 256.0, _one(0.01, 0.02), None),
    ("7/3 + x^2 - 2*y^2", AmplitudeSpec(radius=0.4, order=2), 256.0, _one(0.01, 0.0), None),
    ("1/8*x + x^2 + y^2", AmplitudeSpec(radius=0.4, order=2), 256.0, _one(0.01, 0.02), None),
    # odd in x and of no parity in y, so y is swept whole and its offsets >= 0
    # stand for their mirrors by conjugation; odd in both
    ("x*(y - x^2)^2", AmplitudeSpec(), 256.0, _SCAN_GRIDS, None),
    ("x^3*y + x*y^3", AmplitudeSpec(radius=0.4, order=2), 256.0, _SCAN_GRIDS, None),
    # the reflected scan phase; even in x and odd in y, with x^4 moved out and
    # y^3 kept in theta; no theta on offset grids; and the scan phase on
    # offsets that do not mirror
    ("(y + x^2)^2", AmplitudeSpec(), 256.0, _SCAN_GRIDS, None),
    ("x^4 + x^2*y + y^3", AmplitudeSpec(radius=0.4, order=2), 256.0, _SCAN_GRIDS, None),
    ("x^2 + y^2", AmplitudeSpec(radius=0.4, order=2), 256.0, _SCAN_GRIDS, None),
    ("(y - x^2)^2", AmplitudeSpec(), 256.0, _UNMIRRORED_GRIDS, None),
    # the bump alone, with an odd pure term on each axis; odd in both, with
    # y^3 moved out; and x^6 moved out, so that y folds odd
    ("y^3 + x^5", AmplitudeSpec(radius=0.4, order=2), 256.0, _one(0.03, -0.02), None),
    ("y^3 + y*x^3", AmplitudeSpec(radius=0.4, order=2), 256.0, _SCAN_GRIDS, None),
    ("y^3 + x^4*y + x^6", AmplitudeSpec(radius=0.4, order=2), 256.0, _SCAN_GRIDS, None),
]
SWEEP_IDS = [
    "radial", "scan-grids", "odd-panels", "odd-panels-scan-grids", "no-parity",
    "radial-order-8", "radial-order-6", "constant-term", "linear-term", "odd-x-scan-grids", "odd-both",
    "reflected-scan-grids", "even-x-scan-grids", "radial-scan-grids", "unmirrored-offsets",
    "bump-only", "odd-both-moved-out", "moved-out-folds-y",
]


def _case_edges(case):
    text, amp, lam, grids, edges = case
    if edges is None:
        s_max = (max(abs(g[0]).max() for g in grids), max(abs(g[1]).max() for g in grids))
        edges = _edges(parse_polynomial(text), amp, lam, s_max, grids)
    return edges


class TestBlockedSweep:
    @pytest.mark.parametrize("case", SWEEP_CASES, ids=SWEEP_IDS)
    def test_matches_dense_reference(self, case):
        # the value order on the panels an entry point builds for these offsets
        text, amp, lam, grids, _ = case
        phi = parse_polynomial(text)
        edges = _case_edges(case)
        if edges[0].size % 2 == 0:
            assert np.any((edges[0][:-1] < 0) & (edges[0][1:] > 0))
        got = _sweep(phi, amp, lam, grids, edges, _RULE.order)
        want = _dense_reference(phi, amp, lam, grids, edges, _RULE.order)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())

    @pytest.mark.parametrize("case", SWEEP_CASES, ids=SWEEP_IDS)
    def test_skipped_nodes_lie_outside_the_disc(self, monkeypatch, case):
        # the blocks the sweeps of both orders really build,
        # folded and sized as _osc_grids sizes them
        text, amp, lam, grids, _ = case
        blocks = []
        disc_columns = oscint._disc_columns

        def spy(amp, xc, y):
            lo, hi = disc_columns(amp, xc, y)
            blocks.append((xc.copy(), np.concatenate((y[:lo], y[hi:]))))
            return lo, hi

        monkeypatch.setattr(oscint, "_disc_columns", spy)
        r2 = amp.radius * amp.radius
        edges = _case_edges(case)
        for order in ORDERS:
            blocks.clear()
            _sweep(parse_polynomial(text), amp, lam, grids, edges, order)
            assert blocks
            for xc, skipped in blocks:
                assert np.all(xc[:, None] ** 2 + skipped[None, :] ** 2 >= amp.radius**2)
                # the sweep's own bump, from its tables, is exactly zero there too
                shape = (xc.size, skipped.size)
                bump = _radial_bump(1.0 - xc * xc / r2, skipped * skipped / r2, amp.order, np.empty(shape), np.empty(shape))
                assert np.all(bump == 0.0)
        # blocks of _BLOCK_ROWS rows of the unfolded value grid: the disc
        # is pi/4 of the square, and the clipped blocks keep little more
        x, _ = _gauss_axis(edges[0], _RULE.order)
        y, _ = _gauss_axis(edges[1], _RULE.order)
        kept = 0
        for row in range(0, x.size, _BLOCK_ROWS):
            xc = x[row : row + _BLOCK_ROWS]
            lo, hi = _disc_columns(amp, xc, y)
            kept += xc.size * (hi - lo)
        assert kept < 0.9 * x.size * y.size

    def test_unmirrored_edges_sweep_the_full_axis(self):
        phi = parse_polynomial("x^2 + y^2")
        amp = AmplitudeSpec(radius=0.4, order=2)
        edges = (np.array([-0.4, 0.1, 0.4]), np.array([-0.4, 0.1, 0.4]))
        got = _sweep(phi, amp, 64.0, _one(0.01, 0.0), edges, 10)[0]
        want = _dense_reference(phi, amp, 64.0, _one(0.01, 0.0), edges, 10)[0]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize(
        "text,edges,factor",
        [
            ("x^2 + y^2", None, 4),
            ("x^2*y + y^3", None, 4),
            ("x*y^2 + x^5", None, 4),
            ("(y - x^2)^2", None, 4),
            ("(y - x^2)^2 + x^5", None, 4),
            ("x^2 + y^2", (np.array([-0.4, 0.1, 0.4]),) * 2, 1),
            ("x*(y - x^2)^2", None, 2),
            ("x*y", None, 4),
            ("1/3 + x^2*y + y^3", None, 4),
            ("y^3 + x^5", None, 4),
            ("y^3 + y*x^3", None, 4),
            ("y^3 + x^4*y + x^6", None, 4),
            ("x^2*y + x*y^2", None, 1),
        ],
        ids=[
            "even-both", "even-x", "even-y", "scan-phase", "pure-terms-moved-out", "unmirrored", "odd-x", "odd-both",
            "odd-y-constant", "bump-only", "odd-both-moved-out", "moved-out-folds-y", "no-parity",
        ],
    )
    def test_fold_divides_the_evaluated_nodes(self, monkeypatch, text, edges, factor):
        # with the disc clipping off every node is evaluated and counted,
        # through the bump each block takes once; the sweeps of all four
        # orders fold.  The parities are those of the mixed terms: x^2*y + y^3
        # folds in x (even) and y (odd), and so do the scan phase and
        # (y - x^2)^2 + x^5 once their pure terms move out; x*y and
        # y^3 + y*x^3 fold odd in both; x*(y - x^2)^2 has no parity in y; a
        # constant term leaves the parities alone.  With no mixed term the
        # sweep evaluates no phase at all.
        phi = parse_polynomial(text)
        amp = AmplitudeSpec(radius=0.4, order=2)
        edges = edges or _edges(phi, amp, 256.0, (0.0, 0.0))
        evaluated, phases = [], []
        radial_bump, phase_rows = oscint._radial_bump, oscint._phase_rows

        def spy(ux, vy, order, out, scratch):
            evaluated.append(out.size)
            return radial_bump(ux, vy, order, out, scratch)

        monkeypatch.setattr(oscint, "_radial_bump", spy)
        monkeypatch.setattr(oscint, "_phase_rows", lambda *args: phases.append(args[-1].size) or phase_rows(*args))
        monkeypatch.setattr(oscint, "_disc_columns", lambda amp, xc, y: (0, y.size))
        mixed = any(a and b for a, b in phi.terms)
        for order in ORDERS:
            evaluated.clear()
            phases.clear()
            _sweep(phi, amp, 256.0, _one(0.0, 0.0), edges, order)
            assert factor * sum(evaluated) == order**2 * (edges[0].size - 1) * (edges[1].size - 1)
            assert phases == (evaluated if mixed else [])

    def test_scan_contracts_the_offsets_half(self, monkeypatch):
        # the scan phase folds even in x and odd in y, with x^4 and y^2 moved
        # to the 1-D factors.  y^2 is even, so P is even in s2 and Q odd, and
        # only the offsets s2 > 0 are contracted: 16 + 32 of the 32 + 64 rows,
        # and 16 in the check sweep.  Both axes are swept on their nodes > 0.
        calls = []
        axis_factors = oscint._axis_factors

        def spy(lam, s, u, w, pure, fold):
            f_c, f_s = axis_factors(lam, s, u, w, pure, fold)
            calls.append((s, u, pure, fold, f_c.shape, f_s is f_c))
            return f_c, f_s

        monkeypatch.setattr(oscint, "_axis_factors", spy)
        randol_lq_scan(parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, q_list=(2.0,), lambda_grid=[256.0])
        inner = [c for c in calls if c[3] == "odd"]
        outer = [c for c in calls if c[3] == "even"]
        assert len(inner) + len(outer) == len(calls) == 6
        assert [s.size for s, *_ in inner] == [16, 32, 16] and all(s.min() > 0 for s, *_ in inner)
        assert [s.size for s, *_ in outer] == [32, 64, 32]
        assert all(u.min() > 0 and shape == (s.size, u.size) for s, u, _, _, shape, _ in calls)
        assert all(pure == [(2, 1.0)] and not same for _, _, pure, _, _, same in inner)
        assert all(pure == [(4, 1.0)] and same for _, _, pure, _, _, same in outer)

    def test_offsets_evaluate_half_a_mirrored_grid(self, monkeypatch):
        # the row of -s is the conjugate of the row of s, bit for bit
        s = cell_centered_grid(0.3, 16)
        u, _ = _gauss_axis(_mirrored(np.linspace(-0.25, 0.25, 5)), 10)
        rows = []
        sincos = oscint._sincos
        monkeypatch.setattr(oscint, "_sincos", lambda theta, *rest: rows.append(theta.shape[0]) or sincos(theta, *rest))
        cos_out, sin_out = np.empty((16, u.size)), np.empty((16, u.size))
        oscint._offsets(256.0, s, u, cos_out, sin_out)
        assert rows == [8]
        for i in range(16):
            row_cos, row_sin = np.empty((1, u.size)), np.empty((1, u.size))
            oscint._offsets(256.0, s[i : i + 1], u, row_cos, row_sin)
            np.testing.assert_array_equal(cos_out[i], row_cos[0])
            np.testing.assert_array_equal(sin_out[i], row_sin[0])

    def test_decay_fit_exponents_unchanged(self):
        # gamma_hat of the four decay_fit phases from the order-24 values on
        # 7.5-cycle panels, and from order-10 values on bisected 2.5-cycle
        # panels, a rule the decay values once checked against
        pinned = {
            "x^2 + y^2": (0.4, 0.9983378146824767, 0.998337835540191),
            "x^2*y + y^3": (0.6, 0.6346265576456462, 0.6346265381778426),
            "(y - x^2)^2 + x^5": (0.4, 0.5751759727794229, 0.5751759804072993),
            "x*y^2 + x^5": (0.6, 0.5629578487062803, 0.5629578493447316),
        }
        for text, (radius, gamma, bisected_gamma) in pinned.items():
            fit = fit_decay(parse_polynomial(text), AmplitudeSpec(radius=radius, order=2), dyadic_grid(64, 4096))
            assert fit.skipped == ()
            assert fit.gamma_hat == pytest.approx(gamma, abs=1e-12)
            assert fit.gamma_hat == pytest.approx(bisected_gamma, abs=1e-6)


@st.composite
def _parity_phases(draw):
    """Small random polynomials whose mixed part (the terms in both variables)
    is even, odd or of no parity in each of x and y, or absent, plus pure
    terms in x and in y of any exponents, and some with a constant term."""
    # per axis: the parity every exponent of a mixed term is forced to, or None
    px, py = draw(st.sampled_from([None, 0, 1])), draw(st.sampled_from([None, 0, 1]))
    coeff = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(1, 4))
        b = draw(st.integers(1, 5 - a))
        a += 0 if px is None else (px - a) % 2
        b += 0 if py is None else (py - b) % 2
        terms[(a, b)] = draw(coeff)
    for axis in (0, 1):
        for _ in range(draw(st.integers(0, 2))):
            e = draw(st.integers(1, 6))
            terms[(e, 0) if axis == 0 else (0, e)] = draw(coeff)
    if not terms or draw(st.booleans()):
        terms[(0, 0)] = draw(coeff)
    return BivariatePolynomial(terms)


@settings(max_examples=60, deadline=None)
@given(
    phi=_parity_phases(),
    lam=st.sampled_from([64.0, 256.0]),
    s=st.tuples(st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
)
def test_folded_sweep_equals_unfolded(phi, lam, s):
    amp = AmplitudeSpec(radius=0.25, order=2)
    edges = (_mirrored(np.linspace(-0.25, 0.25, 6)), _mirrored(np.linspace(-0.25, 0.25, 5)))
    grids = _one(*s) + _SCAN_GRIDS[:1]
    folded = _sweep(phi, amp, lam, grids, edges, 10)
    with mock.patch.object(oscint, "_fold", lambda nodes, weights, parity: (nodes, weights)):
        unfolded = _sweep(phi, amp, lam, grids, edges, 10)
    # Folding reorders the sum, which moves it by rounding on the scale of the
    # sum of |terms|, the bump's mass, not of the value: some draws cancel to
    # 1e-7 of the mass.
    for f, u in zip(folded, unfolded):
        np.testing.assert_allclose(f, u, rtol=1e-12, atol=1e-12 * amplitude_mass(amp))


def _machin_pi(digits: int = 60) -> Fraction:
    """pi within 10^-digits from Machin's formula in integer arithmetic."""
    scale = 10 ** (digits + 10)

    def arctan_inv(n):
        total, power, k = 0, scale // n, 0
        while power:
            total += (-1) ** k * (power // (2 * k + 1))
            power //= n * n
            k += 1
        return total

    return Fraction(16 * arctan_inv(5) - 4 * arctan_inv(239), scale)


_STEP = 2 * math.pi / 1024
_KS = st.integers(-(2**27), 2**27)
_THETAS = st.one_of(
    st.floats(-SINCOS_RANGE, SINCOS_RANGE),
    st.sampled_from([0.0, -0.0]),
    _KS.map(lambda k: k * _STEP),
    _KS.map(lambda k: (k + 0.5) * _STEP),
    # theta * 1024 / (2 pi) lands on k + 1/2 exactly for many k: ties of rint
    _KS.map(lambda k: (k + 0.5) / oscint._STEPS_PER_RADIAN),
)


def _run_sincos(theta, bound=None):
    # the table kernel at any size: below _TABLE_MIN_SIZE _sincos runs libm
    cos_out, sin_out = np.empty_like(theta), np.empty_like(theta)
    bound = float(np.abs(theta).max()) if bound is None else bound
    with mock.patch.object(oscint, "_TABLE_MIN_SIZE", 0):
        _sincos(theta.copy(), cos_out, sin_out, [np.empty_like(theta) for _ in range(3)], bound)
    return cos_out, sin_out


class TestTrigKernel:
    def test_step_parts_sum_to_the_step(self):
        parts = (oscint._STEP1, oscint._STEP2, oscint._STEP3)
        assert abs(sum(Fraction(p) for p in parts) - 2 * _machin_pi() / 1024) < Fraction(1, 10**30)
        # k * c1 and k * c2 are exact for |k| < 2^29: 24 significant bits each
        for part in parts[:2]:
            mant, _ = math.frexp(part)
            assert math.ldexp(mant, 24).is_integer()

    def test_table_entries_are_within_an_ulp(self):
        # the first octant, which the rest mirrors, against Taylor series in
        # 50-digit decimals; without the rounding correction j = 41 is 1.29 ulp off
        cos_t, sin_t = oscint._trig_table()
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            pi = _machin_pi()
            pi = Decimal(pi.numerator) / Decimal(pi.denominator)
            for j in range(129):
                x = 2 * pi * j / 1024
                term, exact = Decimal(1), [Decimal(0), Decimal(0)]
                for n in range(40):
                    exact[n % 2] += term if n % 4 < 2 else -term
                    term = term * x / (n + 1)
                for got, want in zip((cos_t[j], sin_t[j]), exact):
                    assert abs(Decimal(float(got)) - want) <= Decimal(float(np.spacing(abs(float(want)))))

    @settings(max_examples=200, deadline=None)
    @given(thetas=st.lists(_THETAS, min_size=1, max_size=64))
    def test_matches_libm_in_the_exact_range(self, thetas):
        theta = np.array(thetas)
        cos_t, sin_t = _run_sincos(theta)
        tol = np.spacing(np.abs(theta)) + 4e-16
        assert np.all(np.abs(cos_t - np.cos(theta)) <= tol)
        assert np.all(np.abs(sin_t - np.sin(theta)) <= tol)
        # the table mirrors exactly, so -theta gives the same floats
        cos_m, sin_m = _run_sincos(-theta)
        assert np.array_equal(cos_m, cos_t) and np.array_equal(sin_m, -sin_t)

    def test_rint_ties_occur_and_agree(self):
        theta = (np.arange(-500, 500) + 0.5) / oscint._STEPS_PER_RADIAN
        ties = theta[theta * oscint._STEPS_PER_RADIAN % 1.0 == 0.5]
        assert ties.size > 100
        cos_t, sin_t = _run_sincos(ties)
        np.testing.assert_allclose(cos_t, np.cos(ties), rtol=0, atol=5e-16)
        np.testing.assert_allclose(sin_t, np.sin(ties), rtol=0, atol=5e-16)

    def test_beyond_the_range_is_libm_exactly(self):
        big = np.concatenate((np.geomspace(SINCOS_RANGE * 1.001, 1e15, 40), -np.geomspace(SINCOS_RANGE * 1.001, 1e300, 40)))
        cos_t, sin_t = _run_sincos(big)
        assert np.array_equal(cos_t, np.cos(big)) and np.array_equal(sin_t, np.sin(big))
        # so does a bound that is not finite, whatever the values
        small = np.linspace(-3.0, 3.0, 41)
        for bound in (math.inf, math.nan):
            cos_t, sin_t = _run_sincos(small, bound)
            assert np.array_equal(cos_t, np.cos(small)) and np.array_equal(sin_t, np.sin(small))

    def test_below_the_table_size_is_libm_exactly(self, monkeypatch):
        # the table kernel runs from _TABLE_MIN_SIZE entries on, libm below
        tables = []
        trig_table = oscint._trig_table
        monkeypatch.setattr(oscint, "_trig_table", lambda: tables.append(1) or trig_table())
        for size, table in ((oscint._TABLE_MIN_SIZE - 1, False), (oscint._TABLE_MIN_SIZE, True)):
            theta = np.linspace(-40.0, 40.0, size)
            cos_out, sin_out = np.empty_like(theta), np.empty_like(theta)
            tables.clear()
            _sincos(theta.copy(), cos_out, sin_out, [np.empty_like(theta) for _ in range(3)], None)
            assert bool(tables) == table
            if not table:
                assert np.array_equal(cos_out, np.cos(theta)) and np.array_equal(sin_out, np.sin(theta))

    def test_sweep_through_the_fallback_matches_dense_reference(self, monkeypatch):
        monkeypatch.setattr(oscint, "SINCOS_RANGE", 0.0)
        case = SWEEP_CASES[SWEEP_IDS.index("scan-grids")]
        text, amp, lam, grids, _ = case
        got = _sweep(parse_polynomial(text), amp, lam, grids, _case_edges(case), 10)
        want = _dense_reference(parse_polynomial(text), amp, lam, grids, _case_edges(case), 10)
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12 * np.abs(w).max())

    @pytest.mark.parametrize("const", ["1000000", "1000000/3", "-10^100", "10^400 + 1/7"])
    def test_a_constant_term_is_an_exact_global_phase(self, const):
        # beyond about 10^57 the reduction needs more than the 75-digit pi
        amp = AmplitudeSpec()
        pi = _machin_pi(450)
        c = parse_polynomial(const).terms[(0, 0)]
        for lam in (64.0, 256.0, 1024.0):
            shifted = eval_oscillatory(parse_polynomial(f"{const} + x^2 + y^2"), amp, lam)
            plain = eval_oscillatory(parse_polynomial("x^2 + y^2"), amp, lam)
            assert abs(shifted) == pytest.approx(abs(plain), rel=1e-12)
            turn = Fraction(lam) * c % (2 * pi)
            assert shifted == pytest.approx(plain * complex(math.cos(turn), math.sin(turn)), rel=1e-12)

    @pytest.mark.parametrize("bits", [64, 245, 246, 1400, 1500])
    def test_pi_to_any_precision(self, bits):
        assert abs(oscint._pi_within(bits) - _machin_pi(480)) < Fraction(1, 2**bits)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_power_by_squaring(self, n):
        t = np.linspace(0.0, 1.0, 33)
        got = _power(t.copy(), n, np.empty_like(t))
        np.testing.assert_allclose(got, t**n, rtol=4 * n * 2**-53, atol=0)


class TestNodeBudget:
    @pytest.mark.parametrize("radius,lams", [(4.0, (64.0, 16384.0)), (1e200, (64.0, 256.0))], ids=["radius-4", "radius-1e200"])
    def test_oversized_grids_refused_at_once(self, radius, lams):
        amp = AmplitudeSpec(radius=radius)
        calls = [
            lambda: fit_decay(parse_polynomial("x^2 + y^2"), amp, lams),
            lambda: eval_oscillatory(parse_polynomial("x^2 + y^2"), amp, lams[-1]),
            lambda: randol_lq_scan(parse_polynomial("(y - x^2)^2"), amp, 2, q_list=(2.0,), lambda_grid=lams),
        ]
        for call in calls:
            start = time.perf_counter()
            with pytest.raises(ValueError, match="coarse quadrature nodes"):
                call()
            assert time.perf_counter() - start < 1.0


class TestScanBudget:
    def test_huge_scan_refused_before_anything_is_built(self):
        # --grid 20000 would ask for 40000^2 complex totals (25.6 GB)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="offset points"):
                randol_lq_scan(parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, q_list=(2.0,), cells=20000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_budget_boundary(self):
        # 128 cells refined twice fill the budget exactly; 129 rounds up to 130
        args = (parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2)
        kwargs = dict(q_list=(2.0,), lambda_grid=[64.0], validate=False)
        assert (2 * 128) ** 2 == MAX_SCAN_POINTS
        assert len(randol_lq_scan(*args, cells=128, **kwargs).M_values) == 128**2
        with pytest.raises(BudgetExceeded, match="130 cells"):
            randol_lq_scan(*args, cells=129, **kwargs)

    def test_node_budget_is_the_same_error(self):
        with pytest.raises(BudgetExceeded, match="coarse quadrature nodes"):
            eval_oscillatory(parse_polynomial("x^2 + y^2"), AmplitudeSpec(radius=4.0), 16384.0)


class TestSweepHelpers:
    def test_order_check_above_the_floor(self):
        amp = AmplitudeSpec()
        floor = 1e-9 * amplitude_mass(amp)
        value = np.array([[1.0, 0.5 * floor]])
        # the value below the floor does not count
        assert _order_check(np.array([[1.0 + 5e-4, 0.0]]), value, amp, "I") == pytest.approx(5e-4)
        assert _order_check(np.zeros((1, 2)), np.full((1, 2), 0.5 * floor), amp, "I") == 0.0
        with pytest.raises(QuadratureNotConverged, match=r"order 20 is off order 24 on the scan by 2\.00e-03"):
            _order_check(np.array([[1.0 - 2e-3, 0.0]]), value, amp, "the scan")

    def test_sweep_leaves_no_reference_cycles(self):
        # the cached node powers are freed with the sweep, not by the cyclic collector
        gc.collect()
        gc.disable()
        try:
            eval_oscillatory(parse_polynomial("x^2*y + y^3"), AmplitudeSpec(), 64.0)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOrderCheck:
    @pytest.mark.parametrize("text,amp,s_max", SIZING_CASES[:4], ids=SIZING_IDS[:4])
    @pytest.mark.parametrize("lam", [64.0, 128.0, 256.0, 512.0])
    def test_value_matches_a_finer_reference(self, text, amp, s_max, lam):
        # order 20 on twice-bisected panels, summed densely a few x panels at a time
        phi = parse_polynomial(text)
        edges = _edges(phi, amp, lam, s_max)
        value, err = _value(phi, amp, lam, s_max, edges)
        want = _finer_reference(phi, amp, lam, _one(*s_max), edges)[0, 0]
        assert abs(value - want) <= 1e-6 * abs(want)
        assert err < 1e-3

    @pytest.mark.parametrize("text", ["(y - x^2)^2", "x*(y - x^2)^2"])
    @pytest.mark.parametrize("lam", [64.0, 128.0, 256.0, 512.0, 1024.0])
    def test_scan_matrix_matches_a_finer_reference(self, text, lam):
        # the coarse offset grid of a scan of 8 cells, as randol_lq_scan sweeps
        # it; the order-10 rule of the narrow panels was 5e-6 off at 1024
        phi, amp = parse_polynomial(text), AmplitudeSpec()
        half = DEFAULT_SCAN_HALF_WIDTH
        grids = [(cell_centered_grid(half, 8),) * 2]
        edges = _edges(phi, amp, lam, (half, half))
        got = _sweep(phi, amp, lam, grids, edges, _RULE.order)[0]
        want = _finer_reference(phi, amp, lam, grids, edges)
        big = np.abs(want) > 1e-9 * amplitude_mass(amp)
        assert big.sum() >= 8
        assert np.max(np.abs(got - want)[big] / np.abs(want)[big]) <= 1e-6

    def test_both_rules_stay_cached(self):
        # the rule's orders 24 and 20, which decay values and scans share
        def sweep_both():
            eval_oscillatory(parse_polynomial("x^2 + y^2"), AmplitudeSpec(radius=0.4, order=2), 64.0)
            randol_lq_scan(parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, q_list=(2.0,), cells=8, lambda_grid=[64.0])

        sweep_both()
        misses = oscint._gauss_rule.cache_info().misses
        sweep_both()
        assert oscint._gauss_rule.cache_info().misses == misses
        assert oscint._gauss_rule.cache_info().currsize == len(ORDERS) == 2

    # the bounds are the 2R/6 column of the module docstring's table, rounded
    # up: 4.4e-7 for order 2 and 2.9e-11 for order 4; order 8 is at the
    # rounding level there (2.6e-14), so 1e-13, and x^2 + y^2 at R = 0.6 is
    # 3.4e-13 off at lambda = 4096 (8.4e-8 on 2R/3)
    @pytest.mark.parametrize(
        "text,radius,order,bound",
        [
            ("x^2 + y^2", 0.4, 2, 5e-7),
            ("x^2*y + y^3", 0.6, 2, 5e-7),
            ("(y - x^2)^2 + x^5", 0.4, 2, 5e-7),
            ("x*y^2 + x^5", 0.6, 2, 5e-7),
            ("x*(y - x^2)^2 + x^5", 0.6, 2, 5e-7),
            ("x^2 + y^2", 0.4, 4, 3e-11),
            ("x*y^2 + x^5", 0.6, 4, 3e-11),
            ("x^2 + y^2", 0.4, 8, 1e-13),
            ("x^2*y + y^3", 0.25, 8, 1e-13),
            ("x^2 + y^2", 0.6, 8, 4e-13),
        ],
        ids=[
            "x^2 + y^2-0.4", "x^2*y + y^3-0.6", "(y - x^2)^2 + x^5-0.4", "x*y^2 + x^5-0.6", "x*(y - x^2)^2 + x^5-0.6",
            "x^2 + y^2-0.4-order-4", "x*y^2 + x^5-0.6-order-4", "x^2 + y^2-0.4-order-8", "x^2*y + y^3-0.25-order-8",
            "x^2 + y^2-0.6-order-8",
        ],
    )
    def test_decay_values_match_a_finer_reference(self, monkeypatch, text, radius, order, bound):
        # the decay_fit rows, the rank-zero twin and smoother bumps (one is
        # the CLI's amplitude) against the same orders on panels of at most
        # 2.5 cycles and 2R/12.  The order-2 bump under-reports only at the
        # 1e-8 level (the twin at 1024: 1.5e-8 off, 2.2e-9 reported)
        phi, amp = parse_polynomial(text), AmplitudeSpec(radius=radius, order=order)
        lams = dyadic_grid(64, 4096)
        fit = fit_decay(phi, amp, lams)
        assert fit.skipped == ()
        strips = _strip_bounds(phi, amp, (0.0, 0.0))
        monkeypatch.setattr(oscint, "_RULE", replace(_RULE, cycles=2.5))
        for lam, value, reported in zip(lams, fit.values, fit.quadrature_error_bound):
            want, _ = _value(phi, amp, lam, (0.0, 0.0), _panels_for(strips, amp, lam, 12))
            err = abs(value - want) / abs(want)
            assert err <= bound
            assert err <= 1e-7 or reported >= err / 2

    def test_check_trips_on_underresolved_panels(self, monkeypatch):
        # one node per cycle: 20 cycles on a decay panel, 24 on a scan panel
        monkeypatch.setattr(oscint, "_RULE", replace(_RULE, cycles=20.0))
        with pytest.raises(QuadratureNotConverged, match=r"order 20 is off order 24 on I\(lambda=4096\.0"):
            eval_oscillatory(parse_polynomial("x^2*y + y^3"), AmplitudeSpec(radius=0.6, order=2), 4096.0)
        monkeypatch.setattr(oscint, "_RULE", replace(_RULE, cycles=24.0))
        with pytest.raises(QuadratureNotConverged, match="order 20 is off order 24 on the scan at lambda=1024.0"):
            randol_lq_scan(
                parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, q_list=(2.0,), cells=8,
                lambda_grid=[1024.0], validate=True,
            )

    def test_scan_check_leaves_the_values_alone(self):
        args = (parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2)
        kwargs = dict(q_list=(2.0, 8.0), cells=8, lambda_grid=dyadic_grid(64, 1024))
        checked = randol_lq_scan(*args, validate=True, **kwargs)
        unchecked = randol_lq_scan(*args, validate=False, **kwargs)
        assert checked.M_values == unchecked.M_values
        assert checked.q_report == unchecked.q_report

    def test_scan_check_sweep_is_folded(self, monkeypatch):
        # the scan phase folds even in x and odd in y; both offset grids share
        # the order-24 sweep, and the order-20 check sweeps the coarse grid on
        # the same panels.  With the disc clipping off every node is evaluated
        # and counted.
        phi = parse_polynomial("(y - x^2)^2")
        amp = AmplitudeSpec(radius=0.2, order=2)
        evaluated = []
        phase_rows = oscint._phase_rows

        def spy(terms, xc, ypow, out):
            evaluated.append(out.size)
            return phase_rows(terms, xc, ypow, out)

        monkeypatch.setattr(oscint, "_phase_rows", spy)
        monkeypatch.setattr(oscint, "_disc_columns", lambda amp, xc, y: (0, y.size))
        randol_lq_scan(phi, amp, 2, q_list=(2.0,), cells=8, lambda_grid=[256.0])
        ex, ey = _edges(phi, amp, 256.0, (DEFAULT_SCAN_HALF_WIDTH, DEFAULT_SCAN_HALF_WIDTH))
        assert 4 * sum(evaluated) == (_RULE.order**2 + _RULE.check**2) * (ex.size - 1) * (ey.size - 1)


class TestFixedCosts:
    """Set-up that does not depend on the order is paid once, not per sweep."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"split": 0, "turn": [], "sincos": 0, "blocks": 0, "sweeps": 0}
        split_phase, global_phase, sincos = oscint._split_phase, oscint._global_phase, oscint._sincos
        phase_rows, osc_grids = oscint._phase_rows, oscint._osc_grids

        def count(key, fn, record=lambda args: 1):
            def spy(*args):
                calls[key] = calls[key] + record(args)
                return fn(*args)

            return spy

        monkeypatch.setattr(oscint, "_split_phase", count("split", split_phase))
        monkeypatch.setattr(oscint, "_global_phase", count("turn", global_phase, lambda args: [args[1]]))
        monkeypatch.setattr(oscint, "_sincos", count("sincos", sincos))
        monkeypatch.setattr(oscint, "_phase_rows", count("blocks", phase_rows))
        monkeypatch.setattr(oscint, "_osc_grids", count("sweeps", osc_grids))
        return calls

    def test_decay_fit_splits_once_and_turns_once_per_lambda(self, monkeypatch):
        calls = self._count(monkeypatch)
        lams = dyadic_grid(64, 1024)
        fit_decay(parse_polynomial("2/3 + x^2*y + y^3"), AmplitudeSpec(radius=0.6, order=2), lams)
        assert calls["split"] == 1
        assert calls["turn"] == list(lams)
        assert calls["sweeps"] == 2 * len(lams)

    def test_scan_splits_once_and_turns_once_per_lambda(self, monkeypatch):
        calls = self._count(monkeypatch)
        scan = randol_lq_scan(
            parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, q_list=(2.0,), cells=8, lambda_grid=dyadic_grid(64, 512)
        )
        assert calls["split"] == 1
        assert calls["turn"] == list(scan.lambdas)
        # the value sweep and the check sweep per lambda
        assert calls["sweeps"] == 2 * len(scan.lambdas)

    @pytest.mark.parametrize("text,radius", [("x^2 + y^2", 0.4), ("x^2*y + y^3", 0.6), ("(y - x^2)^2 + x^5", 0.4)])
    def test_a_single_offset_sweep_takes_one_sincos_per_axis(self, monkeypatch, text, radius):
        # every block with a theta takes one _sincos call; outside the blocks
        # a single-offset sweep takes one per axis for its 1-D factors, with
        # or without pure terms moved out (x^2 + y^2 has no theta and no blocks
        # with trig)
        calls = self._count(monkeypatch)
        for lam in (64.0, 1024.0):
            for key in ("sincos", "blocks", "sweeps"):
                calls[key] = 0
            eval_oscillatory(parse_polynomial(text), AmplitudeSpec(radius=radius, order=2), lam, (0.01, -0.02))
            assert calls["sweeps"] == 2
            assert calls["sincos"] - calls["blocks"] == 2 * 2


class TestFitDecay:
    def test_quadratic_phase_short_window(self):
        amp = AmplitudeSpec(radius=0.4, order=2)
        fit = fit_decay(parse_polynomial("x^2 + y^2"), amp, dyadic_grid(256, 4096))
        assert fit.skipped == ()
        assert fit.gamma_hat == pytest.approx(1.0, abs=0.07)
        assert not fit.log_correction
        assert max(fit.quadrature_error_bound) < 1e-3

    def test_phase_coefficient_beyond_the_float_range_refused(self):
        with pytest.raises(ValueError, match="^a phase coefficient is beyond the float range$"):
            fit_decay(parse_polynomial("10^400*x^2 + y^2"), AmplitudeSpec(), dyadic_grid(64, 256))

    def test_stray_critical_point_rejected(self):
        amp = AmplitudeSpec(radius=0.25)
        with pytest.raises(ValueError, match="critical points"):
            fit_decay(parse_polynomial("x^2 + y^2 - 4*x^3"), amp, dyadic_grid(64, 256))

    def test_residual_stable_under_extension(self):
        amp = AmplitudeSpec(radius=0.4, order=2)
        p = parse_polynomial("x^2 + y^2")
        short = fit_decay(p, amp, dyadic_grid(256, 2048))
        longer = fit_decay(p, amp, dyadic_grid(256, 8192))
        assert short.skipped == longer.skipped == ()
        assert longer.residual <= 2 * short.residual + 1e-3

    def test_log_regressor_flag(self):
        amp = AmplitudeSpec(radius=0.4, order=2)
        fit = fit_decay(parse_polynomial("x^2 + y^2"), amp, dyadic_grid(256, 2048), with_log=True)
        assert fit.skipped == ()
        assert fit.log_correction

    @staticmethod
    def _fail_at(monkeypatch, failing):
        lambda_step = oscint._lambda_step

        def flaky(phase, amp, lam, grids, edges, what, validate=True):
            if lam in failing:
                raise QuadratureNotConverged(f"order 10 is off order 14 on {what} by 1.00e+00 (> 0.001)")
            return lambda_step(phase, amp, lam, grids, edges, what, validate)

        monkeypatch.setattr(oscint, "_lambda_step", flaky)

    def test_failed_lambda_is_skipped(self, monkeypatch):
        p, amp, lams = parse_polynomial("x^2 + y^2"), AmplitudeSpec(radius=0.4, order=2), dyadic_grid(64, 512)
        full = fit_decay(p, amp, lams)
        self._fail_at(monkeypatch, {128.0})
        fit = fit_decay(p, amp, lams)
        assert fit.lambdas == (64.0, 256.0, 512.0)
        assert fit.values == tuple(v for lam, v in zip(full.lambdas, full.values) if lam != 128.0)
        assert fit.skipped == ((128.0, "order 10 is off order 14 on I(lambda=128.0, s=(0.0, 0.0)) by 1.00e+00 (> 0.001)"),)

    def test_all_but_two_failed_is_not_converged(self, monkeypatch):
        self._fail_at(monkeypatch, {256.0, 512.0})
        with pytest.raises(QuadratureNotConverged, match="fewer than three lambda points converged"):
            fit_decay(parse_polynomial("x^2 + y^2"), AmplitudeSpec(), dyadic_grid(64, 512))

    def test_unequal_sample_lengths_refused(self):
        lams, values, errors = [64.0, 128.0, 256.0], [1.0, 0.5, 0.25], [1e-8] * 3
        for args in ((lams, values + [0.125], errors), (lams, values, errors[:2])):
            with pytest.raises(ValueError, match="unequal sample lengths"):
                oscint.fit_decay_from_samples(*args)

    def test_two_lambdas_refused_before_any_node(self, monkeypatch):
        built = []
        gauss_axis = oscint._gauss_axis
        monkeypatch.setattr(oscint, "_gauss_axis", lambda *args: built.append(args) or gauss_axis(*args))
        with pytest.raises(ValueError, match="at least three lambda points, got 2"):
            fit_decay(parse_polynomial("x^2 + y^2"), AmplitudeSpec(), [64.0, 128.0])
        assert built == []

    def test_repeated_lambda_counts_once(self, monkeypatch):
        # one lambda swept three times would give a rank-deficient fit (gamma_hat 0.6874)
        planned, built = [], []
        panels_for, gauss_axis = oscint._panels_for, oscint._gauss_axis
        monkeypatch.setattr(oscint, "_panels_for", lambda *args: planned.append(args[2]) or panels_for(*args))
        monkeypatch.setattr(oscint, "_gauss_axis", lambda *args: built.append(args) or gauss_axis(*args))
        p, amp = parse_polynomial("x^2 + y^2"), AmplitudeSpec(radius=0.4, order=2)
        with pytest.raises(ValueError, match="at least three lambda points, got 1 distinct"):
            fit_decay(p, amp, [64.0, 64.0, 64.0])
        assert planned == [64.0] and built == []
        assert fit_decay(p, amp, [128.0, 64.0, 128.0, 256.0]) == fit_decay(p, amp, [64.0, 128.0, 256.0])

    @pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0, -256.0], ids=["inf", "nan", "zero", "negative"])
    def test_samples_need_positive_finite_lambdas(self, lam):
        # an inf lambda would reach LAPACK, which prints a DLASCL error and raises LinAlgError
        with pytest.raises(ValueError, match="lambda samples must be positive and finite"):
            oscint.fit_decay_from_samples([64.0, 128.0, lam], [1.0, 0.5, 0.25], [1e-8] * 3)

    def test_samples_need_distinct_lambdas(self):
        with pytest.raises(ValueError, match="lambda samples must be distinct"):
            oscint.fit_decay_from_samples([64.0, 128.0, 64.0], [1.0, 0.5, 1.0], [1e-8] * 3)

    @pytest.mark.parametrize("value", [complex(math.nan, 0.0), math.inf, complex(0.5, -math.inf)], ids=["nan", "inf", "imag-inf"])
    def test_samples_need_finite_values(self, value):
        # a nan value would give gamma_hat = nan
        with pytest.raises(ValueError, match=r"I\(lambda, s\) samples must be finite"):
            oscint.fit_decay_from_samples([64.0, 128.0, 256.0], [1.0, value, 0.25], [1e-8] * 3)

    def test_samples_need_three_lambdas(self):
        with pytest.raises(ValueError, match="need at least three lambda samples"):
            oscint.fit_decay_from_samples([64.0, 128.0], [1.0, 0.5], [1e-8] * 2)

    def test_zero_sample_is_not_converged(self):
        # log 0 would make the fit -inf; a zero |I| is a quadrature that lost the value
        with pytest.raises(QuadratureNotConverged, match="underflowed"):
            oscint.fit_decay_from_samples([64.0, 128.0, 256.0], [1.0, 0.0, 0.25], [1e-8] * 3)

    def test_lambda_zero_refused(self):
        p, amp = parse_polynomial("x^2 + y^2"), AmplitudeSpec()
        with pytest.raises(ValueError, match="lambda must be positive, got 0.0"):
            eval_oscillatory(p, amp, 0.0)
        with pytest.raises(ValueError, match="lambda must be positive, got 0.0"):
            fit_decay(p, amp, [0.0, 64.0, 128.0, 256.0])


class TestRandol:
    def test_cell_centered_grid_avoids_axes(self):
        grid = cell_centered_grid(0.25, 32)
        assert 0.0 not in grid
        assert grid.size == 32

    def test_infeasible_last_lambda_fails_before_any_node(self, monkeypatch):
        built = []
        gauss_axis = oscint._gauss_axis
        monkeypatch.setattr(oscint, "_gauss_axis", lambda *args: built.append(args) or gauss_axis(*args))
        with pytest.raises(BudgetExceeded, match="budget"):
            randol_lq_scan(
                parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, q_list=(2.0,), cells=8,
                lambda_grid=[64.0, 128.0, float(1 << 18)],
            )
        assert built == []

    def test_wrong_classification_rejected(self):
        amp = AmplitudeSpec()
        with pytest.raises(UnsupportedKindError, match="m="):
            randol_lq_scan(parse_polynomial("(y - x^2)^2"), amp, 3, q_list=(2.0,), cells=8, lambda_grid=[64.0])
        with pytest.raises(UnsupportedKindError):
            randol_lq_scan(parse_polynomial("x^2 + y^2"), amp, 2, q_list=(2.0,), cells=8, lambda_grid=[64.0])

    def test_linearly_adapted_d_type_rejected(self):
        # the rank-zero twin plus x^5 is D6 with m = 2, n = 5: h = h_lin = 5/3, 2m+1 = n
        phi = parse_polynomial("x*(y - x^2)^2 + x^5")
        kind = classify_singularity(phi)
        assert (kind.label(), kind.m, kind.n) == ("D6", 2, 5)
        assert height(kind) == linear_height(kind) == Fraction(5, 3)
        with pytest.raises(UnsupportedKindError, match="h_lin < h"):
            randol_lq_scan(phi, AmplitudeSpec(), 2, q_list=(2.0,), cells=8, lambda_grid=[64.0])

    def test_lq_sum_beyond_the_float_range_refused(self):
        # M reaches 2.2 at lambda = 16 on the unit disc, and 2.2^1000 is beyond the float range
        phi, amp = parse_polynomial("(y - x^2)^2"), AmplitudeSpec(radius=1)
        with pytest.raises(ValueError, match="L\\^q sums for q=1000 are beyond the float range"):
            randol_lq_scan(phi, amp, 2, q_list=(2.0, 1000.0), cells=2, lambda_grid=[16.0])
        assert randol_lq_scan(phi, amp, 2, q_list=(2.0, 8.0), cells=2, lambda_grid=[16.0]).q_report[8.0][0] < 1e4

    @pytest.mark.parametrize("c", ["1", "1000000", "10^400", "-7/3"])
    def test_constant_term_is_dropped_before_classifying(self, c):
        # the constant only multiplies I by a unit factor: same class, same sweep, same M
        args = dict(q_list=(2.0,), cells=8, lambda_grid=dyadic_grid(64, 1024))
        plain = randol_lq_scan(parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, **args)
        shifted = randol_lq_scan(parse_polynomial(f"{c} + (y - x^2)^2"), AmplitudeSpec(), 2, **args)
        assert shifted.lambdas == plain.lambdas
        np.testing.assert_allclose(shifted.M_values, plain.M_values, rtol=1e-15, atol=0)

    # a float count such as 2.5 would round to an odd grid (2.5 + 2.5 % 2 is 3.0)
    # whose middle cell centre is the axis caustic s1 = 0
    _BAD_CELLS = [0, -4, 2.5, 8.0, True]

    # the ids name the fine grid's fixed refinement 2 after the cell count
    @pytest.mark.parametrize("cells", _BAD_CELLS, ids=[f"{c}-2" for c in _BAD_CELLS])
    def test_lq_scan_rejects_empty_grids(self, monkeypatch, cells):
        planned = []
        panels_for, require_d_type = oscint._panels_for, oscint._require_d_type
        monkeypatch.setattr(oscint, "_panels_for", lambda *args: planned.append(args) or panels_for(*args))
        monkeypatch.setattr(oscint, "_require_d_type", lambda *args: planned.append(args) or require_d_type(*args))
        with pytest.raises(ValueError, match="integer cells >= 1"):
            randol_lq_scan(
                parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, q_list=(2.0,), cells=cells, lambda_grid=[64.0]
            )
        assert planned == []

    @pytest.mark.parametrize("q", [0.0, -2.0, math.nan, math.inf, -math.inf])
    def test_lq_scan_rejects_a_q_that_is_not_positive(self, monkeypatch, q):
        # q <= 0 gives no L^q signal: q = 0 sums ones, q = -2 sums M^-2
        planned = []
        panels_for, require_d_type = oscint._panels_for, oscint._require_d_type
        monkeypatch.setattr(oscint, "_panels_for", lambda *args: planned.append(args) or panels_for(*args))
        monkeypatch.setattr(oscint, "_require_d_type", lambda *args: planned.append(args) or require_d_type(*args))
        with pytest.raises(ValueError, match=r"L\^q exponents must be positive and finite"):
            randol_lq_scan(parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, q_list=(2.0, q), cells=8, lambda_grid=[64.0])
        assert planned == []

    def test_cell_centered_grid_mirrors_exactly(self):
        # _offsets evaluates half of a grid only when it mirrors exactly; the
        # plain cell centres of (0.1, 32) and (0.3, 16) did not
        for half_width in (0.1, 0.25, 0.3, 1 / 3, 0.7, 2.5):
            for cells in (1, 2, 5, 16, 32, 64, 100):
                grid = cell_centered_grid(half_width, cells)
                np.testing.assert_array_equal(grid, -grid[::-1])
                assert oscint._mirror_half(grid) == cells // 2
                np.testing.assert_allclose(np.diff(grid), 2 * half_width / cells, rtol=1e-12)

    def test_lq_scan_rejects_an_empty_lambda_grid(self, monkeypatch):
        # an empty grid would give an all-zero maximal function and ratio inf for every q
        planned = []
        panels_for, require_d_type = oscint._panels_for, oscint._require_d_type
        monkeypatch.setattr(oscint, "_panels_for", lambda *args: planned.append(args) or panels_for(*args))
        monkeypatch.setattr(oscint, "_require_d_type", lambda *args: planned.append(args) or require_d_type(*args))
        with pytest.raises(ValueError, match="at least one lambda"):
            randol_lq_scan(parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, q_list=(2.0,), cells=8, lambda_grid=[])
        assert planned == []

    def test_lq_scan_rejects_an_empty_q_list(self, monkeypatch):
        # with no q the scan would return an empty q_report: no L^q signal and no refusal
        planned = []
        panels_for, require_d_type = oscint._panels_for, oscint._require_d_type
        monkeypatch.setattr(oscint, "_panels_for", lambda *args: planned.append(args) or panels_for(*args))
        monkeypatch.setattr(oscint, "_require_d_type", lambda *args: planned.append(args) or require_d_type(*args))
        with pytest.raises(ValueError, match=r"at least one L\^q exponent"):
            randol_lq_scan(parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, q_list=(), cells=8, lambda_grid=[64.0])
        assert planned == []

    def test_lq_scan_sweeps_a_repeated_lambda_once(self, monkeypatch):
        swept = []
        osc_grids = oscint._osc_grids
        monkeypatch.setattr(oscint, "_osc_grids", lambda *args: swept.append(args[2]) or osc_grids(*args))
        args = (parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2)
        kwargs = dict(q_list=(2.0, 8.0), cells=8)
        single = randol_lq_scan(*args, lambda_grid=[64.0], **kwargs)
        once = list(swept)
        swept.clear()
        assert randol_lq_scan(*args, lambda_grid=[64.0] * 5, **kwargs) == single
        assert swept == once and set(once) == {64.0}
        swept.clear()
        mixed = randol_lq_scan(*args, lambda_grid=[128.0, 64.0, 128.0], validate=False, **kwargs)
        assert sorted(set(swept)) == [64.0, 128.0] and swept.count(128.0) == swept.count(64.0) == len(swept) // 2
        assert mixed.M_values == randol_lq_scan(*args, lambda_grid=[64.0, 128.0], validate=False, **kwargs).M_values

    @pytest.mark.parametrize(
        "text,ratios",
        [
            ("x*(y - x^2)^2", (1.0825736860751838, 2.802884887081341, 40.05766741773646)),
            ("y*(x - y^2)^2", (1.0825736860751838, 2.8028848870813396, 40.05766741773647)),
            ("(y - x^2)^2", (1.0260494375753464, 1.2471173830368816, 2.758882379955612)),
        ],
        ids=["twin", "swapped-twin", "benchmark-phase"],
    )
    def test_scan_ratios_unchanged(self, text, ratios):
        # the default scan of the rank-zero twin, its variable swap and the
        # phase of criterion 6.  The twin sweeps y whole, so its offset
        # columns of -s2 are conjugates; the swap folds y odd, so they negate
        # Q.  The values were read before the scan stopped early
        scan = randol_lq_scan(parse_polynomial(text), AmplitudeSpec(), 2, q_list=(2.0, 4.0, 8.0))
        for q, ratio in zip((2.0, 4.0, 8.0), ratios):
            assert scan.q_report[q][2] == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize(
        "text,m,last",
        [("(y - x^2)^2", 2, 8192.0), ("(y + x^2)^2", 2, 8192.0), ("x*(y - x^2)^2", 2, 16384.0), ("x*(y - x^3)^2", 3, 16384.0)],
        ids=["benchmark-phase", "reflected", "twin", "m3"],
    )
    def test_the_stop_is_exact(self, text, m, last):
        # the running max of one-lambda scans over the whole default grid is
        # the stopped scan's maximal function, checked or not
        phi, amp = parse_polynomial(text), AmplitudeSpec()
        scan = randol_lq_scan(phi, amp, m, q_list=(2.0,))
        assert scan.lambdas == tuple(lam for lam in DEFAULT_LAMBDA_GRID if lam <= last)
        assert randol_lq_scan(phi, amp, m, q_list=(2.0,), validate=False) == scan
        running = np.zeros(len(scan.M_values))
        for lam in DEFAULT_LAMBDA_GRID:
            one = randol_lq_scan(phi, amp, m, q_list=(2.0,), lambda_grid=[lam], validate=False)
            assert one.lambdas == (lam,)
            running = np.maximum(running, one.M_values)
        assert tuple(running) == scan.M_values

    def test_the_stop_counts_octaves(self):
        # on a grid four times as dense the last lambda to raise a point is
        # 64 * 2^(21/4), about 2436, and the scan stops two octaves on, past
        # the dyadic grid's stop at 8192: a denser grid never stops sooner
        quarter = tuple(64.0 * 2.0 ** (k / 4) for k in range(33))
        scan = randol_lq_scan(parse_polynomial("(y - x^2)^2"), AmplitudeSpec(), 2, q_list=(2.0,), lambda_grid=quarter)
        assert scan.lambdas == quarter[:30] and scan.lambdas[-1] > 8192.0

    def test_lq_scan_smoke(self):
        amp = AmplitudeSpec()
        scan = randol_lq_scan(
            parse_polynomial("(y - x^2)^2"),
            amp,
            2,
            q_list=(2.0,),
            cells=8,
            lambda_grid=dyadic_grid(64, 512),
        )
        assert len(scan.s_grid) == 64
        assert all(v >= 0 for v in scan.M_values)
        coarse, fine, ratio = scan.q_report[2.0]
        assert coarse > 0 and fine > 0 and ratio > 0
