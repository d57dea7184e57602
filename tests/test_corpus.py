"""Every corpus check can fail: one wrong pin makes it report FAIL and name the field."""

import dataclasses
from fractions import Fraction

import pytest

from nphk import exponent as expo
from nphk.corpus import (
    CORPUS,
    check_knapp_threshold,
    check_nla_sweep,
    check_row,
    check_sandwich,
    run_corpus,
)

F = Fraction
D8 = CORPUS[2]  # (y - x^2)^2 + x^7: D(2, 7), h = 7/4, h_lin = 5/3
E6 = CORPUS[5]  # y^3 + x^4: linearly adapted, h = 12/7


def _moved_lines(monkeypatch):
    """Shift the intercept of the second k_p line by 1/1000."""
    lines = expo._lines

    def moved(h, h_lin):
        first, (slope, intercept) = lines(h, h_lin)
        return first, (slope, intercept + F(1, 1000))

    monkeypatch.setattr(expo, "_lines", moved)


def test_every_check_passes_on_the_pinned_corpus():
    assert all(result.ok for result in run_corpus())


@pytest.mark.parametrize(
    "pins,message",
    [
        ({"kind_label": "D10"}, "kind: expected D10, got D8"),
        ({"n": 9}, "n: expected 9, got 7"),
        ({"h": F(9, 5)}, "h: expected 9/5, got 7/4"),
        ({"h_lin": F(7, 4)}, "h_lin: expected 7/4, got 5/3"),
        ({"linearly_adapted": True}, "LA: expected True, got False"),
        ({"kp_at_1": F(5, 2)}, "k_p(1): expected 5/2, got 17/7"),
        ({"phase": "x^2 + y^2"}, "kind NondegenerateOrRankPositive is unsupported"),
    ],
    ids=["label", "n", "h", "h_lin", "adapted", "kp_at_1", "unsupported"],
)
def test_row_check_names_the_wrong_pin(pins, message):
    result = check_row(dataclasses.replace(D8, **pins))
    assert not result.ok and message in result.detail
    assert result.line().startswith("FAIL ")


def test_sandwich_fails_outside_the_heights(monkeypatch):
    # k_p(1) = 17/7 is the upper bound 3 - 1/h itself, so a raised line leaves the sandwich
    _moved_lines(monkeypatch)
    result = check_sandwich(D8)
    assert not result.ok and "p=1: 12/5 <= 17007/7000 <= 17/7 fails" in result.detail


def test_sandwich_fails_an_adapted_pin_on_two_lines():
    result = check_sandwich(dataclasses.replace(D8, linearly_adapted=True))
    assert not result.ok and "p=1: adapted equality fails" in result.detail
    assert check_sandwich(E6).ok


def test_nla_sweep_names_every_pair_a_moved_line_breaks(monkeypatch):
    _moved_lines(monkeypatch)
    result = check_nla_sweep()
    assert not result.ok
    assert "(m=2, n=6)" in result.detail and "(m=6, n=inf)" in result.detail


def test_knapp_threshold_fails_on_a_moved_line(monkeypatch):
    _moved_lines(monkeypatch)
    result = check_knapp_threshold()
    assert not result.ok and "k_p(1) = 17007/7000 != 17/7" in result.detail


def test_knapp_threshold_fails_on_a_growth_off_its_sign_change(monkeypatch):
    knapp = expo.knapp_exponent_nla
    monkeypatch.setattr(expo, "knapp_exponent_nla", lambda *args: knapp(*args) + F(1, 10**9))
    result = check_knapp_threshold()
    assert not result.ok and "g(k*-0)=1/1000000000" in result.detail
