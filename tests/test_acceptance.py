"""Acceptance gate: each criterion runs at its stated tolerance and budget.

One line per criterion is printed (run pytest with -s to see them live; the
full table also lands in the captured output).
"""

import mpmath as mp
import pytest

from besselstop import acceptance


def _run(fn):
    row = fn()
    print(row.line())
    assert row.index == int(fn.__name__.split("_")[1])
    assert row.passed, row.detail
    assert row.within_budget, f"budget exceeded: {row.elapsed:.1f}s > {row.budget:.0f}s"


def test_reference_C_is_the_30_digit_root():
    # h(c) = 2 int_0^c e^{t^2/2} dt - c e^{c^2/2}, recomputed at 50 digits
    with mp.workdps(50):
        root = mp.findroot(
            lambda c: 2 * mp.sqrt(mp.pi / 2) * mp.erfi(c / mp.sqrt(2)) - c * mp.exp(c * c / 2),
            mp.mpf("1.5"),
        )
        assert mp.nstr(root, 30) == "1.50339537647078180456434151335"
        assert float(root) == acceptance.REFERENCE_C


def test_criterion_01_excursion_constant():
    _run(acceptance.criterion_1_excursion_constant)


def test_criterion_02_series_excursion_consistency():
    _run(acceptance.criterion_2_series_excursion_consistency)


def test_criterion_03_closed_form_roots():
    _run(acceptance.criterion_3_closed_form_roots)


def test_criterion_04_margin_grid():
    _run(acceptance.criterion_4_margin_grid)


def test_criterion_05_ode_oracle():
    _run(acceptance.criterion_5_ode_oracle)


def test_criterion_06_lattice_oracle():
    _run(acceptance.criterion_6_lattice_oracle)


def test_criterion_07_monte_carlo_headline():
    _run(acceptance.criterion_7_monte_carlo_headline)


def test_criterion_08_empirical_optimality():
    _run(acceptance.criterion_8_empirical_optimality)


def test_criterion_09_shape_suite():
    _run(acceptance.criterion_9_shape_suite)


def test_criterion_10_iteration_suite():
    _run(acceptance.criterion_10_iteration_suite)


def test_all_criteria_in_index_order():
    names = [fn.__name__ for fn in acceptance.ALL_CRITERIA]
    assert [name.split("_")[1] for name in names] == [str(k) for k in range(1, 11)]
    assert all(name.startswith("criterion_") for name in names)


@pytest.mark.parametrize("indices", [(11,), (0,), (1, 11), ()], ids=["11", "0", "1,11", "none"])
def test_unknown_criterion_is_rejected(indices, monkeypatch):
    # a selection naming no real criterion must not come back as an empty,
    # vacuously passing run; nothing runs before the check
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (lambda: pytest.fail("ran"),) * 10)
    with pytest.raises(ValueError, match=r"1\.\.10"):
        acceptance.run_acceptance(indices=indices)
