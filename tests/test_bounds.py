"""Closed-form error bounds, minimal-N solvers, and the comparison table."""

from math import ceil, e, inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsim import (
    BoundRow,
    BoundTable,
    NoSolutionBelowCap,
    VacuousRegion,
    best_trotter_gate_count,
    eta,
    qdrift_bound,
    qswift_bound,
    solve_min_n,
    sweep_table,
    trotter_gate_count,
)


def test_eta_frozen_value():
    assert eta(1.0, 100) == pytest.approx(0.8403437425306256, rel=1e-12)


def test_eta_validation_and_vacuous_region():
    with pytest.raises(ValueError):
        eta(0.0, 100)
    with pytest.raises(ValueError):
        eta(1.0, 0)
    # (2e)^2 = 29.556...: N = 29 is inside the vacuous region, N = 30 is not
    with pytest.raises(VacuousRegion):
        eta(1.0, 29)
    assert eta(1.0, 30) > 0


def test_eta_large_segment_limit():
    # as N grows the prefactor settles at (1/2)(1 + 1/(2ex))
    x = 1.7
    want = 0.5 * (1.0 + 1.0 / (2.0 * e * x))
    assert eta(x, 10**12) == pytest.approx(want, rel=1e-9)
    assert eta(x, 10**12) > 0.5


@settings(max_examples=80, deadline=None)
@given(
    x=st.floats(min_value=0.05, max_value=50.0),
    slack=st.floats(min_value=2.0, max_value=100.0),
)
def test_eta_bounded_when_ratio_below_half(x, slack):
    n_segments = int((2.0 * e * x) ** 2 * slack) + 1
    value = eta(x, n_segments)
    assert 0.5 < value <= 0.5 * (1.0 + 1.0 / (2.0 * e * x)) * 2.0
    if x >= 1.0:
        assert value <= 1.5


def test_qswift_bound_monotone_in_order_when_contracting():
    lambda_t, n_segments = 1.0, 100
    b1 = qswift_bound(lambda_t, n_segments, 1)
    b2 = qswift_bound(lambda_t, n_segments, 2)
    b3 = qswift_bound(lambda_t, n_segments, 3)
    assert b3 < b2 < b1
    with pytest.raises(ValueError):
        qswift_bound(lambda_t, n_segments, 0)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_qswift_bound_power_law_in_segments(order):
    lambda_t = 2.0
    n = 10**8
    scaled_small = qswift_bound(lambda_t, n, order) * n**order
    scaled_big = qswift_bound(lambda_t, 10 * n, order) * (10 * n) ** order
    # after stripping N^-K only the slowly varying eta prefactor remains
    assert scaled_big == pytest.approx(scaled_small, rel=1e-4)


def test_qdrift_bound_frozen_value_and_limits():
    assert qdrift_bound(1.0, 100) == pytest.approx(0.020404026800535116, rel=1e-12)
    n = 10**9
    assert qdrift_bound(1.0, n) * n == pytest.approx(2.0, rel=1e-6)
    with pytest.raises(ValueError):
        qdrift_bound(1.0, 0)


def test_qdrift_bound_overflow_guard():
    assert qdrift_bound(1000.0, 1) == inf
    assert qdrift_bound(1000.0, 10) < inf


def test_solve_min_n_frozen_qdrift_point():
    got = solve_min_n("qdrift", 1.0, 1e-3)
    assert got == 2002
    assert qdrift_bound(1.0, got) <= 1e-3 < qdrift_bound(1.0, got - 1)


def test_solve_min_n_frozen_qswift_point():
    got = solve_min_n("qswift", 1.0, 1e-3, order=3)
    assert got == 259
    assert qswift_bound(1.0, got, 3) <= 1e-3 < qswift_bound(1.0, got - 1, 3)


@settings(max_examples=60, deadline=None)
@given(
    lambda_t=st.floats(min_value=0.1, max_value=50.0),
    epsilon=st.floats(min_value=1e-6, max_value=0.5),
)
def test_solve_min_n_qdrift_boundary_property(lambda_t, epsilon):
    n = solve_min_n("qdrift", lambda_t, epsilon)
    assert qdrift_bound(lambda_t, n) <= epsilon
    if n > 1:
        assert qdrift_bound(lambda_t, n - 1) > epsilon


@settings(max_examples=60, deadline=None)
@given(
    lambda_t=st.floats(min_value=0.1, max_value=20.0),
    epsilon=st.floats(min_value=1e-6, max_value=0.5),
    order=st.integers(min_value=1, max_value=3),
)
def test_solve_min_n_qswift_boundary_property(lambda_t, epsilon, order):
    first = int((2.0 * e * lambda_t) ** 2) + 1
    n = solve_min_n("qswift", lambda_t, epsilon, order=order)
    assert n >= first
    assert qswift_bound(lambda_t, n, order) <= epsilon
    if n > first:
        assert qswift_bound(lambda_t, n - 1, order) > epsilon


def test_solve_min_n_cap_and_validation():
    with pytest.raises(NoSolutionBelowCap):
        solve_min_n("qswift", 1e9, 0.5, order=2, n_cap=10**6)
    with pytest.raises(NoSolutionBelowCap):
        solve_min_n("qdrift", 10.0, 1e-9, n_cap=100)


def test_solve_min_n_finds_solution_between_last_bracket_and_cap():
    # the answer lies above the last power-of-two bracket but under the cap,
    # so the bracketing must clamp to the cap instead of giving up
    n = solve_min_n("qdrift", 2e8, 0.1)
    assert qdrift_bound(2e8, n) <= 0.1 < qdrift_bound(2e8, n - 1)
    assert n <= 10**18
    with pytest.raises(NoSolutionBelowCap):
        solve_min_n("qdrift", 2e8, 0.1, n_cap=n - 1)
    with pytest.raises(ValueError):
        solve_min_n("qdrift", 1.0, 0.0)
    with pytest.raises(ValueError):
        solve_min_n("qdrift", 1.0, 1.0)
    with pytest.raises(ValueError):
        solve_min_n("qdrift", 0.0, 0.5)
    with pytest.raises(ValueError):
        solve_min_n("qswift", 1.0, 0.5)
    with pytest.raises(ValueError):
        solve_min_n("mystery", 1.0, 0.5)


def test_trotter_gate_count_formulas():
    # L = 10, Lambda = 1, t = 1, eps = 1e-3, unit-prefactor counts
    assert trotter_gate_count(10, 1.0, 1.0, 1e-3, 1) == 1_000_000
    assert trotter_gate_count(10, 1.0, 1.0, 1e-3, 2) == 56_580
    assert trotter_gate_count(10, 1.0, 1.0, 1e-3, 4) == 177_900
    assert best_trotter_gate_count(10, 1.0, 1.0, 1e-3) == 56_580


def test_trotter_gate_count_validation():
    with pytest.raises(ValueError):
        trotter_gate_count(10, 1.0, 1.0, 1e-3, 3)
    with pytest.raises(ValueError):
        trotter_gate_count(0, 1.0, 1.0, 1e-3, 1)
    with pytest.raises(ValueError):
        trotter_gate_count(10, 1.0, 1.0, 0.0, 1)


def test_trotter_epsilon_scaling_exponents():
    # order 2k responds to a 16x epsilon tightening with ~16^(1/2k) more gates
    for order, factor in ((2, 4.0), (4, 2.0)):
        coarse = trotter_gate_count(8, 1.0, 3.0, 1e-2, order)
        fine = trotter_gate_count(8, 1.0, 3.0, 1e-2 / 16, order)
        assert fine / coarse == pytest.approx(factor, rel=0.01)
    coarse1 = trotter_gate_count(8, 1.0, 3.0, 1e-2, 1)
    fine1 = trotter_gate_count(8, 1.0, 3.0, 1e-2 / 16, 1)
    assert fine1 / coarse1 == pytest.approx(16.0, rel=0.01)


def test_trotter_term_count_scaling():
    # doubling L at order 1 quadruples reps and doubles gates per rep
    small = trotter_gate_count(5, 1.0, 2.0, 1e-3, 1)
    big = trotter_gate_count(10, 1.0, 2.0, 1e-3, 1)
    assert big / small == pytest.approx(8.0, rel=1e-6)


def test_trotter_order_crossover():
    # loose targets favor order 2, tight targets favor order 4
    assert trotter_gate_count(10, 1.0, 1.0, 0.1, 2) < trotter_gate_count(10, 1.0, 1.0, 0.1, 4)
    assert trotter_gate_count(10, 1.0, 1.0, 1e-9, 4) < trotter_gate_count(10, 1.0, 1.0, 1e-9, 2)


def test_best_trotter_is_minimum():
    for eps in (0.1, 1e-3, 1e-9):
        counts = [trotter_gate_count(10, 1.0, 1.0, eps, order) for order in (1, 2, 4)]
        assert best_trotter_gate_count(10, 1.0, 1.0, eps) == min(counts)


def test_sweep_table_layout_and_csv():
    table = sweep_table(
        [1.0, 2.0],
        ["qdrift", "qswift2", "ts2"],
        1e-3,
        lam=1.0,
        lam_max=0.5,
        n_terms=4,
    )
    assert len(table.rows) == 6
    assert [row.method for row in table.rows[:3]] == ["qdrift", "qswift2", "ts2"]
    assert table.rows[0].t == 1.0
    assert table.rows[3].t == 2.0
    assert table.rows[3].lambda_t == pytest.approx(2.0)
    assert not table.has_gaps
    csv = table.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "t,lambda_t,method,epsilon,gates"
    assert len(lines) == 7
    assert csv == table.to_csv()


def test_sweep_table_monotone_in_time():
    table = sweep_table(
        [0.5, 1.0, 2.0, 4.0], ["qdrift"], 1e-3, lam=1.0, lam_max=1.0, n_terms=2
    )
    counts = [row.gates for row in table.rows]
    assert counts == sorted(counts)
    assert counts[0] < counts[-1]


def test_sweep_table_ratio_window():
    table = sweep_table(
        [10.0], ["qdrift", "qswift3"], 1e-3, lam=1.0, lam_max=1.0, n_terms=2
    )
    by_method = {row.method: row.gates for row in table.rows}
    assert 5 <= by_method["qdrift"] / by_method["qswift3"] <= 30


def test_sweep_table_vacuous_rows_become_na():
    # at lambda*t = 2e8 the qswift search starts past the segment cap while
    # the qdrift bound still reaches 0.1 just below it
    table = sweep_table(
        [2e8], ["qdrift", "qswift2"], 0.1, lam=1.0, lam_max=1.0, n_terms=2
    )
    by_method = {row.method: row.gates for row in table.rows}
    assert by_method["qswift2"] is None
    assert by_method["qdrift"] is not None
    assert table.has_gaps
    assert ",NA" in table.to_csv()


def test_overflowing_counts_become_na():
    # at L Lambda t = 3e200 the order-1 count (L Lambda t)^2 / epsilon and
    # the qswift start (2e lambda t)^2 overflow a float; orders 2 and 4 do
    # not, so ts_best takes the least of those
    with pytest.raises(OverflowError):
        trotter_gate_count(3, 1.0, 1e200, 1e-3, 1)
    finite = [trotter_gate_count(3, 1.0, 1e200, 1e-3, order) for order in (2, 4)]
    assert best_trotter_gate_count(3, 1.0, 1e200, 1e-3) == min(finite)
    methods = ["qdrift", "qswift2", "qswift3", "ts1", "ts_best"]
    table = sweep_table([1e200], methods, 1e-3, lam=3.0, lam_max=1.0, n_terms=3)
    gates = {row.method: row.gates for row in table.rows}
    assert gates == {"qdrift": None, "qswift2": None, "qswift3": None, "ts1": None,
                     "ts_best": min(finite)}
    # past t of about 1e250 every order overflows
    table = sweep_table([1e300], ["ts_best"], 1e-3, lam=3.0, lam_max=1.0, n_terms=3)
    assert table.rows[0].gates is None


def test_sweep_table_validation():
    for bad in (inf, -inf, float("nan")):
        for kwargs in ({"lam": bad}, {"lam_max": bad}):
            with pytest.raises(ValueError, match="is not finite"):
                sweep_table([1.0], ["qdrift"], 1e-3, **{"lam": 1.0, "lam_max": 1.0,
                                                        "n_terms": 2, **kwargs})
        with pytest.raises(ValueError, match=r"^t = .* is not finite$"):
            sweep_table([1.0, bad], ["qdrift"], 1e-3, lam=1.0, lam_max=1.0, n_terms=2)
    with pytest.raises(ValueError):
        sweep_table([], ["qdrift"], 1e-3, lam=1.0, lam_max=1.0, n_terms=2)
    with pytest.raises(ValueError):
        sweep_table([1.0], [], 1e-3, lam=1.0, lam_max=1.0, n_terms=2)
    with pytest.raises(ValueError):
        sweep_table([1.0], ["warp"], 1e-3, lam=1.0, lam_max=1.0, n_terms=2)


def test_bound_row_and_table_are_plain_records():
    row = BoundRow(t=1.0, lambda_t=1.0, method="qdrift", epsilon=1e-3, gates=None)
    table = BoundTable(rows=(row,))
    assert table.has_gaps
    assert table.to_csv().endswith("NA\n")
