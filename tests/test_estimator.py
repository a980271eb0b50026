"""Sampled estimators against exhaustive enumeration and the dense oracle."""

from importlib import resources

import numpy as np
import pytest

from hamsim import (
    BudgetOverflow,
    EstimatorConfig,
    GatePlan,
    Observable,
    all_order_b,
    all_order_stats,
    correction_terms,
    estimate_all_order,
    estimate_qdrift,
    estimate_qswift,
    estimate_trotter,
    eval_correction_exact,
    exact_qdrift_value,
    exact_qswift_value,
    expectation,
    ideal_channel,
    load_hamiltonian,
    mixture,
    parse_hamiltonian,
    plan_budget,
    prepare_plus_input,
    qdrift_channel,
    qdrift_plan,
    qswift_channel,
    run_plan,
    sample_all_order_segment,
    sample_swift_plan,
    script_l_n,
    tau,
    trotter_plan,
)
from hamsim.compiler import (
    all_order_categories,
    all_order_segment_from_draw,
    draw_all_order_segment,
    draw_qdrift,
    draw_swift_variant,
    qdrift_plan_from_draw,
    swift_plan_from_draw,
)
from hamsim.estimator import _shot_means, _signed_angles
from hamsim.statevector import Kernel

REF = parse_hamiltonian("0.5 X\n0.3 Z")
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def plus_density(n_qubits: int) -> np.ndarray:
    d = 2**n_qubits
    return np.full((d, d), 1.0 / d, dtype=complex)


def oracle_value(channel, rho, q_dense) -> float:
    return float(np.trace(q_dense @ channel.apply(rho)).real)


def test_exhaustive_baseline_matches_channel_oracle():
    t, n_seg = 1.25, 3
    chan = qdrift_channel(REF, tau(REF, t, n_seg)).power(n_seg)
    want = oracle_value(chan, plus_density(1), PAULI_Z)
    got = exact_qdrift_value(REF, t, n_seg)
    assert got == pytest.approx(want, abs=1e-10)
    zero = np.diag([1.0, 0.0]).astype(complex)
    want_zero = oracle_value(chan, zero, PAULI_Z)
    got_zero = exact_qdrift_value(REF, t, n_seg, system_zero=True)
    assert got_zero == pytest.approx(want_zero, abs=1e-10)


def test_exhaustive_bucket_matches_channel_oracle():
    t, n_seg = 1.25, 3
    tau_angle = tau(REF, t, n_seg)
    term = correction_terms(REF, t, n_seg, 2)[0]
    base = qdrift_channel(REF, tau_angle)
    corr = mixture([script_l_n(REF, 2)], base, n_seg)
    want = 0.5 * tau_angle**2 * oracle_value(corr, plus_density(1), PAULI_Z)
    got = eval_correction_exact(REF, t, n_seg, term)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("order", [2, 3])
def test_exact_qswift_matches_channel_oracle(order):
    t, n_seg = 1.25, 3
    chan = qswift_channel(REF, t, n_seg, order)
    want = oracle_value(chan, plus_density(1), PAULI_Z)
    got = exact_qswift_value(REF, t, n_seg, order)
    assert got == pytest.approx(want, abs=1e-9)


def test_exhaustive_bucket_vanishes_for_single_term_model():
    solo = parse_hamiltonian("1.0 X")
    term = correction_terms(solo, 0.9, 4, 2)[0]
    assert eval_correction_exact(solo, 0.9, 4, term) == pytest.approx(0.0, abs=1e-12)


def test_qdrift_estimate_at_zero_time():
    config = EstimatorConfig(n_segments=4, n_sample_0=64, n_shot_0=16, system_zero=True)
    report = estimate_qdrift(REF, 0.0, config)
    assert report.value == 1.0
    assert report.stderr == 0.0
    assert report.method == "QDRIFT"
    assert report.plan_count == 64
    assert report.shot_count == 64 * 16


def test_qdrift_estimate_tracks_exhaustive_value():
    t, n_seg = 1.25, 4
    config = EstimatorConfig(n_segments=n_seg, n_sample_0=4000, n_shot_0=50, seed=42)
    report = estimate_qdrift(REF, t, config)
    exact = exact_qdrift_value(REF, t, n_seg)
    assert report.stderr < 0.05
    assert abs(report.value - exact) <= 5 * report.stderr


def test_qdrift_estimate_observable_override():
    t, n_seg = 1.25, 4
    config = EstimatorConfig(
        n_segments=n_seg, n_sample_0=4000, n_shot_0=50, seed=7, observable="X"
    )
    report = estimate_qdrift(REF, t, config)
    exact = exact_qdrift_value(REF, t, n_seg, observable_axes="X")
    assert abs(report.value - exact) <= 5 * report.stderr


def test_qswift_estimate_is_unbiased_against_exhaustive():
    t, n_seg = 1.25, 4
    config = EstimatorConfig(
        n_segments=n_seg, order=2, n_sample_0=3000, n_shot_0=50, seed=11
    )
    report = estimate_qswift(REF, t, config)
    exact = exact_qswift_value(REF, t, n_seg, 2)
    assert abs(report.value - exact) <= 5 * report.stderr
    assert report.method == "QSWIFT2"


def test_qswift_report_decomposition_and_determinism():
    config = EstimatorConfig(n_segments=6, order=2, n_sample_0=50, n_shot_0=20, seed=3)
    report = estimate_qswift(REF, 1.0, config)
    assert report.value == pytest.approx(
        report.baseline + sum(report.bucket_values.values()), abs=1e-12
    )
    assert set(report.bucket_values) == {(2,)}
    assert set(report.budgets) == {"baseline", "2"}
    again = estimate_qswift(REF, 1.0, config)
    assert again == report
    other = estimate_qswift(REF, 1.0, EstimatorConfig(
        n_segments=6, order=2, n_sample_0=50, n_shot_0=20, seed=4
    ))
    assert other.value != report.value


def test_qswift_report_independent_of_worker_count():
    base = EstimatorConfig(n_segments=5, order=3, n_sample_0=40, n_shot_0=10, seed=9)
    threaded = EstimatorConfig(
        n_segments=5, order=3, n_sample_0=40, n_shot_0=10, seed=9, threads=4
    )
    a = estimate_qswift(REF, 1.1, base)
    b = estimate_qswift(REF, 1.1, threaded)
    assert a.value == b.value
    assert a.bucket_values == b.bucket_values


def test_qswift_order_one_reduces_to_qdrift():
    config = EstimatorConfig(n_segments=4, order=1, n_sample_0=30, n_shot_0=10, seed=5)
    report = estimate_qswift(REF, 1.0, config)
    assert report.method == "QDRIFT"
    assert report.bucket_values == {}
    assert report.value == report.baseline
    assert report.value == estimate_qdrift(REF, 1.0, config).value


def test_qswift_bucket_coefficient_shrinks_with_segments():
    t = 1.25
    lam_t = REF.lam * t
    for n_seg in (8, 16):
        config = EstimatorConfig(
            n_segments=n_seg, order=2, n_sample_0=4, n_shot_0=4, seed=1
        )
        report = estimate_qswift(REF, t, config)
        assert report.budgets["2"]["coeff"] == pytest.approx(
            lam_t**2 / (2 * n_seg), rel=1e-12
        )


def test_budget_overflow_guard():
    config = EstimatorConfig(
        n_segments=8, order=2, n_sample_0=100, n_shot_0=10, circuit_cap=10
    )
    with pytest.raises(BudgetOverflow):
        estimate_qswift(REF, 1.0, config)


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(n_segments=0)
    with pytest.raises(ValueError):
        EstimatorConfig(n_segments=4, order=0)
    with pytest.raises(ValueError):
        EstimatorConfig(n_segments=2, order=3)
    with pytest.raises(ValueError):
        EstimatorConfig(n_segments=2, n_sample_0=0)
    config = EstimatorConfig(n_segments=2, observable="XX")
    with pytest.raises(ValueError):
        config.observable_axes(REF)


def test_config_observable_forms():
    config = EstimatorConfig(n_segments=2, observable=Observable("X"))
    assert config.observable_axes(REF) == "X"
    assert EstimatorConfig(n_segments=2, observable="x").observable_axes(REF) == "X"
    assert EstimatorConfig(n_segments=2).observable_axes(REF) == "Z"


def test_config_bucket_budget_overrides():
    config = EstimatorConfig(
        n_segments=4,
        order=2,
        n_sample_0=100,
        n_shot_0=7,
        bucket_samples={(2,): 55},
        bucket_shots={(2,): 9},
    )
    assert config.n_sample((2,)) == 55
    assert config.n_shot((2,)) == 9
    assert config.n_sample((3,)) == 100
    assert config.n_shot((3,)) == 7
    assert config.n_sample((2, 2)) == 100


def test_report_json_shape():
    config = EstimatorConfig(n_segments=4, order=2, n_sample_0=20, n_shot_0=10, seed=8)
    report = estimate_qswift(REF, 1.0, config)
    blob = report.to_json_dict()
    assert blob["method"] == "QSWIFT2"
    assert blob["seeds"] == {"master": 8}
    assert set(blob["buckets"]) == {"2"}
    assert blob["value"] == report.value
    assert "exact_reference" not in blob
    report.exact_reference = 0.5
    assert report.to_json_dict()["exact_reference"] == 0.5


def test_estimate_trotter_deterministic_path():
    t, r = 1.0, 4
    config = EstimatorConfig(n_segments=r, n_sample_0=100, n_shot_0=10_000, seed=2)
    report = estimate_trotter(REF, t, r, 2, randomized=False, config=config)
    got = report.value
    assert got == estimate_trotter(REF, t, r, 2, randomized=False, config=config).value
    plan = trotter_plan(REF, t, r, 2)
    state = run_plan(prepare_plus_input(1), plan, REF)
    exact_plan_value = expectation(state, Observable("Z"))
    # one million pooled shots: 5 sigma is well under 0.005
    assert abs(got - exact_plan_value) <= 0.01
    assert (report.method, report.plan_count, report.shot_count) == ("TS2", 1, 10**6)
    assert report.stderr == np.sqrt((1 - got**2) / 10**6)


def test_estimate_trotter_zero_time():
    config = EstimatorConfig(n_segments=1, n_sample_0=10, n_shot_0=10, system_zero=True)
    assert estimate_trotter(REF, 0.0, 1, 1, randomized=False, config=config).value == 1.0
    assert estimate_trotter(REF, 0.0, 1, 1, randomized=True, config=config).value == 1.0


def test_estimate_trotter_randomized_path():
    t, r = 1.0, 3
    config = EstimatorConfig(n_segments=r, n_sample_0=200, n_shot_0=100, seed=6)
    report = estimate_trotter(REF, t, r, 1, randomized=True, config=config)
    got = report.value
    assert got == estimate_trotter(REF, t, r, 1, randomized=True, config=config).value
    ideal = oracle_value(ideal_channel(REF, t), plus_density(1), PAULI_Z)
    # randomized first-order stays within coarse bias plus noise of the target
    assert abs(got - ideal) < 0.2
    assert (report.method, report.plan_count, report.shot_count) == ("RTS1", 200, 20_000)
    assert report.value == report.baseline and report.bucket_values == {}
    assert 0.0 < report.stderr < 0.05


def test_shot_readout_determinism_and_eigenstates():
    kernel = Kernel(parse_hamiltonian("1.0 XI"), "ZI", system_zero=True)
    states = kernel.fresh(3)
    # row 1 flipped to |1>: e^{i pi/2 X}; row 2 rotated off the eigenbasis
    kernel.rotate(states, np.array([1, 2]), np.array([0, 0]), [np.pi / 2])
    kernel.rotate(states, np.array([2]), np.array([0]), [-np.pi / 3])
    vals = kernel.read(states, ancilla_x=False)
    assert vals[:2] == pytest.approx([1.0, -1.0], abs=1e-15)
    # eigenstates: every shot agrees regardless of seed
    got = _shot_means(vals, 1000, np.random.default_rng(123))
    assert got[0] == 1.0 and got[1] == -1.0
    a = _shot_means(vals, 100, np.random.default_rng(5))
    assert np.array_equal(a, _shot_means(vals, 100, np.random.default_rng(5)))
    with pytest.raises(ValueError):
        EstimatorConfig(n_segments=2, n_shot_0=0)


def test_all_order_unbiased_and_rescaled():
    t, n_seg, n_sample = 1.25, 8, 200_000
    res = all_order_stats(REF, t, n_seg, n_sample, rng_seed=42)
    b_norm = all_order_b(tau(REF, t, n_seg))
    assert res.b_power == pytest.approx(b_norm**n_seg, rel=1e-12)
    assert res.n_sample == n_sample
    ideal = oracle_value(ideal_channel(REF, t), plus_density(1), PAULI_Z)
    assert abs(res.value - ideal) <= 5 * res.stderr
    assert res.stderr <= res.b_power / np.sqrt(n_sample)
    assert res.stderr >= 0.05 * res.b_power / np.sqrt(n_sample)
    assert estimate_all_order(REF, t, n_seg, n_sample, 42) == res.value


def test_all_order_seed_contract():
    with pytest.raises(TypeError):
        all_order_stats(REF, 1.0, 4, 100, rng_seed=1.5)
    with pytest.raises(TypeError):
        all_order_stats(REF, 1.0, 4, 100, rng_seed=np.random.default_rng(1))
    with pytest.raises(ValueError):
        all_order_stats(REF, 1.0, 0, 100, rng_seed=1)
    with pytest.raises(ValueError):
        all_order_stats(REF, 1.0, 4, 0, rng_seed=1)
    assert all_order_stats(REF, 1.0, 4, 64, rng_seed=np.int64(3)).value == pytest.approx(
        all_order_stats(REF, 1.0, 4, 64, rng_seed=3).value
    )


def test_plan_budget_rows():
    table1 = plan_budget(REF, 1.25, 16, 1, 0.1)
    assert len(table1.rows) == 1
    assert table1.rows[0].label == "baseline"
    assert table1.n_total == table1.rows[0].circuits

    table3 = plan_budget(REF, 1.25, 16, 3, 0.1)
    assert [row.label for row in table3.rows] == ["baseline", "2", "3", "4", "2,2"]
    eps = 0.1 / np.sqrt(4)
    assert table3.epsilon_per_term == pytest.approx(eps)
    for row, term in zip(table3.rows[1:], correction_terms(REF, 1.25, 16, 3)):
        variants = term.n_variants
        assert row.k == term.k
        assert row.coeff == pytest.approx(term.coeff)
        assert row.n_sample == max(1, int(np.ceil(term.coeff**2 * variants / eps**2)))
        assert row.circuits == variants * row.n_sample
    assert table3.n_total == sum(row.circuits for row in table3.rows)


def test_plan_budget_epsilon_scaling():
    coarse = plan_budget(REF, 1.25, 16, 3, 0.1)
    fine = plan_budget(REF, 1.25, 16, 3, 0.05)
    assert fine.rows[0].n_sample == 4 * coarse.rows[0].n_sample
    with pytest.raises(ValueError):
        plan_budget(REF, 1.25, 16, 3, 0.0)


def test_budget_table_formats():
    table = plan_budget(REF, 1.25, 8, 2, 0.1)
    blob = table.to_json_dict()
    assert blob["n_total"] == table.n_total
    assert blob["rows"][0]["bucket"] == "baseline"
    text = table.to_text()
    assert "baseline" in text
    assert f"total circuits: {table.n_total}" in text


CHAIN = load_hamiltonian(str(resources.files("hamsim").joinpath("data/chain_4q.txt")))


def test_golden_values_on_bundled_chain():
    # reports on chain_4q, t = 1, N = 16, seed 7, 100 shots, pinned with ==
    base = dict(n_segments=16, n_shot_0=100, seed=7)
    qdrift = estimate_qdrift(CHAIN, 1.0, EstimatorConfig(n_sample_0=2000, **base))
    assert qdrift.value == 0.18713000000000002
    buckets = {(2,): 300, (3,): 60, (4,): 20, (2, 2): 60}
    config = EstimatorConfig(order=3, n_sample_0=2000, bucket_samples=buckets, **base)
    qswift = estimate_qswift(CHAIN, 1.0, config)
    assert (qswift.value, qswift.stderr) == (0.24857953997344973, 0.014305067434369935)
    stats = all_order_stats(CHAIN, 1.0, 16, 2000, 7)
    assert (stats.value, stats.stderr) == (0.35063913360850707, 0.04791938702929044)
    config = EstimatorConfig(n_sample_0=200, **base)
    assert estimate_trotter(CHAIN, 1.0, 16, 2, True, config).value == 0.27290000000000003
    assert estimate_trotter(CHAIN, 1.0, 16, 2, False, config).value == 0.2667999999999999


def _replayed(model, ops, axes, ancilla_x) -> float:
    plan = GatePlan(ops=tuple(ops), n_segments=1, method_tag="REPLAY")
    state = run_plan(prepare_plus_input(model.n_qubits), plan, model)
    return expectation(state, Observable(axes, with_ancilla_x=ancilla_x))


@pytest.mark.parametrize("m", [1, 6])
def test_batched_rows_replay_as_plans(m):
    # every batched row materialises as a plan that run_plan reproduces, and
    # the public samplers are the m = 1 draws of the same generator
    t, n_seg, axes = 1.0, 5, "ZIII"
    tau_angle = tau(CHAIN, t, n_seg)
    thetas = _signed_angles(CHAIN, tau_angle)
    kernel = Kernel(CHAIN, axes)

    terms = draw_qdrift(CHAIN, n_seg, m, np.random.default_rng(5))
    states = kernel.fresh(m)
    kernel.time_ops(states, terms, thetas)
    vals = kernel.read(states, ancilla_x=False)
    # one draw call, so row 0 of any batch is the sampler's plan
    assert qdrift_plan(CHAIN, t, n_seg, np.random.default_rng(5)) == (
        qdrift_plan_from_draw(CHAIN, t, terms, 0)
    )
    for row in range(m):
        plan = qdrift_plan_from_draw(CHAIN, t, terms, row)
        assert abs(_replayed(CHAIN, plan.ops, axes, False) - vals[row]) <= 1e-12

    term = next(b for b in correction_terms(CHAIN, t, n_seg, 3) if b.n_vec == (2, 2))
    s_vec, b_vecs = (0, 1), ((0, 1), (1, 0))
    draw = draw_swift_variant(CHAIN, n_seg, term, s_vec, m, np.random.default_rng(9))
    states = kernel.fresh(m)
    kernel.swift_variant(states, draw, b_vecs, thetas)
    vals = kernel.read(states, ancilla_x=True)
    for row in range(m):
        plan = swift_plan_from_draw(CHAIN, t, term, s_vec, b_vecs, draw, row)
        assert abs(_replayed(CHAIN, plan.ops, axes, True) - vals[row]) <= 1e-12
    if m == 1:
        sampled = sample_swift_plan(
            CHAIN, t, n_seg, term, s_vec, b_vecs, np.random.default_rng(9)
        )
        assert sampled == swift_plan_from_draw(CHAIN, t, term, s_vec, b_vecs, draw, 0)

    big_tau = 0.6  # blocks are drawn often enough to appear in a few rows
    _, sizes, cat_probs = all_order_categories(big_tau)
    draw = draw_all_order_segment(CHAIN, sizes, cat_probs, m, np.random.default_rng(4))
    states, signs = kernel.fresh(m), np.ones(m)
    kernel.all_order_segment(states, signs, draw, _signed_angles(CHAIN, big_tau))
    vals = signs * kernel.read(states, ancilla_x=True)
    for row in range(m):
        seg = all_order_segment_from_draw(CHAIN, big_tau, draw, row)
        assert abs(seg.sign * _replayed(CHAIN, seg.ops, axes, True) - vals[row]) <= 1e-12
    if m == 1:
        sampled = sample_all_order_segment(CHAIN, big_tau, np.random.default_rng(4))
        assert sampled == all_order_segment_from_draw(CHAIN, big_tau, draw, 0)
