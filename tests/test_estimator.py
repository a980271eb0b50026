"""Sampled estimators against exhaustive enumeration and the dense oracle."""

import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, replace
from importlib import resources
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hamsim import (
    AllOrderOverflow,
    BudgetOverflow,
    CombinatorialCap,
    EstimatorConfig,
    HamiltonianModel,
    all_order_b,
    all_order_stats,
    correction_terms,
    estimate_qdrift,
    estimate_qswift,
    estimate_trotter,
    eval_correction_exact,
    exact_qdrift_value,
    ideal_channel,
    load_hamiltonian,
    mixture,
    parse_hamiltonian,
    plan_budget,
    qdrift_channel,
    qswift_channel,
    run_plan,
    script_l_n,
    tau,
)
from hamsim.compiler import (
    BASELINE,
    PAD,
    GatePlan,
    all_order_categories,
    draw_all_order_codes,
    draw_qdrift,
    draw_swift_variant,
    draw_trotter_terms,
    plan_from_codes,
    randomized_trotter_plan,
    signed_angles,
    trotter_plan,
    trotter_thetas,
)
from hamsim import estimator, statevector
from hamsim.cli import main as cli_main
from hamsim._rng import derived_rng
from hamsim.estimator import _shot_means
from hamsim.exact_channels import plus_input_expectation
from hamsim.statevector import Kernel, expectation, prepare_plus_input
from oracle_helpers import THREE_QUBIT, TWO_QUBIT, exact_qswift_value

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


def test_exhaustive_bucket_matches_channel_oracle():
    t, n_seg = 1.25, 3
    tau_angle = tau(REF, t, n_seg)
    term = correction_terms(REF, t, n_seg, 2)[0]
    base = qdrift_channel(REF, tau_angle)
    corr = mixture([script_l_n(REF, 2)], base, n_seg)
    want = 0.5 * tau_angle**2 * oracle_value(corr, plus_density(1), PAULI_Z)
    got = eval_correction_exact(REF, t, n_seg, term)
    assert got == pytest.approx(want, abs=1e-9)


# the 1-qubit cases keep their ids; the 2- and 3-qubit ones read the default
# observable and two others at K = 1-3, N = 3-4
ORACLE_CASES = [pytest.param(REF, None, order, 3, id=str(order)) for order in (2, 3)] + [
    pytest.param(model, axes, order, n_seg, id=f"{name}-{axes or 'default'}-K{order}-N{n_seg}")
    for name, model, observables in (("2q", TWO_QUBIT, (None, "XI", "ZY")),
                                     ("3q", THREE_QUBIT, (None, "XIZ", "ZYX")))
    for axes in observables for order in (1, 2, 3) for n_seg in (3, 4)
]


@pytest.mark.parametrize("model,axes,order,n_seg", ORACLE_CASES)
def test_exact_qswift_matches_channel_oracle(model, axes, order, n_seg):
    t = 1.25
    if model is THREE_QUBIT and (order, n_seg) == (3, 4):
        # this support passes ENUMERATION_CAP
        with pytest.raises(CombinatorialCap):
            exact_qswift_value(model, t, n_seg, order, axes)
        return
    want = plus_input_expectation(qswift_channel(model, t, n_seg, order), axes)
    got = exact_qswift_value(model, t, n_seg, order, axes)
    assert got == pytest.approx(want, abs=1e-9)


def test_enumeration_cap_guards_both_oracles(monkeypatch):
    # a support of exactly ENUMERATION_CAP circuits is enumerated, one more
    # is refused before any evolution
    assert estimator.ENUMERATION_CAP == 10**6
    with pytest.raises(CombinatorialCap):
        exact_qdrift_value(REF, 1.0, 20)  # 2^20 plans
    term = correction_terms(REF, 1.0, 3, 2)[0]
    # (2,) at N = 3: 2^3 variants * 3 slot choices * 2^2 fillers * 2^2 indices
    monkeypatch.setattr(estimator, "ENUMERATION_CAP", 384)
    eval_correction_exact(REF, 1.0, 3, term)
    exact_qdrift_value(REF, 1.0, 8)  # 2^8 plans
    monkeypatch.setattr(estimator, "ENUMERATION_CAP", 383)
    with pytest.raises(CombinatorialCap):
        eval_correction_exact(REF, 1.0, 3, term)
    monkeypatch.setattr(estimator, "ENUMERATION_CAP", 255)
    with pytest.raises(CombinatorialCap):
        exact_qdrift_value(REF, 1.0, 8)


def test_enumeration_cap_precedes_slot_tuples(monkeypatch):
    # the cap is checked on comb(N, k) before any slot tuple is built, so a
    # refused bucket allocates none of its C(N, k) tuples
    def no_slots(*args):
        raise AssertionError("slot tuples built before the cap check")

    monkeypatch.setattr(estimator, "combinations", no_slots)
    term = next(b for b in correction_terms(CHAIN, 1.0, 300, 4) if b.n_vec == (2, 2, 2))
    with pytest.raises(CombinatorialCap):
        eval_correction_exact(CHAIN, 1.0, 300, term)


def test_exhaustive_bucket_vanishes_for_single_term_model():
    solo = parse_hamiltonian("1.0 X")
    term = correction_terms(solo, 0.9, 4, 2)[0]
    assert eval_correction_exact(solo, 0.9, 4, term) == pytest.approx(0.0, abs=1e-12)


def test_qdrift_estimate_at_zero_time():
    # |+> is an eigenstate of X: every shot reads +1
    config = EstimatorConfig(n_segments=4, n_sample_0=64, n_shot_0=16, observable="X")
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


def test_qswift_order_one_reduces_to_qdrift():
    config = EstimatorConfig(n_segments=4, order=1, n_sample_0=30, n_shot_0=10, seed=5)
    report = estimate_qswift(REF, 1.0, config)
    assert report.method == "QDRIFT"
    assert report.bucket_values == {}
    assert report.value == report.baseline
    assert report == estimate_qdrift(REF, 1.0, config)


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


def test_budget_overflow_guard(monkeypatch):
    monkeypatch.setattr(estimator, "CIRCUIT_CAP", 10)
    config = EstimatorConfig(n_segments=8, order=2, n_sample_0=100, n_shot_0=10)
    with pytest.raises(BudgetOverflow):
        estimate_qswift(REF, 1.0, config)
    # the cap guards correction buckets only, not the baseline
    assert estimate_qdrift(REF, 1.0, config).plan_count == 100


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(n_segments=0)
    with pytest.raises(ValueError):
        EstimatorConfig(n_segments=4, order=0)
    with pytest.raises(ValueError):
        EstimatorConfig(n_segments=2, order=3)
    with pytest.raises(ValueError):
        EstimatorConfig(n_segments=2, n_sample_0=0)
    with pytest.raises(ValueError):
        EstimatorConfig(n_segments=4, order=2, bucket_samples={(2,): 0})
    config = EstimatorConfig(n_segments=2, observable="XX")
    with pytest.raises(ValueError):
        config.observable_axes(REF)


def test_config_observable_forms():
    assert EstimatorConfig(n_segments=2, observable="x").observable_axes(REF) == "X"
    assert EstimatorConfig(n_segments=2).observable_axes(REF) == "Z"


def test_config_bucket_budget_overrides():
    config = EstimatorConfig(
        n_segments=4,
        order=2,
        n_sample_0=100,
        n_shot_0=7,
        bucket_samples={(2,): 55, (): 3},
    )
    # the baseline's count comes only from n_sample_0
    assert config.n_sample(()) == 100
    assert config.n_sample((2,)) == 55
    assert config.n_sample((3,)) == 100
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
    exact_plan_value = expectation(state, "Z")
    # one million pooled shots: 5 sigma is well under 0.005
    assert abs(got - exact_plan_value) <= 0.01
    assert (report.method, report.plan_count, report.shot_count) == ("TS2", 1, 10**6)
    assert report.stderr == np.sqrt((1 - got**2) / 10**6)


def test_estimate_trotter_zero_time():
    # |+> is an eigenstate of X: every shot reads +1
    config = EstimatorConfig(n_segments=1, n_sample_0=10, n_shot_0=10, observable="X")
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


@pytest.mark.parametrize("randomized", [False, True])
def test_estimate_trotter_rejects_zero_repetitions(randomized):
    # both branches refuse r = 0 with the same message, before any division
    config = EstimatorConfig(n_segments=1, n_sample_0=4, n_shot_0=4)
    with pytest.raises(ValueError, match="repetition count must be >= 1"):
        estimate_trotter(REF, 1.0, 0, 1, randomized=randomized, config=config)


def test_shot_readout_determinism_and_eigenstates():
    kernel = Kernel(parse_hamiltonian("1.0 ZI"), "XI")
    states = kernel.fresh(3)
    # row 1 flipped to |->: e^{i pi/2 Z}; row 2 rotated off the eigenbasis
    kernel.evolve(states, np.array([[-1], [0], [0]]), [np.pi / 2])
    kernel.evolve(states, np.array([[-1], [-1], [0]]), [-np.pi / 3])
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
    b_power = res.budgets["baseline"]["coeff"]
    assert b_power == pytest.approx(b_norm**n_seg, rel=1e-12)
    assert res.n_sample == n_sample
    ideal = oracle_value(ideal_channel(REF, t), plus_density(1), PAULI_Z)
    assert abs(res.value - ideal) <= 5 * res.stderr
    assert res.stderr <= b_power / np.sqrt(n_sample)
    assert res.stderr >= 0.05 * b_power / np.sqrt(n_sample)


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
    eps = 0.1 / np.sqrt(5)  # an even split over the 5 rows
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


def test_every_estimator_reports_through_one_shape():
    # qDRIFT, qSWIFT K = 2 and 3, all-order and both Trotter variants: the
    # value decomposes into baseline plus buckets, every plan reads the
    # baseline row's shots, and the JSON carries the same keys
    config = EstimatorConfig(n_segments=4, order=3, n_sample_0=12, n_shot_0=5, seed=3)
    reports = [
        estimate_qdrift(CHAIN, 1.0, config),
        estimate_qswift(CHAIN, 1.0, replace(config, order=2)),
        estimate_qswift(CHAIN, 1.0, config),
        all_order_stats(CHAIN, 1.0, 4, 12, 3),
        estimate_trotter(CHAIN, 1.0, 4, 2, True, config),
        estimate_trotter(CHAIN, 1.0, 4, 2, False, config),
    ]
    assert [r.method for r in reports] == ["QDRIFT", "QSWIFT2", "QSWIFT3", "ALLORDER",
                                           "RTS2", "TS2"]
    for report in reports:
        assert report.value == report.baseline + sum(report.bucket_values.values())
        assert report.shot_count == report.plan_count * report.budgets["baseline"]["n_shot"]
    assert len({tuple(r.to_json_dict()) for r in reports}) == 1


def test_deterministic_order_four_trotter_golden():
    # order 4 rescales every term between its Suzuki pieces, so its plan
    # runs as several code rows; pinned with == to the one-instruction-at-
    # a-time executor these rows replaced
    base = dict(n_segments=16, n_sample_0=200, n_shot_0=100, seed=7)
    report = estimate_trotter(CHAIN, 1.0, 16, 4, False, EstimatorConfig(**base))
    assert (report.method, report.value, report.stderr) == (
        "TS4", 0.2667999999999999, 0.006814755168015943
    )
    config = EstimatorConfig(observable="XIII", **base)
    assert estimate_trotter(CHAIN, 1.0, 16, 4, False, config).value == 0.7515000000000001
    state = run_plan(prepare_plus_input(4), trotter_plan(CHAIN, 1.0, 16, 4), CHAIN)
    assert expectation(state, "ZIII") == 0.26326349879352995


def randomized_trotter_loop(model, t: float, r: int, order: int, config) -> tuple:
    """(value, stderr) of the former randomized estimate_trotter, kept as the
    reference for its batch-derived streams: each plan draws its terms from
    a derived_rng of its own, evolves alone, and reads its shots from a
    second derived_rng."""
    kernel = Kernel(model, config.observable_axes(model))
    thetas = trotter_thetas(model, t, r, order)
    means = []
    for i in range(config.n_sample_0):
        plan_rng = derived_rng(config.seed, estimator._STREAM_TROTTER, i, estimator._SUB_PLAN)
        states = kernel.fresh(1, ancilla=False)
        kernel.evolve(states, draw_trotter_terms(model, r, order, plan_rng)[None], thetas)
        p_plus = np.clip(0.5 * (1.0 + kernel.read(states, ancilla_x=False)), 0.0, 1.0)
        shot_rng = derived_rng(config.seed, estimator._STREAM_TROTTER, i, estimator._SUB_SHOT)
        means.append(2.0 * shot_rng.binomial(config.n_shot_0, float(p_plus[0])) / config.n_shot_0
                     - 1.0)
    mean, var, _ = estimator._pooled_stats([np.array(means)])
    return mean, np.sqrt(var)


@pytest.mark.parametrize("order", [1, 2])
def test_randomized_trotter_matches_per_plan_streams(order, monkeypatch):
    # streams derived in one pass per chunk give every plan the draws and
    # shots of its own derived_rng, at any chunk size
    for seed in (0, 3, 2**40 + 3):
        config = EstimatorConfig(n_segments=4, n_sample_0=150, n_shot_0=50, seed=seed)
        want = randomized_trotter_loop(CHAIN, 1.0, 4, order, config)
        for chunk in (7, 64, 1 << 15):
            monkeypatch.setattr(estimator, "_STREAM_CHUNK", chunk)
            report = estimate_trotter(CHAIN, 1.0, 4, order, True, config)
            assert (report.value, report.stderr) == want


def test_one_observable_rule_at_every_entry_point():
    # one Pauli letter per system qubit, any case; None is Z on qubit 0
    def all_order(axes):
        return all_order_stats(CHAIN, 1.0, 2, 50, 3, observable_axes=axes).value

    assert all_order("ziii") == all_order("ZIII") == all_order(None)
    pair = parse_hamiltonian("0.5 XX\n0.3 ZI")
    assert exact_qdrift_value(pair, 1.0, 2, "zi") == exact_qdrift_value(pair, 1.0, 2)
    entry_points = (
        lambda axes: all_order_stats(CHAIN, 1.0, 2, 50, 3, observable_axes=axes),
        lambda axes: exact_qdrift_value(pair, 1.0, 2, observable_axes=axes),
        lambda axes: exact_qswift_value(pair, 1.0, 2, 2, observable_axes=axes),
        lambda axes: Kernel(pair, axes),
        lambda axes: plus_input_expectation(ideal_channel(pair, 1.0), axes),
        lambda axes: EstimatorConfig(n_segments=2, observable=axes).observable_axes(pair),
    )
    for call in entry_points:
        for bad in ("Z", "ZIZII", "ZQ", ""):
            with pytest.raises(ValueError, match="one Pauli letter per system qubit"):
                call(bad)


def test_all_order_power_overflow_is_refused():
    # tau = 99.75: B = 2e^{199.5} is finite, B^4 is not
    with pytest.raises(AllOrderOverflow):
        all_order_stats(CHAIN, 140.0, 4, 10, rng_seed=1)


def _replayed(model, ops, axes, ancilla_x) -> float:
    plan = GatePlan(ops=tuple(ops))
    state = run_plan(prepare_plus_input(model.n_qubits), plan, model)
    return expectation(state, axes, ancilla_x)


def concat_codes(blocks) -> np.ndarray:
    """The former compiler.concat_codes, kept as the reference for the
    in-place packing: consecutive (m, *) code blocks as one (m, L) array,
    each row's ops shifted left over PAD, L the longest row."""
    m = blocks[0].shape[0]
    codes = np.full((m, sum(block.shape[1] for block in blocks)), PAD, dtype=blocks[0].dtype)
    fill = np.zeros(m, dtype=np.intp)
    for block in blocks:
        for col in block.T:
            live = np.flatnonzero(col != PAD)
            codes[live, fill[live]] = col[live]
            fill[live] += 1
    return codes[:, : fill.max()]


@pytest.mark.parametrize("m", [1, 6])
def test_batched_rows_replay_as_plans(m):
    # plan_from_codes turns every batched row into a plan that run_plan
    # reproduces, and randomized_trotter_plan is the m = 1 draw decoded the
    # same way
    t, n_seg, axes = 1.0, 5, "ZIII"
    tau_angle = tau(CHAIN, t, n_seg)
    thetas = signed_angles(CHAIN, tau_angle)
    kernel = Kernel(CHAIN, axes)

    # the baseline bucket draws no slots: its codes are the qDRIFT draw
    draw = draw_swift_variant(CHAIN, n_seg, BASELINE, (), m, np.random.default_rng(5))
    codes = draw.codes((), CHAIN.n_terms)
    assert np.array_equal(codes, draw_qdrift(CHAIN, n_seg, m, np.random.default_rng(5)))
    states = kernel.fresh(m, ancilla=False)  # replayed below on the full register
    kernel.evolve(states, codes, thetas)
    vals = kernel.read(states, ancilla_x=False)
    # one draw call, so row 0 of any batch is the m = 1 draw
    assert np.array_equal(draw_qdrift(CHAIN, n_seg, 1, np.random.default_rng(5)), codes[:1])
    for row in range(m):
        plan = plan_from_codes(CHAIN, codes[row], thetas)
        assert abs(_replayed(CHAIN, plan.ops, axes, False) - vals[row]) <= 1e-12

    term = next(b for b in correction_terms(CHAIN, t, n_seg, 3) if b.n_vec == (2, 2))
    s_vec, b_vecs = (0, 1), ((0, 1), (1, 0))
    draw = draw_swift_variant(CHAIN, n_seg, term, s_vec, m, np.random.default_rng(9))
    codes = draw.codes(b_vecs, CHAIN.n_terms)
    states = kernel.fresh(m)
    kernel.evolve(states, codes, thetas)
    vals = kernel.read(states, ancilla_x=True)
    for row in range(m):
        plan = plan_from_codes(CHAIN, codes[row], thetas)
        assert abs(_replayed(CHAIN, plan.ops, axes, True) - vals[row]) <= 1e-12

    big_tau = 0.6  # blocks are drawn often enough to appear in a few rows
    big_thetas = signed_angles(CHAIN, big_tau)
    _, sizes, cat_probs = all_order_categories(big_tau)
    codes, signs = draw_all_order_codes(CHAIN, 1, sizes, cat_probs, m, np.random.default_rng(4))
    states = kernel.fresh(m)
    kernel.evolve(states, codes, big_thetas)
    vals = signs * kernel.read(states, ancilla_x=True)
    for row in range(m):
        plan = plan_from_codes(CHAIN, codes[row], big_thetas)
        assert abs(signs[row] * _replayed(CHAIN, plan.ops, axes, True) - vals[row]) <= 1e-12

    terms = draw_trotter_terms(CHAIN, 3, 2, np.random.default_rng(m))
    assert randomized_trotter_plan(CHAIN, t, 3, 2, np.random.default_rng(m)) == (
        plan_from_codes(CHAIN, terms, trotter_thetas(CHAIN, t, 3, 2))
    )


# chain_4q and 1-4 qubit models with Y strings and negative terms, each
# with its observable
IDLE_MODELS = {
    "chain_4q": (CHAIN, "ZIII"),
    "1q": (parse_hamiltonian("0.7 Y\n-0.4 Z\n0.3 X"), "Y"),
    "2q": (parse_hamiltonian("-0.6 YX\n0.5 ZY\n-0.2 XI"), "XY"),
    "3q": (parse_hamiltonian("0.45 YYI\n-0.3 IZX\n0.8 XIY\n-0.25 ZZZ"), "YZI"),
    "4q": (parse_hamiltonian("-0.5 YIXZ\n0.35 IYYI\n0.2 ZIIY\n-0.6 XXZI"), "IYXZ"),
}


def no_distinct_rows(monkeypatch):
    """Turn `_evolve_read`'s distinct-row step off: every row reaches the kernel."""
    monkeypatch.setattr(estimator, "_distinct_rows", lambda codes, n_terms: None)


@pytest.mark.parametrize("m", [3, 5000])
@pytest.mark.parametrize("name", sorted(IDLE_MODELS))
def test_idle_ancilla_variants_equal_full_register(name, m, monkeypatch):
    # a variant whose parts all share one index (s_j = 1) over an even n_j
    # leaves the ancilla idle: eps = prod_j (-1)^(n_j / 2 + |b_j|) times the
    # 2^n evolve and read of its idle codes is == the full-register readout
    # of its codes, for every such variant of K = 2-4. 3 rows take the
    # per-row schedule; 5,000 take the grouped one with the distinct-row
    # step off, since at N = 4 they repeat enough to collapse into a few
    # per-row tiles
    model, axes = IDLE_MODELS[name]
    if m > 3:
        no_distinct_rows(monkeypatch)
    thetas = signed_angles(model, tau(model, 1.0, 4))
    checked = 0
    for term in correction_terms(model, 1.0, 4, 4):
        if any(n % 2 for n in term.n_vec):
            continue
        s_vec = (1,) * term.k
        draw = draw_swift_variant(model, 4, term, s_vec, m, np.random.default_rng(term.xi))
        b_sets = list(term.b_vector_sets())
        # every variant's full rows in one call, which splits across the pool
        full = estimator._evolve_read(
            model, axes, np.concatenate([draw.codes(b_vecs, model.n_terms) for b_vecs in b_sets]),
            thetas, True).reshape(len(b_sets), m)
        for b_vecs, full_vals in zip(b_sets, full):
            eps = (-1) ** sum(n // 2 + sum(b) for n, b in zip(term.n_vec, b_vecs))
            idle = estimator._evolve_read(
                model, axes, draw.idle_codes(b_vecs, model.n_terms), thetas, False)
            assert np.array_equal(eps * idle, full_vals), (term.n_vec, b_vecs)
            checked += 1
    # (2,), (4,), (6,), (2, 2), (2, 4), (4, 2) and (2, 2, 2)
    assert checked == 4 + 16 + 64 + 16 + 64 + 64 + 64


def evolved_rows(monkeypatch, model, axes, codes, thetas, ancilla_x) -> tuple:
    """(`_evolve_read`'s values, the code rows `Kernel.evolve` received, in order)."""
    seen, real_evolve = [], Kernel.evolve

    def spy(self, states, tile_codes, *args):
        seen.append(np.array(tile_codes))
        return real_evolve(self, states, tile_codes, *args)

    monkeypatch.setattr(Kernel, "evolve", spy)
    vals = estimator._evolve_read(model, axes, codes, thetas, ancilla_x)
    monkeypatch.setattr(Kernel, "evolve", real_evolve)
    return vals, np.concatenate(seen)


def verify_all_order_chunk():
    """verify's all-order check: the reference model at t = 1.25, N = 4, and
    the first 32,768-trajectory chunk of seed 902."""
    model, n_seg = load_hamiltonian(str(resources.files("hamsim").joinpath(
        "data/reference_1q.txt"))), 4
    tau_angle = tau(model, 1.25, n_seg)
    _, sizes, cat_probs = all_order_categories(tau_angle)
    rng = derived_rng(902, estimator._STREAM_ALL_ORDER, 0)
    codes, _ = draw_all_order_codes(model, n_seg, sizes, cat_probs, DEFAULT_CHUNK, rng)
    return model, "Z", codes, signed_angles(model, tau_angle), True


def two_qubit_qdrift_draw():
    """32,768 qDRIFT rows of a 2-qubit model at N = 4, on 2^n amplitudes."""
    model, axes = IDLE_MODELS["2q"]
    codes = draw_qdrift(model, 4, DEFAULT_CHUNK, np.random.default_rng(3))
    return model, axes, codes, signed_angles(model, tau(model, 1.0, 4)), False


@pytest.mark.parametrize("inputs", [verify_all_order_chunk, two_qubit_qdrift_draw])
def test_repeated_rows_evolve_once(pool_settings, monkeypatch, inputs):
    # a row's value depends on its codes alone, so the kernel evolves each
    # distinct row once and every value is bitwise the one of evolving and
    # reading every row. One CPU: every evolve runs here, under the spy
    pool_settings()
    model, axes, codes, thetas, ancilla_x = inputs()
    distinct = np.unique(codes, axis=0)
    assert 1 < len(distinct) < len(codes) / 2
    vals, seen = evolved_rows(monkeypatch, model, axes, codes, thetas, ancilla_x)
    assert len(seen) == len(distinct)
    assert np.array_equal(np.unique(seen, axis=0), distinct)
    no_distinct_rows(monkeypatch)
    want, seen = evolved_rows(monkeypatch, model, axes, codes, thetas, ancilla_x)
    assert np.array_equal(seen, codes)
    assert np.array_equal(vals.view(np.uint64), want.view(np.uint64))


def test_rows_that_do_not_pack_or_repeat_reach_the_kernel_whole(pool_settings, monkeypatch):
    # digits code + 1 in base 3T + 1 pack into an int64 key up to
    # (3T + 1)^L = 2^63: chain_4q (T = 7) packs 14 columns, not 16 even
    # when rows repeat, and rows that are all distinct take the plain path
    pool_settings()
    model, axes = CHAIN, "ZIII"
    thetas = signed_angles(model, tau(model, 1.0, 16))
    drawn = draw_qdrift(model, 16, 500, np.random.default_rng(2))
    repeated = np.concatenate([drawn, drawn])
    assert estimator._distinct_rows(repeated, model.n_terms) is None
    _, seen = evolved_rows(monkeypatch, model, axes, repeated, thetas, False)
    assert np.array_equal(seen, repeated)

    top = 3 * model.n_terms - 1  # the largest code: digit 21
    wide = np.full((3, 14), top, dtype=drawn.dtype)
    wide[1, 0] = PAD  # differs from row 0 in the top digit only
    first, inverse = estimator._distinct_rows(wide, model.n_terms)
    assert np.array_equal(wide[first][inverse], wide) and len(first) == 2
    assert estimator._distinct_rows(np.full((3, 15), top), model.n_terms) is None

    distinct = np.array(list(product(range(model.n_terms), repeat=4)))
    assert estimator._distinct_rows(distinct, model.n_terms) is None
    _, seen = evolved_rows(monkeypatch, model, axes, distinct, thetas, False)
    assert np.array_equal(seen, distinct)


@pytest.fixture
def pool_settings(monkeypatch):
    """set_pool(cpus, tile_rows, tile_bytes, row_amps) shuts the process pool
    down and patches these values, so the next map forks workers that read
    them: a forked worker keeps the module values it was forked with. With
    no arguments: the defaults on one CPU, where every job runs here. The
    pool the test leaves is shut down at teardown, before the patches are
    undone."""

    def fresh_pool():
        estimator._shutdown_pool()
        estimator._pool.cache_clear()

    def set_pool(cpus=1, tile_rows=estimator._TILE_ROWS, tile_bytes=estimator._TILE_BYTES,
                 row_amps=statevector.ROW_SCHEDULE_AMPS):
        fresh_pool()
        monkeypatch.setattr(estimator, "_cpus", lambda: cpus)
        monkeypatch.setattr(estimator, "_TILE_ROWS", tile_rows)
        monkeypatch.setattr(estimator, "_TILE_BYTES", tile_bytes)
        monkeypatch.setattr(statevector, "ROW_SCHEDULE_AMPS", row_amps)

    yield set_pool
    fresh_pool()


@dataclass(frozen=True)
class Case:
    """Estimates on one model at time t and N = n_seg segments, each with its
    own count (0 skips it): qDRIFT and order-K qSWIFT samples, qSWIFT bucket
    overrides, all-order trajectories, and randomized Trotter plans (r = N,
    order min(K, 2)), which also give the deterministic order-1 Trotter
    estimate its n_sample_0. exhaustive = (t, N) runs both oracles there:
    the qDRIFT enumeration and that of the first correction bucket, if N > 1."""

    model: HamiltonianModel
    t: float
    n_seg: int
    order: int
    seed: int
    shots: int = 10
    qdrift: int = 0
    qswift: int = 0
    buckets: tuple = ()
    all_order: int = 0
    trotter: int = 0
    exhaustive: tuple = ()

    def reports(self) -> list:
        """Every report's to_json_dict(), then the oracles' floats."""
        model, t = self.model, self.t
        config = EstimatorConfig(n_segments=self.n_seg, order=self.order, n_shot_0=self.shots,
                                 seed=self.seed, bucket_samples=dict(self.buckets))
        reports = []
        if self.qdrift:
            reports.append(estimate_qdrift(model, t, replace(config, n_sample_0=self.qdrift)))
        if self.qswift:
            reports.append(estimate_qswift(model, t, replace(config, n_sample_0=self.qswift)))
        if self.all_order:
            reports.append(all_order_stats(model, t, self.n_seg, self.all_order, self.seed))
        if self.trotter:
            plans = replace(config, n_sample_0=self.trotter)
            reports += [estimate_trotter(model, t, self.n_seg, min(self.order, 2), True, plans),
                        estimate_trotter(model, t, self.n_seg, 1, False, plans)]
        values = [report.to_json_dict() for report in reports]
        if self.exhaustive:
            t_ex, n_ex = self.exhaustive
            values.append(exact_qdrift_value(model, t_ex, n_ex))
            values += [eval_correction_exact(model, t_ex, n_ex, term)
                       for term in correction_terms(model, t_ex, n_ex, min(n_ex, 2))[:1]]
        return values


@st.composite
def small_cases(draw) -> Case:
    """A 1-3 qubit model of 1-4 distinct Pauli terms, t, N <= 3, K <= N,
    small budgets for every estimator and both oracles at (t, N)."""
    strings = ["".join(axes) for axes in product("IXYZ", repeat=draw(st.integers(1, 3)))]
    axes = draw(st.permutations(strings))[: draw(st.integers(1, 4))]
    coeffs = draw(st.lists(st.sampled_from((-0.7, -0.25, 0.3, 0.45, 1.0)),
                           min_size=len(axes), max_size=len(axes)))
    model = parse_hamiltonian("\n".join(f"{c} {a}" for c, a in zip(coeffs, axes)))
    t = draw(st.sampled_from((0.3, 1.0, 1.7)))
    n_seg = draw(st.integers(1, 3))
    order = draw(st.integers(1, n_seg))
    return Case(model, t, n_seg, order, seed=draw(st.integers(0, 2**64 - 1)),
                shots=draw(st.integers(1, 20)), qdrift=draw(st.integers(1, 40)),
                qswift=draw(st.integers(1, 8)), all_order=draw(st.integers(1, 60)),
                trotter=draw(st.integers(1, 40)), exhaustive=(t, n_seg))


DEFAULT_CHUNK = estimator._STREAM_CHUNK
# chain_4q at small sizes, 16-row chunks giving every sampled estimator
# several chunks
SMALL_CHAIN = Case(CHAIN, 1.0, 4, 3, seed=11, qdrift=40, qswift=40,
                   buckets=(((2,), 5), ((3,), 3), ((4,), 2), ((2, 2), 2)),
                   all_order=50, trotter=40, exhaustive=(0.5, 2))
# each estimate holds more amplitudes than one batch of four 2 MiB tiles.
# 1,000-row chunks split all-order and randomized Trotter into jobs, and
# the (2,) and (2, 2) buckets take two batches each. At the default chunk
# the 20,000-trajectory all-order estimate is one job, and the 5-qubit (2,)
# bucket enumerates 13,122-row chunks (13.4 MB of amplitudes): both split
# their rows over the pool. 40,000 qDRIFT samples are two jobs of unequal
# size, 32,768 and 7,232 rows
LARGE_QSWIFT = Case(CHAIN, 1.0, 16, 3, seed=5, shots=100, qswift=2000,
                    buckets=(((2,), 2500), ((3,), 300), ((4,), 100), ((2, 2), 300)))
LARGE_ALL_ORDER = Case(CHAIN, 1.0, 16, 1, seed=5, all_order=20000)
LARGE_RTROTTER = Case(CHAIN, 1.0, 1, 1, seed=5, shots=100, trotter=33000)
FIVE_QUBIT = Case(parse_hamiltonian("0.45 XXIII\n0.375 ZIIII\n0.45 IXXII"), 1.0, 6, 1, seed=5,
                  exhaustive=(1.0, 6))
LARGE_QDRIFT = Case(CHAIN, 1.0, 16, 1, seed=5, shots=100, qdrift=40000)
# a baseline and a (2,) bucket job, each under one batch of amplitudes
TWO_JOB_QSWIFT = Case(CHAIN, 1.0, 16, 2, seed=5, shots=100, qswift=2000, buckets=(((2,), 2000),))
DISTINCT_ROWS = estimator._distinct_rows
DEFAULT_TILES = dict(tile_rows=estimator._TILE_ROWS, tile_bytes=estimator._TILE_BYTES,
                     row_amps=statevector.ROW_SCHEDULE_AMPS)


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=small_cases(), chunk=st.sampled_from((16, DEFAULT_CHUNK)),
       cpus=st.sampled_from((1, 2, 3)), tile_rows=st.sampled_from((1, 3, estimator._TILE_ROWS)),
       tile_bytes=st.sampled_from((1 << 10, estimator._TILE_BYTES)),
       row_amps=st.sampled_from((0, statevector.ROW_SCHEDULE_AMPS, 1 << 40)),
       distinct=st.booleans())
@example(case=SMALL_CHAIN, chunk=16, cpus=3, tile_rows=1, tile_bytes=1 << 10, row_amps=0,
         distinct=False)
@example(case=SMALL_CHAIN, chunk=16, cpus=3, tile_rows=3, tile_bytes=1 << 10, row_amps=1 << 40,
         distinct=True)
@example(case=TWO_JOB_QSWIFT, chunk=DEFAULT_CHUNK, cpus=3, **DEFAULT_TILES, distinct=True)
@example(case=LARGE_ALL_ORDER, chunk=DEFAULT_CHUNK, cpus=2, **DEFAULT_TILES, distinct=True)
@example(case=FIVE_QUBIT, chunk=DEFAULT_CHUNK, cpus=2, **DEFAULT_TILES, distinct=True)
@example(case=LARGE_QDRIFT, chunk=DEFAULT_CHUNK, cpus=2, **DEFAULT_TILES, distinct=True)
def test_reports_independent_of_workers_and_tiles(
    pool_settings, monkeypatch, case, chunk, cpus, tile_rows, tile_bytes, row_amps, distinct
):
    # streams fix every draw; workers, tiles, tile runs, the evolve
    # schedule (ROW_SCHEDULE_AMPS 0: every tile grouped, 2^40: every tile
    # per row) and whether repeated rows evolve once only schedule rows,
    # and the caller reduces in job order. So every report, the exhaustive
    # oracles included, is == the one-CPU run at the default tiles, with
    # the same stream chunk. 1 KiB tiles map every call of more than 256
    # amplitudes over the pool; without the distinct-row step the rows of
    # these small models, which repeat often, reach the pool and the
    # grouped schedule whole
    monkeypatch.setattr(estimator, "_STREAM_CHUNK", chunk)
    monkeypatch.setattr(estimator, "_distinct_rows", DISTINCT_ROWS)
    pool_settings()
    want = case.reports()
    if not distinct:
        no_distinct_rows(monkeypatch)
    pool_settings(cpus, tile_rows, tile_bytes, row_amps)
    assert case.reports() == want


def test_reports_independent_of_tiles(pool_settings, monkeypatch):
    # on one CPU, tiles and the evolve schedule only schedule rows: any tile
    # bound and ROW_SCHEDULE_AMPS (0: every tile grouped, 2^40: every tile
    # per row) gives == reports, the exhaustive oracles included. 16-row
    # stream chunks give every sampled estimator several chunks
    monkeypatch.setattr(estimator, "_STREAM_CHUNK", 16)
    pool_settings()
    want = SMALL_CHAIN.reports()
    for row_amps in (0, 1 << 40):
        for tile_rows in (1, 3, estimator._TILE_ROWS):
            pool_settings(tile_rows=tile_rows, row_amps=row_amps)
            assert SMALL_CHAIN.reports() == want, (row_amps, tile_rows)


def test_pooled_reports_equal_in_process(pool_settings, monkeypatch):
    # every job is a function of its arguments and the reduction runs here
    # in job order, so a pool of two workers changes no report. 1,000-row
    # stream chunks split all-order and randomized Trotter into jobs
    monkeypatch.setattr(estimator, "_STREAM_CHUNK", 1000)
    for name, case in (("qswift3", LARGE_QSWIFT), ("all_order", LARGE_ALL_ORDER),
                       ("rtrotter", LARGE_RTROTTER)):
        pool_settings()
        in_process = case.reports()
        pool_settings(cpus=2)
        if estimator._pool() is None:
            pytest.skip("no process pool without fork")
        assert case.reports() == in_process, name


def test_pool_maps_jobs_and_splits_large_evolves(pool_settings, monkeypatch):
    # with 3 CPUs the one-chunk all-order estimate draws here and maps its
    # 20,000 rows as three equal runs of rows, one per CPU; the qSWIFT
    # estimate of two jobs maps only its jobs. With 1 KiB tiles and 16-row
    # chunks the small chain_4q case maps each of the four job functions
    def recorded_maps(**settings) -> list:
        """(function name, calls) of every map on a new pool with settings."""
        pool_settings(cpus=3, **settings)
        pool = estimator._pool()
        if pool is None:
            pytest.skip("no process pool without fork")
        maps, real_map = [], pool.map

        def recording_map(fn, *iterables):
            calls = list(zip(*iterables))
            maps.append((fn.__name__, len(calls)))
            return real_map(fn, *zip(*calls))

        monkeypatch.setattr(pool, "map", recording_map)
        return maps

    maps = recorded_maps()
    LARGE_ALL_ORDER.reports()
    TWO_JOB_QSWIFT.reports()
    assert maps == [("_evolve_tiles", 3), ("_bucket_job", 2)]
    maps = recorded_maps(tile_bytes=1 << 10)
    monkeypatch.setattr(estimator, "_STREAM_CHUNK", 16)
    SMALL_CHAIN.reports()
    assert {name for name, _ in maps} == {
        "_bucket_job", "_all_order_job", "_trotter_job", "_evolve_tiles"}


def test_worker_errors_keep_their_type(pool_settings, monkeypatch, capsys, tmp_path):
    # a model whose op codes overflow is refused inside the jobs: the
    # worker's ValueError reaches the caller as a ValueError, chained to the
    # worker's traceback, and the CLI exits 2 with the same message as on
    # one CPU
    pool_settings(cpus=2)
    if estimator._pool() is None:
        pytest.skip("no process pool without fork")
    over = parse_hamiltonian("\n".join(
        f"0.001 {''.join('IXYZ'[(i >> (2 * q)) & 3] for q in range(7))}"
        for i in range(1, 10924)))
    # 2,700 qSWIFT circuits and 2,100 trajectories pass one batch of 7-qubit
    # rows (2,048); 1,000-row stream chunks split them
    monkeypatch.setattr(estimator, "_STREAM_CHUNK", 1000)
    config = EstimatorConfig(n_segments=4, order=2, n_sample_0=300, n_shot_0=1, seed=1)
    for estimate in (
        lambda: estimate_qswift(over, 0.1, config),
        lambda: all_order_stats(over, 0.1, 4, 2100, 1),
    ):
        with pytest.raises(ValueError, match="^10923 terms overflow the op codes$") as caught:
            estimate()
        assert type(caught.value.__cause__).__name__ == "_RemoteTraceback"
    path = tmp_path / "over.txt"
    path.write_text("\n".join(f"{term.coefficient} {term.axes}" for term in over.terms))
    argv = ["simulate", "--hamiltonian", str(path), "--samples", "300", "--shots", "1"]

    def simulate():
        rc = cli_main(argv)
        return rc, capsys.readouterr()

    pooled = simulate()
    pool_settings()
    assert simulate() == pooled
    assert pooled[0] == 2 and "overflow the op codes" in pooled[1].err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_pool_workers_exit_with_the_interpreter():
    # 360 circuits fit one batch of four 4,096-row tiles and run here;
    # 36,000 start the pool. At exit its workers are joined and nothing is
    # printed, so no worker outlives the interpreter
    script = """
import multiprocessing
from importlib import resources
from hamsim import EstimatorConfig, estimate_qswift, load_hamiltonian
model = load_hamiltonian(str(resources.files("hamsim").joinpath("data/chain_4q.txt")))
for n_sample in (40, 4000):
    estimate_qswift(model, 1.0, EstimatorConfig(n_segments=4, order=2, n_sample_0=n_sample))
    print(*sorted(proc.pid for proc in multiprocessing.active_children()))
"""
    src = str(Path(estimator.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (out.returncode, out.stderr) == (0, "")
    small, large = out.stdout.split("\n")[:2]
    assert small == ""
    pids = [int(pid) for pid in large.split()]
    assert bool(pids) == (estimator._pool() is not None)
    assert not [pid for pid in pids if Path(f"/proc/{pid}").exists()]


def _gone_or_zombie(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="no process pool on one CPU")
def test_pool_workers_exit_with_a_parent_that_skips_exit_hooks():
    # os._exit runs no atexit hook, so nothing joins the pool: each worker
    # notices that its parent is gone within a poll and exits, where it
    # would otherwise hold the parent's stdout open for good
    script = """
import os
from importlib import resources
from hamsim import EstimatorConfig, estimate_qdrift, estimator, load_hamiltonian
model = load_hamiltonian(str(resources.files("hamsim").joinpath("data/chain_4q.txt")))
estimate_qdrift(model, 1.0, EstimatorConfig(n_segments=16, n_sample_0=40000))
pool = estimator._pool()
print(*sorted(pool._processes) if pool else [], flush=True)
os._exit(0)
"""
    src = str(Path(estimator.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    pids = []
    try:
        # read one line, not to EOF: surviving workers keep the pipe open
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert proc.wait(timeout=120) == 0
        if not pids:
            pytest.skip("no process pool without fork")
        deadline = time.monotonic() + 5
        while not all(map(_gone_or_zombie, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if not _gone_or_zombie(pid)] == []
    finally:
        for pid in pids:
            if not _gone_or_zombie(pid):
                os.kill(pid, signal.SIGKILL)
        proc.kill()
        proc.stdout.close()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks children")
def test_estimates_in_forked_children():
    # a sweep over a fork Pool runs each estimate in a daemonic worker, and a
    # forked Process child is not daemonic: both run their jobs in-process,
    # before and after the parent started its pool. None waits on the
    # parent's copied pool or blocks its exit on its own, and all report ==
    script = """
import multiprocessing
from importlib import resources
from hamsim import EstimatorConfig, estimate_qswift, estimator, load_hamiltonian
model = load_hamiltonian(str(resources.files("hamsim").joinpath("data/chain_4q.txt")))
config = EstimatorConfig(n_segments=4, order=2, n_sample_0=4000, seed=1)

def report(conn=None):
    out = estimate_qswift(model, 1.0, config).to_json_dict()
    return conn.send(out) if conn else out

def in_children():
    ctx = multiprocessing.get_context("fork")
    workers = ctx.Pool(1)
    reports = [workers.apply_async(report).get(60)]
    workers.close()
    workers.join()
    recv, send = ctx.Pipe(False)
    child = ctx.Process(target=report, args=(send,))
    child.start()
    reports.append(recv.recv() if recv.poll(60) else None)
    child.join(60)
    return reports, child.exitcode

before, before_exit = in_children()
parent = report()
after, after_exit = in_children()
print(estimator._pool() is not None, before_exit, after_exit,
      all(got == parent for got in before + after))
"""
    src = str(Path(estimator.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (out.returncode, out.stderr) == (0, "")
    pooled = len(os.sched_getaffinity(0)) > 1
    assert out.stdout.split() == [str(pooled), "0", "0", "True"]


def test_pool_restarts_after_a_worker_dies(pool_settings):
    # a worker killed between estimates (a signal, the OOM killer) breaks
    # its pool; the next pooled estimate starts a new pool and reports ==
    pool_settings(cpus=2)
    if estimator._pool() is None:
        pytest.skip("no process pool without fork")
    config = EstimatorConfig(n_segments=4, order=2, n_sample_0=4000, seed=1)
    want = estimate_qswift(CHAIN, 1.0, config).to_json_dict()
    pool = estimator._pool()
    os.kill(next(iter(pool._processes)), signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not pool._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    assert pool._broken
    assert estimate_qswift(CHAIN, 1.0, config).to_json_dict() == want
    assert estimator._pool() not in (None, pool)


def test_wide_register_memory_stays_tiled():
    # qDRIFT on a 16-qubit chain: an untiled 256-row block of the extended
    # register alone would take 256 * 2^17 * 16 B = 512 MiB. The traced peak
    # covers NumPy buffers only: one 2 MiB tile and its 2 MiB ping-pong
    # partner plus the readout's copies, which read_rows bounds by reading
    # in blocks. Traced 26.7 MiB and ru_maxrss 63 MiB (85.7 and 122 MiB
    # with one 32 MiB tile and no partner)
    script = """
import resource, sys, tracemalloc
from hamsim import EstimatorConfig, estimate_qdrift, parse_hamiltonian
n = 16
xx = [f"0.45 {'I' * i}XX{'I' * (n - i - 2)}" for i in range(n - 1)]
z = [f"0.375 {'I' * i}Z{'I' * (n - i - 1)}" for i in range(n)]
model = parse_hamiltonian("\\n".join(xx + z))
tracemalloc.start()
report = estimate_qdrift(model, 0.3, EstimatorConfig(n_segments=2, n_sample_0=256, seed=1))
assert report.plan_count == 256
print(tracemalloc.get_traced_memory()[1], resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""
    src = str(Path(estimator.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    traced, maxrss = (int(v) for v in out.stdout.split()[-2:])
    assert traced / 2**20 < 100
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    peak_mib = maxrss / (2**20 if sys.platform == "darwin" else 2**10)
    assert peak_mib < 400


@pytest.mark.parametrize("model", [CHAIN, REF], ids=["chain_4q", "reference_1q"])
def test_all_order_codes_pack_like_concat_codes(model):
    # draw_all_order_codes packs N segments in place; N one-segment draws
    # on one generator, joined by concat_codes, are the same array, and the
    # signs are the product of the per-segment signs
    n_seg, m = 6, 400
    for tau_angle in (0.178, 0.6):
        _, sizes, cat_probs = all_order_categories(tau_angle)
        codes, signs = draw_all_order_codes(model, n_seg, sizes, cat_probs, m,
                                            np.random.default_rng(8))
        rng = np.random.default_rng(8)
        segments = [draw_all_order_codes(model, 1, sizes, cat_probs, m, rng)
                    for _ in range(n_seg)]
        want = concat_codes([seg_codes for seg_codes, _ in segments])
        want_signs = np.prod([seg_signs for _, seg_signs in segments], axis=0)
        assert codes.dtype == want.dtype and np.array_equal(codes, want)
        assert np.array_equal(signs, want_signs)
        no_block = ((codes >= 0) & (codes < model.n_terms)).sum(axis=1) == n_seg
        if tau_angle < 0.5:  # rows with no block among rows with blocks
            assert no_block.any() and not no_block.all()
        else:  # long rows: the code array grew past its first width
            assert codes.shape[1] > 2 * n_seg


def _traced_peak_mib(fn) -> float:
    """tracemalloc peak of NumPy and Python allocations while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_bucket_memory_peak(monkeypatch):
    # criterion 10's (2,) bucket: 8 variants x 12,000 rows in batches of
    # about four 4,096-row tiles. One reused 4 MiB buffer (a 2 MiB tile and
    # its ping-pong partner), int16 draws and 512 KiB readout blocks bound
    # the peak: 8.1 MiB (9.1 MiB with one 4 MiB 8,192-row tile and
    # per-group copies, 15.7 MiB with a fresh tile per tile and 8 MiB
    # blocks). tracemalloc sees only this process, so the batches run here
    term = next(b for b in correction_terms(CHAIN, 1.0, 16, 2) if b.n_vec == (2,))
    config = EstimatorConfig(n_segments=16, order=2, bucket_samples={(2,): 12000},
                             seed=3, threads=1)
    # one untraced tiny run first, so kernel and model caches built on first
    # use count in no test order
    warm = EstimatorConfig(n_segments=16, order=2, bucket_samples={(2,): 8}, seed=3, threads=1)
    monkeypatch.setattr(estimator, "_pool", lambda: None)
    estimator._estimate(CHAIN, 1.0, warm, [term])
    peak = _traced_peak_mib(lambda: estimator._estimate(CHAIN, 1.0, config, [term]))
    print(f"traced peak {peak:.2f} MiB")
    assert peak < 11


def test_all_order_memory_peak(monkeypatch):
    # 20,000 trajectories of 16 segments, packed in place into one code
    # array: 6.9 MiB with 2 MiB tiles and their partners (7.3 MiB with 4 MiB
    # tiles and per-group copies, 17.2 MiB with padded per-segment arrays
    # joined afterwards); warmed untraced and run here like the bucket peak
    monkeypatch.setattr(estimator, "_pool", lambda: None)
    all_order_stats(CHAIN, 1.0, 16, 8, 3)
    peak = _traced_peak_mib(lambda: all_order_stats(CHAIN, 1.0, 16, 20000, 3))
    print(f"traced peak {peak:.2f} MiB")
    assert peak < 10
