"""Plan construction: product formulas, importance sampling, correction buckets."""

from importlib import resources
from math import comb, exp, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hamsim import (
    AllOrderOverflow,
    OrderExceedsSegments,
    all_order_b,
    correction_terms,
    parse_hamiltonian,
    plan_from_text,
    plan_to_text,
    tau,
)
from hamsim.compiler import (
    BASELINE,
    CODE_DTYPE,
    COUNT_DRAWS_PER_EDGE,
    COUNT_MAX_EDGES,
    PAD,
    CorrectionTerm,
    GatePlan,
    SwiftDraw,
    SwiftOp,
    TimeOp,
    all_order_categories,
    draw_all_order_codes,
    draw_categorical,
    draw_qdrift,
    draw_swift_variant,
    draw_trotter_terms,
    enumerate_g2,
    plan_codes,
    plan_from_codes,
    randomized_trotter_plan,
    signed_angles,
    trotter_plan,
    trotter_thetas,
    validate_plan,
)

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_string(axes: str) -> np.ndarray:
    mat = np.array([[1.0 + 0j]])
    for ax in axes:
        mat = np.kron(mat, PAULI_1Q[ax])
    return mat


def plan_unitary(plan: GatePlan, model) -> np.ndarray:
    """System-register unitary of a TimeOp-only plan."""
    dim = 1 << model.n_qubits
    total = np.eye(dim, dtype=complex)
    for op in plan.ops:
        axes = model.term(op.ell).axes
        total = expm(1j * op.angle * dense_string(axes)) @ total
    return total


MODEL = parse_hamiltonian("0.5 XZ\n-0.3 ZI\n0.2 YY")


# Plans of one drawn row, decoded by plan_from_codes; seed is an int or a
# Generator the draw continues.
def qdrift_row_plan(model, t, n_seg, seed) -> GatePlan:
    codes = draw_qdrift(model, n_seg, 1, np.random.default_rng(seed))
    thetas = signed_angles(model, tau(model, t, n_seg))
    return plan_from_codes(model, codes[0], thetas)


def swift_row_plan(model, t, n_seg, term, s_vec, b_vecs, seed) -> GatePlan:
    draw = draw_swift_variant(model, n_seg, term, s_vec, 1, np.random.default_rng(seed))
    thetas = signed_angles(model, tau(model, t, n_seg))
    return plan_from_codes(model, draw.codes(b_vecs, model.n_terms)[0], thetas)


def all_order_row(model, tau_angle, seed) -> tuple:
    """(sign, ops) of one all-order segment."""
    _, sizes, cat_probs = all_order_categories(tau_angle)
    codes, signs = draw_all_order_codes(
        model, 1, sizes, cat_probs, 1, np.random.default_rng(seed))
    plan = plan_from_codes(model, codes[0], signed_angles(model, tau_angle))
    return int(signs[0]), plan.ops


@pytest.mark.parametrize("order,per_segment", [(1, 1), (2, 2), (4, 10)])
def test_trotter_op_counts(order, per_segment):
    r = 3
    plan = trotter_plan(MODEL, 1.0, r, order)
    assert sum(isinstance(op, TimeOp) for op in plan.ops) == per_segment * r * MODEL.n_terms
    assert sum(isinstance(op, SwiftOp) for op in plan.ops) == 0


@pytest.mark.parametrize("order", [1, 2, 4, 6])
def test_trotter_total_angle_per_term(order):
    # fractions of every decomposition sum to 1, so each term evolves c_ell * t
    t, r = 0.7, 2
    plan = trotter_plan(MODEL, t, r, order)
    for ell in range(1, MODEL.n_terms + 1):
        total = sum(op.angle for op in plan.ops if op.ell == ell)
        assert total == pytest.approx(MODEL.term(ell).coefficient * t, abs=1e-12)


def test_trotter_order_two_is_palindrome():
    plan = trotter_plan(MODEL, 0.9, 1, 2)
    ops = plan.ops
    assert ops == tuple(reversed(ops))


def test_trotter_error_drops_with_order():
    t = 0.6
    target = expm(1j * t * (
        0.5 * dense_string("XZ") - 0.3 * dense_string("ZI") + 0.2 * dense_string("YY")
    ))
    errs = {}
    for order in (1, 2, 4):
        u = plan_unitary(trotter_plan(MODEL, t, 4, order), MODEL)
        errs[order] = np.linalg.norm(u - target)
    assert errs[2] < 0.2 * errs[1]
    assert errs[4] < 0.2 * errs[2]


def test_trotter_validation():
    with pytest.raises(ValueError):
        trotter_plan(MODEL, 1.0, 0, 1)
    with pytest.raises(ValueError):
        trotter_plan(MODEL, 1.0, 2, 3)


def test_randomized_trotter_structure_and_determinism():
    plan_a = randomized_trotter_plan(MODEL, 1.0, 4, 1, rng_seed=9)
    plan_b = randomized_trotter_plan(MODEL, 1.0, 4, 1, rng_seed=9)
    assert plan_a == plan_b
    for seg in range(4):
        ells = [op.ell for op in plan_a.ops[seg * 3 : (seg + 1) * 3]]
        assert sorted(ells) == [1, 2, 3]


def test_randomized_trotter_order_two_mirrors_each_segment():
    plan = randomized_trotter_plan(MODEL, 1.0, 3, 2, rng_seed=11)
    per = 2 * MODEL.n_terms
    for seg in range(3):
        chunk = plan.ops[seg * per : (seg + 1) * per]
        assert chunk == tuple(reversed(chunk))


def trotter_terms_loop(n_terms: int, r: int, order: int, rng) -> np.ndarray:
    """The former draw_trotter_terms, kept as the reference for the one
    permuted() call: a permutation() per segment, mirrored for order 2."""
    perms = [rng.permutation(n_terms) for _ in range(r)]
    if order == 2:
        perms = [np.concatenate([perm, perm[::-1]]) for perm in perms]
    return np.concatenate(perms)


@pytest.mark.parametrize("order", [1, 2])
def test_draw_trotter_terms_matches_permutation_loop(order):
    # the same terms as CODE_DTYPE, and the generator left in the same
    # state, from one segment (r = 1) and a one-term model up: m plans are
    # m r segments of one draw, each a permutation() in turn. The decoded
    # m = 1 row is randomized_trotter_plan's plan
    for n_terms in (1, 2, 3, 7, 23):
        model = parse_hamiltonian("\n".join(
            f"0.{i % 9 + 1} " + "".join("IXYZ"[(i >> (2 * q)) & 3] for q in range(3))
            for i in range(1, n_terms + 1)
        ))
        for r in (1, 2, 16, 33):
            thetas = trotter_thetas(model, 1.0, r, order)
            for seed in range(5):
                m = 1 + seed % 3
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                got = draw_trotter_terms(model, r, order, ours, m)
                want = np.stack([trotter_terms_loop(n_terms, r, order, theirs) for _ in range(m)])
                assert got.dtype == CODE_DTYPE and np.array_equal(got, want)
                assert ours.random() == theirs.random()
                assert randomized_trotter_plan(model, 1.0, r, order, seed) == plan_from_codes(
                    model, trotter_terms_loop(n_terms, r, order, np.random.default_rng(seed)),
                    thetas)


def test_randomized_trotter_rejects_higher_orders():
    with pytest.raises(ValueError):
        randomized_trotter_plan(MODEL, 1.0, 2, 4, rng_seed=0)


def test_qdrift_plan_shape_and_angles():
    n_seg = 50
    plan = qdrift_row_plan(MODEL, 1.3, n_seg, 5)
    assert sum(isinstance(op, TimeOp) for op in plan.ops) == n_seg
    tau_angle = tau(MODEL, 1.3, n_seg)
    for op in plan.ops:
        assert abs(op.angle) == pytest.approx(tau_angle, abs=1e-15)
        assert np.sign(op.angle) == MODEL.term(op.ell).sign
    assert plan == qdrift_row_plan(MODEL, 1.3, n_seg, 5)
    assert plan != qdrift_row_plan(MODEL, 1.3, n_seg, 6)


def test_qdrift_plan_frequencies_track_importance_weights():
    n_seg = 4000
    plan = qdrift_row_plan(MODEL, 1.0, n_seg, 123)
    counts = np.bincount([op.ell for op in plan.ops], minlength=4)[1:]
    assert np.allclose(counts / n_seg, MODEL.probs, atol=0.05)


def test_qdrift_plan_validation():
    with pytest.raises(ValueError):
        qdrift_row_plan(MODEL, 1.0, 0, 1)


def test_validate_plan_errors():
    good = GatePlan(ops=(TimeOp(1, 0.1), SwiftOp(2, 1)))
    validate_plan(good, MODEL)
    with pytest.raises(ValueError):
        validate_plan(GatePlan(ops=(TimeOp(4, 0.1),)), MODEL)
    with pytest.raises(ValueError):
        validate_plan(GatePlan(ops=(SwiftOp(1, 2),)), MODEL)


def test_plan_text_bad_line():
    with pytest.raises(ValueError):
        plan_from_text("T 1 0.5\nQ 2 3\n")


@pytest.mark.parametrize("bad", ["T x 0.1", "T 1 0.5x", "T 1 nan", "T 1 inf", "T 1 -inf",
                                 "S 1 y", "S 1.5 0", "T 1", "S 1 0 0"])
def test_plan_text_bad_field_names_its_line(bad):
    with pytest.raises(ValueError, match="^line 2: "):
        plan_from_text(f"T 1 0.5\n{bad}\nS 2 1\n")


def test_validate_plan_refuses_what_cannot_run():
    for angle in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="not finite"):
            validate_plan(GatePlan(ops=(TimeOp(1, angle),)), MODEL)
    with pytest.raises(TypeError, match="unknown instruction"):
        validate_plan(GatePlan(ops=(TimeOp(1, 0.1), (1, 0.1))), MODEL)


op_strategy = st.one_of(
    st.builds(
        TimeOp,
        ell=st.integers(min_value=1, max_value=9),
        angle=st.floats(min_value=-10, max_value=10, allow_nan=False),
    ),
    st.builds(SwiftOp, ell=st.integers(min_value=1, max_value=9), b=st.integers(0, 1)),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(op_strategy, min_size=0, max_size=40))
def test_plan_text_roundtrip(ops):
    plan = GatePlan(ops=tuple(ops))
    assert plan_from_text(plan_to_text(plan)) == plan


def _code_rows(model, rng):
    """(tag, codes row, thetas) from every sampler that writes op codes."""
    n_seg, m = 6, 4
    thetas = signed_angles(model, tau(model, 1.0, n_seg))
    yield "qdrift", draw_qdrift(model, n_seg, m, rng), thetas
    term = next(t for t in correction_terms(model, 1.0, n_seg, 3) if t.n_vec == (2, 2))
    draw = draw_swift_variant(model, n_seg, term, (1, 0), m, rng)
    yield "swift", draw.codes(((0, 1), (1, 1)), model.n_terms), thetas
    draw = draw_swift_variant(model, n_seg, BASELINE, (), m, rng)
    yield "baseline", draw.codes((), model.n_terms), thetas
    _, sizes, probs = all_order_categories(0.4)
    yield "all-order", draw_all_order_codes(model, n_seg, sizes, probs, m, rng)[0], thetas
    for order in (1, 2):
        terms = draw_trotter_terms(model, 3, order, rng, m)
        yield f"rtrotter{order}", terms, trotter_thetas(model, 1.0, 3, order)


def test_plan_codes_inverts_plan_from_codes():
    # one row per plan: every sampled plan holds one angle per term
    rng = np.random.default_rng(17)
    seen_pad = False
    for tag, codes, thetas in _code_rows(MODEL, rng):
        for row in codes:
            seen_pad |= bool((row == PAD).any())
            plan = plan_from_codes(MODEL, row, thetas)
            [(got, got_thetas)] = plan_codes(plan, MODEL.n_terms)
            assert got.dtype == CODE_DTYPE
            assert np.array_equal(got, row[row != PAD][None, :]), tag
            for ell in set(row[(row >= 0) & (row < MODEL.n_terms)].tolist()):
                assert got_thetas[ell] == thetas[ell]
            assert plan_from_codes(MODEL, got[0], got_thetas) == plan
    assert seen_pad


def test_plan_codes_split_where_an_angle_changes():
    plan = GatePlan(
        ops=(TimeOp(1, 0.1), SwiftOp(2, 1), TimeOp(3, 0.2), TimeOp(1, 0.1),
             TimeOp(1, -0.4), TimeOp(3, 0.2), SwiftOp(1, 0)),
    )
    rows = plan_codes(plan, MODEL.n_terms)
    assert [row.tolist() for row, _ in rows] == [[[0, 7, 2, 0]], [[0, 2, 3]]]
    assert [thetas for _, thetas in rows] == [[0.1, 0.0, 0.2], [-0.4, 0.0, 0.2]]
    empty = plan_codes(GatePlan(ops=()), MODEL.n_terms)
    assert [row.shape for row, _ in empty] == [(1, 0)]
    # Suzuki order 4 rescales every term between its five order-2 pieces
    assert len(plan_codes(trotter_plan(MODEL, 1.0, 2, 2), MODEL.n_terms)) == 1
    assert len(plan_codes(trotter_plan(MODEL, 1.0, 2, 4), MODEL.n_terms)) > 1


def test_enumerate_g2_known_values():
    assert enumerate_g2(1, 2) == ((2,),)
    assert enumerate_g2(1, 4) == ((4,),)
    assert enumerate_g2(2, 4) == ((2, 2),)
    assert set(enumerate_g2(2, 5)) == {(2, 3), (3, 2)}
    assert set(enumerate_g2(2, 6)) == {(2, 4), (3, 3), (4, 2)}
    assert enumerate_g2(3, 6) == ((2, 2, 2),)
    assert enumerate_g2(3, 5) == ()
    with pytest.raises(ValueError):
        enumerate_g2(0, 4)
    with pytest.raises(ValueError):
        enumerate_g2(1, 1)


@pytest.mark.parametrize("k,xi", [(1, 6), (2, 8), (3, 9), (4, 11)])
def test_enumerate_g2_counts(k, xi):
    # compositions of xi into k parts >= 2 number C(xi - k - 1, k - 1)
    got = enumerate_g2(k, xi)
    assert len(got) == comb(xi - k - 1, k - 1)
    assert all(sum(v) == xi and len(v) == k and min(v) >= 2 for v in got)
    assert len(set(got)) == len(got)


def test_correction_term_variant_generators():
    term = CorrectionTerm(k=2, n_vec=(2, 3), xi=5, coeff=1.0)
    signs = list(term.sign_vectors())
    assert len(signs) == 4
    b_sets = list(term.b_vector_sets())
    assert len(b_sets) == 2**5
    assert all(len(bs[0]) == 2 and len(bs[1]) == 3 for bs in b_sets)
    assert term.n_variants == len(signs) * len(b_sets)


def test_correction_terms_order_one_is_empty():
    assert correction_terms(MODEL, 1.0, 8, 1) == []


def test_correction_terms_order_two():
    n_seg = 8
    terms = correction_terms(MODEL, 1.0, n_seg, 2)
    assert len(terms) == 1
    bucket = terms[0]
    assert (bucket.k, bucket.n_vec, bucket.xi) == (1, (2,), 2)
    tau_angle = tau(MODEL, 1.0, n_seg)
    assert bucket.coeff == pytest.approx(n_seg * tau_angle**2 / 2, rel=1e-12)


def test_correction_terms_order_three():
    n_seg = 8
    terms = correction_terms(MODEL, 1.0, n_seg, 3)
    buckets = {(b.k, b.n_vec) for b in terms}
    assert buckets == {(1, (2,)), (1, (3,)), (1, (4,)), (2, (2, 2))}
    tau_angle = tau(MODEL, 1.0, n_seg)
    for b in terms:
        want = comb(n_seg, b.k) * tau_angle**b.xi
        want /= np.prod([factorial(n) for n in b.n_vec])
        assert b.coeff == pytest.approx(want, rel=1e-12)
        assert b.xi == sum(b.n_vec)


def test_correction_terms_guards():
    with pytest.raises(OrderExceedsSegments):
        correction_terms(MODEL, 1.0, 2, 3)
    with pytest.raises(ValueError):
        correction_terms(MODEL, 1.0, 2, 0)


def test_swift_draw_decodes_to_layout():
    # a (2, 2) row with block slots sigma = (1, 3): the 0-based fillers at
    # slots 0 and 2 are used, the ones under sigma are not
    n_seg = 4
    term = next(
        b for b in correction_terms(MODEL, 1.0, n_seg, 3) if b.n_vec == (2, 2)
    )
    draw = SwiftDraw(
        sigma=np.array([[1, 3]]),
        fillers=np.array([[2, 1, 0, 1]]),
        parts=(np.array([[0, 1]]), np.array([[1, 1]])),
    )
    tau_angle = tau(MODEL, 1.0, n_seg)
    codes = draw.codes(((0, 1), (1, 0)), MODEL.n_terms)
    assert codes.shape == (1, n_seg - term.k + term.xi)
    plan = plan_from_codes(MODEL, codes[0], signed_angles(MODEL, tau_angle))
    want = (
        TimeOp(3, MODEL.term(3).sign * tau_angle),
        SwiftOp(1, 0),
        SwiftOp(2, 1),
        TimeOp(1, MODEL.term(1).sign * tau_angle),
        SwiftOp(2, 1),
        SwiftOp(2, 0),
    )
    assert plan.ops == want


def test_sample_swift_plan_structure():
    n_seg = 6
    term = next(
        b for b in correction_terms(MODEL, 1.0, n_seg, 3) if b.n_vec == (2, 2)
    )
    plan = swift_row_plan(MODEL, 1.0, n_seg, term, (1, 1), ((0, 1), (1, 1)), 17)
    assert plan == swift_row_plan(MODEL, 1.0, n_seg, term, (1, 1), ((0, 1), (1, 1)), 17)
    assert sum(isinstance(op, TimeOp) for op in plan.ops) == n_seg - term.k
    assert sum(isinstance(op, SwiftOp) for op in plan.ops) == term.xi
    # s = 1 blocks repeat a single index
    swift_ells = [op.ell for op in plan.ops if isinstance(op, SwiftOp)]
    assert swift_ells[0] == swift_ells[1]
    assert swift_ells[2] == swift_ells[3]
    validate_plan(plan, MODEL)


def test_sample_swift_plan_k_over_segments():
    term = CorrectionTerm(k=3, n_vec=(2, 2, 2), xi=6, coeff=1.0)
    with pytest.raises(OrderExceedsSegments):
        swift_row_plan(MODEL, 1.0, 2, term, (0, 0, 0), ((0, 0),) * 3, 1)


@pytest.mark.parametrize("tau_angle", [0.0, 0.05, 0.125, 0.4, 1.0])
def test_all_order_b_matches_closed_form(tau_angle):
    want = 2.0 * exp(2.0 * tau_angle) - 1.0 - 4.0 * tau_angle
    assert all_order_b(tau_angle) == pytest.approx(want, rel=1e-14)


def test_all_order_b_rejects_negative():
    with pytest.raises(ValueError):
        all_order_b(-0.1)


@pytest.mark.parametrize("tau_angle", [12.0, 16.0, 23.0, 30.0])
def test_all_order_categories_keep_the_mass_at_large_tau(tau_angle):
    # the blocks run past the mode n ~ 2 tau, where nearly all of B sits,
    # and the time operator keeps probability 1/B (5e-21 at tau = 23): the
    # rounding leftover goes to the largest block, so the check is relative
    b_norm, sizes, cat_probs = all_order_categories(tau_angle)
    assert b_norm == pytest.approx(2.0 * exp(2.0 * tau_angle) - 1.0 - 4.0 * tau_angle, rel=1e-13)
    assert cat_probs[0] == pytest.approx(1.0 / b_norm, rel=1e-12, abs=0)
    assert sizes[0] == 2 and sizes[-1] > 2 * tau_angle
    assert cat_probs.sum() == pytest.approx(1.0, abs=1e-13)


def test_all_order_categories_past_the_float_range():
    # tau = 114 (chain_4q at t = 40, N = 1): beta(n) overflows the float
    # expression from n = 131 on and comes from lgamma; B stays finite
    b_norm, sizes, cat_probs = all_order_categories(114.0)
    assert b_norm == pytest.approx(2.0 * exp(228.0), rel=1e-13)
    assert 228 < sizes[-1] < 500
    assert np.isfinite(cat_probs).all()
    # the mode passes n = 500, or B itself overflows
    for tau_angle in (300.0, 1140.0):
        with pytest.raises(AllOrderOverflow):
            all_order_categories(tau_angle)


def test_sample_all_order_segment_shapes():
    rng = np.random.default_rng(3)
    tau_angle = 0.6
    b_norm = all_order_b(tau_angle)
    n_time = 0
    n_draws = 1500
    for _ in range(n_draws):
        sign, ops = all_order_row(MODEL, tau_angle, rng)
        assert sign in (-1, 1)
        if isinstance(ops[0], TimeOp):
            assert len(ops) == 1
            assert sign == 1
            n_time += 1
        else:
            assert len(ops) >= 2
            assert all(isinstance(op, SwiftOp) for op in ops)
            if sign == -1:
                ells = {op.ell for op in ops}
                assert len(ells) == 1
    assert n_time / n_draws == pytest.approx(1.0 / b_norm, abs=0.06)


def test_sample_all_order_segment_determinism():
    a = all_order_row(MODEL, 0.3, 42)
    b = all_order_row(MODEL, 0.3, 42)
    assert a == b


def _chain12_probs() -> np.ndarray:
    """Importance weights of the 23-term 12-qubit XX+Z chain."""
    n = 12
    xx = [f"0.45 {'I' * i}XX{'I' * (n - i - 2)}" for i in range(n - 1)]
    z = [f"0.375 {'I' * i}Z{'I' * (n - i - 1)}" for i in range(n)]
    return parse_hamiltonian("\n".join(xx + z)).probs


CATEGORICAL_CASES = {
    "chain_4q": lambda: parse_hamiltonian(
        resources.files("hamsim").joinpath("data/chain_4q.txt").read_text()
    ).probs,
    "chain_12q": _chain12_probs,
    "all_order_0.178": lambda: all_order_categories(0.178)[2],
    "all_order_0.25": lambda: all_order_categories(0.25)[2],
    "zero_entries": lambda: np.array([0.0, 0.25, 0.0, 0.0, 0.5, 0.25, 0.0]),
    "one_category": lambda: np.array([1.0]),
    # COUNT_MAX_EDGES - 1, COUNT_MAX_EDGES and COUNT_MAX_EDGES + 1 cdf edges
    # (one fewer than categories): counted, counted, binary-searched
    "edges_below": lambda: _random_probs(COUNT_MAX_EDGES),
    "edges_at": lambda: _random_probs(COUNT_MAX_EDGES + 1),
    "edges_above": lambda: _random_probs(COUNT_MAX_EDGES + 2),
    "entries_12000": lambda: _random_probs(12000),
}


def _random_probs(n: int) -> np.ndarray:
    """n positive weights, normalized, from a fixed stream."""
    p = np.random.default_rng(n).random(n) + 1e-3
    return p / p.sum()


@pytest.mark.parametrize("case", sorted(CATEGORICAL_CASES))
def test_draw_categorical_replays_generator_choice(case):
    # value for value what Generator.choice(p=) draws, leaving the generator
    # in the same state; short cdfs count their edges from
    # COUNT_DRAWS_PER_EDGE uniforms per edge on and search below that
    p = CATEGORICAL_CASES[case]()
    sizes = [0, 5, 20000, (3000, 7)]
    if p.size - 1 <= COUNT_MAX_EDGES:
        floor = COUNT_DRAWS_PER_EDGE * (p.size - 1)
        sizes += [max(floor - 1, 0), floor]
    for size in sizes:
        ours, theirs = np.random.default_rng(17), np.random.default_rng(17)
        got = draw_categorical(p, size, ours)
        want = theirs.choice(p.size, size=size, p=p)
        assert got.dtype == CODE_DTYPE
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state
    if case == "zero_entries":
        assert set(np.unique(want)) == {1, 4, 5}


def _wide_model(n_terms: int):
    """n_terms distinct 7-qubit strings, the last one carrying almost all
    the weight so the draws hit the largest op code 3 n_terms - 1."""
    strings = ["".join("IXYZ"[(i >> (2 * q)) & 3] for q in range(7))
               for i in range(1, n_terms + 1)]
    coeffs = ["1e-6"] * (n_terms - 1) + ["1e3"]
    return parse_hamiltonian("\n".join(f"{c} {s}" for c, s in zip(coeffs, strings)))


def test_samplers_refuse_models_whose_codes_overflow():
    # int16 op codes fit 3 * 10,922 - 1 = 32,765; one more term would wrap
    # the largest swift code to a negative one
    term = CorrectionTerm(k=1, n_vec=(2,), xi=2, coeff=1.0)
    over = _wide_model(10923)
    for sample in (
        lambda: qdrift_row_plan(over, 1.0, 4, 1),
        lambda: swift_row_plan(over, 1.0, 4, term, (0,), ((1, 1),), 1),
        lambda: all_order_row(over, 0.5, 1),
        lambda: randomized_trotter_plan(over, 1.0, 1, 2, 0),
    ):
        with pytest.raises(ValueError, match="overflow the op codes"):
            sample()
    edge = _wide_model(10922)
    plan = swift_row_plan(edge, 1.0, 4, term, (0,), ((1, 1),), 1)
    validate_plan(plan, edge)
    assert plan.ops.count(SwiftOp(ell=10922, b=1)) == 2
