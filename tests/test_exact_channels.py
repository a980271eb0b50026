"""Dense superoperator oracle against hand-built linear algebra."""

from itertools import combinations
from math import comb, factorial

import numpy as np
import pytest
from scipy.linalg import expm

from hamsim import (
    DimensionCap,
    OrderExceedsSegments,
    PauliTerm,
    ideal_channel,
    mixture,
    parse_hamiltonian,
    qdrift_channel,
    qswift_bound,
    qswift_channel,
    random_pure_density,
    script_l_n,
    tau,
    term_unitary,
)
from hamsim.compiler import enumerate_g2
from hamsim.exact_channels import (
    Superoperator,
    conjugation,
    dense_hamiltonian,
    liouvillian_term,
    mean_liouvillian,
    qswift_levels,
)
from oracle_helpers import (
    THREE_QUBIT,
    TWO_QUBIT,
    channel_distance_surrogate,
    choi_matrix,
    swift_unitary,
    trace_distance,
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


def random_density(n_qubits: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = 2**n_qubits
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_super(n_qubits: int, seed: int) -> Superoperator:
    rng = np.random.default_rng(seed)
    d2 = 4**n_qubits
    return Superoperator(rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2)), n_qubits)


REF = parse_hamiltonian("0.5 X\n0.3 Z")


def interleaving_sum(parts, filler: Superoperator, n_copies: int) -> np.ndarray:
    """Reference mixture: every order-preserving placement of the parts into
    n_copies slots, one product per placement (part 1 acts first)."""
    k = len(parts)
    total = np.zeros_like(filler.matrix)
    for slots in combinations(range(n_copies), k):
        prod = np.eye(filler.matrix.shape[0], dtype=complex)
        for slot in range(n_copies):
            op = parts[slots.index(slot)] if slot in slots else filler
            prod = op.matrix @ prod
        total += prod
    return total


def composition_sum(model, t: float, n_seg: int, order: int) -> np.ndarray:
    """Reference order-K channel: E^N plus, for every composition n_vec of
    xi = 2 .. 2K-2 into parts >= 2, tau^xi / prod(n_j!) times the mixture of
    the L^(n_j) into the segment channels E."""
    tau_angle = tau(model, t, n_seg)
    base = qdrift_channel(model, tau_angle)
    total = base.power(n_seg).matrix.copy()
    for xi in range(2, 2 * order - 1):
        for k in range(1, order + 1):
            for n_vec in enumerate_g2(k, xi):
                weight = tau_angle**xi / np.prod([factorial(n) for n in n_vec])
                parts = [script_l_n(model, n) for n in n_vec]
                total += weight * interleaving_sum(parts, base, n_seg)
    return total


def test_conjugation_applies_sandwich():
    rng = np.random.default_rng(4)
    herm = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    herm = herm + herm.conj().T
    u = expm(1j * herm)
    rho = random_density(2, seed=9)
    got = conjugation(u, 2).apply(rho)
    assert np.allclose(got, u @ rho @ u.conj().T, atol=1e-12)


def test_compose_power_identity():
    a = random_super(1, 1)
    b = random_super(1, 2)
    rho = random_density(1, seed=3)
    assert np.allclose((a @ b).apply(rho), a.apply(b.apply(rho)), atol=1e-10)
    assert np.allclose(a.power(3).matrix, a.matrix @ a.matrix @ a.matrix, atol=1e-10)
    eye = Superoperator(np.eye(4, dtype=complex), 1)
    assert np.allclose((a @ eye).matrix, a.matrix)


def test_superoperator_validation():
    with pytest.raises(ValueError):
        Superoperator(np.eye(5), 1)
    with pytest.raises(DimensionCap):
        Superoperator(np.eye(256, dtype=complex), 4)


def test_dense_hamiltonian_matches_kron_sum():
    want = 0.5 * dense_string("XZ") + 0.3 * dense_string("ZI") - 0.2 * dense_string("YY")
    assert np.allclose(dense_hamiltonian(TWO_QUBIT), want, atol=1e-15)


def test_term_unitary_matches_expm():
    term = PauliTerm(axes="YZ", strength=0.7, sign=-1)
    theta = 0.43
    want = expm(1j * theta * (-1) * dense_string("YZ"))
    assert np.allclose(term_unitary(term, theta), want, atol=1e-12)


def test_swift_unitary_blocks():
    term = PauliTerm(axes="X", strength=1.0, sign=-1)
    h = -dense_string("X")
    s0 = swift_unitary(term, 0)
    s1 = swift_unitary(term, 1)
    assert np.allclose(s0[:2, :2], np.eye(2))
    assert np.allclose(s0[2:, 2:], 1j * h)
    assert np.allclose(s1[:2, :2], h)
    assert np.allclose(s1[2:, 2:], -1j * np.eye(2))
    assert np.allclose(s0 @ s0.conj().T, np.eye(4), atol=1e-12)
    assert np.allclose(s1 @ s1.conj().T, np.eye(4), atol=1e-12)
    with pytest.raises(ValueError):
        swift_unitary(term, 3)


@pytest.mark.parametrize("sign", [1, -1])
def test_swift_branch_sum_is_commutator_on_cross_block(sign):
    # sum_b S_b rho S_b^+ acts on the upper-right ancilla block as i[H, .]
    term = PauliTerm(axes="XY", strength=1.0, sign=sign)
    model = parse_hamiltonian(f"{'-' if sign < 0 else ''}1.0 XY")
    rng = np.random.default_rng(12)
    block = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho_ext = np.zeros((8, 8), dtype=complex)
    rho_ext[:4, 4:] = block
    rho_ext[4:, :4] = block.conj().T
    total = np.zeros_like(rho_ext)
    for b in (0, 1):
        s = swift_unitary(term, b)
        total += s @ rho_ext @ s.conj().T
    want = liouvillian_term(model, 1).apply(block)
    assert np.allclose(total[:4, 4:], want, atol=1e-12)


def test_liouvillian_term_is_commutator():
    rho = random_density(2, seed=5)
    h = -dense_string("YY")
    model = parse_hamiltonian("0.5 XZ\n-0.2 YY")
    got = liouvillian_term(model, 2).apply(rho)
    assert np.allclose(got, 1j * (h @ rho - rho @ h), atol=1e-12)


def test_mean_liouvillian_is_scaled_commutator():
    # sum_ell p_ell i[sign_ell P_ell, .] = (i / lambda) [H, .]
    rho = random_density(2, seed=6)
    h = dense_hamiltonian(TWO_QUBIT)
    got = mean_liouvillian(TWO_QUBIT).apply(rho)
    assert np.allclose(got, 1j * (h @ rho - rho @ h) / TWO_QUBIT.lam, atol=1e-12)


def test_qdrift_channel_is_probability_mixture():
    tau_angle = 0.17
    probs = TWO_QUBIT.probs
    d2 = 16
    want = np.zeros((d2, d2), dtype=complex)
    for p, term in zip(probs, TWO_QUBIT.terms):
        u = expm(1j * tau_angle * term.coefficient / term.strength * dense_string(term.axes))
        want += p * np.kron(u.conj(), u)
    got = qdrift_channel(TWO_QUBIT, tau_angle)
    assert np.allclose(got.matrix, want, atol=1e-12)


def test_channel_preserves_trace_and_hermiticity():
    rho = random_density(2, seed=8)
    for chan in (
        qdrift_channel(TWO_QUBIT, 0.2),
        ideal_channel(TWO_QUBIT, 0.9),
        qswift_channel(TWO_QUBIT, 0.9, 4, 2),
    ):
        out = chan.apply(rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)
        assert abs(np.trace(out).imag) < 1e-10
        assert np.allclose(out, out.conj().T, atol=1e-10)


def test_ideal_channel_matches_expm_and_segments():
    t = 0.8
    u = expm(1j * dense_hamiltonian(TWO_QUBIT) * t)
    rho = random_density(2, seed=10)
    got = ideal_channel(TWO_QUBIT, t).apply(rho)
    assert np.allclose(got, u @ rho @ u.conj().T, atol=1e-12)
    seg = ideal_channel(TWO_QUBIT, t / 4)
    assert np.allclose(seg.power(4).matrix, ideal_channel(TWO_QUBIT, t).matrix, atol=1e-10)


def test_mixture_single_part_two_slots():
    a = random_super(1, 21)
    f = random_super(1, 22)
    got = mixture([a], f, 2)
    want = f.matrix @ a.matrix + a.matrix @ f.matrix
    assert np.allclose(got.matrix, want, atol=1e-10)


def test_mixture_two_parts_three_slots_orders_parts():
    a1 = random_super(1, 31)
    a2 = random_super(1, 32)
    f = random_super(1, 33)
    got = mixture([a1, a2], f, 3)
    want = (
        f.matrix @ a2.matrix @ a1.matrix
        + a2.matrix @ f.matrix @ a1.matrix
        + a2.matrix @ a1.matrix @ f.matrix
    )
    assert np.allclose(got.matrix, want, atol=1e-10)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_mixture_matches_interleaving_sum(k):
    # random, mutually non-commuting parts and filler on one qubit
    filler = random_super(1, 60)
    parts = [random_super(1, 61 + j) for j in range(k)]
    for n_copies in range(max(k, 1), 9):
        want = interleaving_sum(parts, filler, n_copies)
        got = mixture(parts, filler, n_copies).matrix
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), n_copies


def test_mixture_guards():
    f = random_super(1, 40)
    with pytest.raises(ValueError):
        mixture([f, f, f], f, 2)
    # far beyond any enumeration: C(80, 30) ~ 8.9e21 interleavings, each a^30
    a = conjugation(expm(1j * np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])), 1)
    got = mixture([a] * 30, Superoperator(np.eye(4, dtype=complex), 1), 80).matrix
    want = comb(80, 30) * a.power(30).matrix
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_script_l_n_matches_definition():
    mean = mean_liouvillian(TWO_QUBIT).matrix
    probs = TWO_QUBIT.probs
    for n in (2, 3):
        want = np.linalg.matrix_power(mean, n)
        for ell in range(1, TWO_QUBIT.n_terms + 1):
            want = want - probs[ell - 1] * np.linalg.matrix_power(
                liouvillian_term(TWO_QUBIT, ell).matrix, n
            )
        assert np.allclose(script_l_n(TWO_QUBIT, n).matrix, want, atol=1e-12)
    with pytest.raises(ValueError):
        script_l_n(TWO_QUBIT, 1)


def test_qswift_channel_order_one_is_qdrift_product():
    t, n_seg = 0.9, 5
    base = qdrift_channel(TWO_QUBIT, tau(TWO_QUBIT, t, n_seg))
    got = qswift_channel(TWO_QUBIT, t, n_seg, 1)
    assert np.array_equal(got.matrix, base.power(n_seg).matrix)


def test_qswift_channel_order_two_unrolls():
    t, n_seg = 0.9, 4
    tau_angle = tau(TWO_QUBIT, t, n_seg)
    base = qdrift_channel(TWO_QUBIT, tau_angle)
    l2 = script_l_n(TWO_QUBIT, 2).matrix
    want = base.power(n_seg).matrix.copy()
    for r in range(n_seg):
        want += (
            0.5
            * tau_angle**2
            * (base.power(n_seg - 1 - r).matrix @ l2 @ base.power(r).matrix)
        )
    got = qswift_channel(TWO_QUBIT, t, n_seg, 2)
    assert np.allclose(got.matrix, want, atol=1e-12)


@pytest.mark.parametrize("model", [REF, TWO_QUBIT, THREE_QUBIT], ids=["1q", "2q", "3q"])
def test_qswift_channel_matches_composition_sum(model):
    for n_seg in (3, 4, 8, 16):
        for order in range(1, min(4, n_seg) + 1):
            want = composition_sum(model, 0.9, n_seg, order)
            got = qswift_channel(model, 0.9, n_seg, order).matrix
            assert np.abs(got - want).max() <= 1e-12, (n_seg, order)


def test_qswift_channel_large_n_within_bound():
    # N = 2^10 puts C(N, k) interleavings far past any enumeration
    t, n_seg = 0.75, 2**10
    ideal = ideal_channel(REF, t)
    for order in range(1, 5):
        dist = channel_distance_surrogate(ideal, qswift_channel(REF, t, n_seg, order))
        assert dist <= qswift_bound(REF.lam * t, n_seg, order), order


def test_qswift_levels_partial_sums_are_every_lower_order():
    # the slopes suite's reading: one order-3 column per N, its moment
    # generators built once, gives every order K' <= 3 as the sum of its
    # first 2K' - 1 levels
    t = 1.25
    moments = {n: script_l_n(REF, n).matrix for n in range(2, 5)}
    for n_seg in (32, 64, 128, 256):
        levels = qswift_levels(REF, t, n_seg, 3, moments)
        assert levels.shape == (5, 4, 4)
        assert np.array_equal(levels, qswift_levels(REF, t, n_seg, 3))
        for order in (1, 2, 3):
            want = qswift_channel(REF, t, n_seg, order).matrix
            got = levels[: 2 * order - 1].sum(axis=0)
            assert np.abs(got - want).max() <= 1e-14, (n_seg, order)


def test_qswift_channel_guards():
    with pytest.raises(OrderExceedsSegments):
        qswift_channel(TWO_QUBIT, 0.5, 2, 3)
    with pytest.raises(ValueError):
        qswift_channel(TWO_QUBIT, 0.5, 2, 0)


def test_qswift_correction_shrinks_distance_to_ideal():
    t, n_seg = 1.0, 6
    ideal = ideal_channel(TWO_QUBIT, t)
    d1 = np.linalg.norm(qswift_channel(TWO_QUBIT, t, n_seg, 1).matrix - ideal.matrix)
    d2 = np.linalg.norm(qswift_channel(TWO_QUBIT, t, n_seg, 2).matrix - ideal.matrix)
    assert d2 < d1


def test_choi_matrix_of_unitary_mixture_is_psd():
    chan = qdrift_channel(TWO_QUBIT, 0.3)
    choi = choi_matrix(chan)
    assert np.allclose(choi, choi.conj().T, atol=1e-12)
    eigs = np.linalg.eigvalsh(choi)
    assert eigs.min() > -1e-10
    assert np.trace(choi).real == pytest.approx(chan.dim, abs=1e-10)


def test_trace_distance_values():
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(zero, zero) == pytest.approx(0.0, abs=1e-15)
    assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)
    rho = random_density(1, seed=50)
    sig = random_density(1, seed=51)
    assert trace_distance(rho, sig) == pytest.approx(trace_distance(sig, rho), abs=1e-12)


def test_random_pure_density_properties():
    rng = np.random.default_rng(0)
    rho = random_pure_density(2, rng)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.allclose(rho @ rho, rho, atol=1e-12)


def test_channel_distance_surrogate():
    a = ideal_channel(TWO_QUBIT, 0.7)
    assert channel_distance_surrogate(a, a) == pytest.approx(0.0, abs=1e-12)
    b = qswift_channel(TWO_QUBIT, 0.7, 8, 1)
    d_ab = channel_distance_surrogate(a, b, rng_seed=7)
    assert d_ab == channel_distance_surrogate(a, b, rng_seed=7)
    assert 0.0 < d_ab <= 1.0
