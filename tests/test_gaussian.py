import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays
from mpmath import mp, mpf

from cvmdi import InvalidParameterError, NumericDomainError
from cvmdi.gaussian import LN2, g_func, g_slope, two_mode_symplectic
from cvmdi.matrix import (
    GaussianState,
    apply_beamsplitter,
    epr_state,
    linear_feedforward,
    partial_trace,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    thermal_state,
)
from helpers import c_edge, mp_g
from oracle import (
    check_two_mode,
    heterodyne_condition,
    homodyne_condition,
    two_mode_state,
    two_product,
    vacuum_state,
    von_neumann_entropy,
)

SZ = np.diag([1.0, -1.0])

# extended-precision reference values
G_HALF = 1.3774437510817343
LAM31_1 = 2.79128784747792
LAM31_2 = 1.79128784747792


def random_pure_two_mode(rng, vmax=50.0):
    v = math.exp(rng.uniform(0.0, math.log(vmax)))
    return apply_beamsplitter(epr_state(v), 0, 1, rng.uniform(0.1, 0.9))


# ---------------------------------------------------------------- constructors

def test_epr_vacuum_limit():
    np.testing.assert_allclose(epr_state(1.0).cov, np.eye(4))


def test_epr_v2_blocks():
    st = epr_state(2.0)
    s3 = math.sqrt(3.0)
    np.testing.assert_allclose(st.cov[:2, :2], 2.0 * np.eye(2))
    np.testing.assert_allclose(st.cov[2:, 2:], 2.0 * np.eye(2))
    np.testing.assert_allclose(st.cov[:2, 2:], s3 * SZ)


def test_epr_realistic_variance_is_pure():
    lams = symplectic_eigenvalues(epr_state(5.04))
    np.testing.assert_allclose(lams, [1.0, 1.0], atol=1e-12)


def test_epr_rejects_subunity_variance():
    with pytest.raises(InvalidParameterError):
        epr_state(0.99)


def test_thermal_examples():
    np.testing.assert_allclose(thermal_state(1.0).cov, np.eye(2))
    # detector ancilla for eta=0.9, v_el=0.015
    v = 1.0 + 0.015 / (1.0 - 0.9)
    np.testing.assert_allclose(thermal_state(v).cov, 1.15 * np.eye(2))
    np.testing.assert_allclose(symplectic_eigenvalues(thermal_state(2.0)), [2.0])
    with pytest.raises(InvalidParameterError):
        thermal_state(0.5)


def test_state_validation():
    with pytest.raises(InvalidParameterError):
        GaussianState(np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(InvalidParameterError):
        GaussianState(np.eye(3))  # odd dimension
    st = vacuum_state(1)
    with pytest.raises(ValueError):
        st.cov[0, 0] = 5.0  # frozen array


def test_epr_overflow_raises():
    # v^2 - 1 overflows: inf entries and inf * 0 = NaN used to fill the block
    with pytest.raises(NumericDomainError, match="not finite"):
        epr_state(1e200)


# ------------------------------------------------------ primitives, bit for bit
# The primitives build their matrices more cheaply than before; these pin the
# bytes to the constructions they replaced.

# finite and below 2^1023, where M + M would overflow
BELOW_2_1023 = st.floats(min_value=-2.0 ** 1023, max_value=2.0 ** 1023,
                         exclude_min=True, exclude_max=True, allow_nan=False)


def square_matrices(elements, max_modes=4):
    return st.integers(1, max_modes).flatmap(
        lambda n: arrays(np.float64, (2 * n, 2 * n), elements=elements))


def mirrored(m):
    """m with its strict lower triangle copied from the upper one, signs of
    zeros included: exactly symmetric."""
    m = m.copy()
    lower = np.tril_indices(m.shape[0], -1)
    m[lower] = m.T[lower]
    return m


@given(square_matrices(BELOW_2_1023))
@example(np.array([[1.0, -0.0], [-0.0, 1.0]]))
def test_exactly_symmetric_input_keeps_its_symmetrised_bytes(m):
    m = mirrored(m)
    want = 0.5 * (m + m.T)
    assert GaussianState(m).cov.tobytes() == want.tobytes()


def test_entry_above_2_1023_is_kept_not_doubled_into_inf():
    m = np.array([[1.5 * 2.0 ** 1023, 0.0], [0.0, 1.0]])
    assert GaussianState(m).cov.tobytes() == m.tobytes()


@given(square_matrices(st.floats(-1e6, 1e6)), st.data())
def test_near_symmetric_input_is_symmetrised_and_asymmetric_raises(m, data):
    m = mirrored(m)
    i = data.draw(st.integers(0, m.shape[0] - 2))
    j = data.draw(st.integers(i + 1, m.shape[0] - 1))
    m[i, j] = np.nextafter(m[i, j], math.inf)  # one ulp off
    assert GaussianState(m).cov.tobytes() == (0.5 * (m + m.T)).tobytes()
    m[i, j] = m[j, i] + 1e-9 * max(1.0, float(np.abs(m).max()))
    with pytest.raises(InvalidParameterError, match="not symmetric"):
        GaussianState(m)


def test_mirrored_signed_zero_pair_is_symmetrised_as_before():
    m = np.array([[1.0, -0.0], [0.0, 1.0]])
    cov = GaussianState(m).cov
    assert cov.tobytes() == (0.5 * (m + m.T)).tobytes()
    assert not np.signbit(cov[0, 1]) and not np.signbit(cov[1, 0])


# --------------------------------------------------------------- beamsplitter

def test_beamsplitter_identity_transmissivity():
    st = epr_state(2.0)
    out = apply_beamsplitter(st, 0, 1, 1.0)
    np.testing.assert_allclose(out.cov, st.cov, atol=1e-14)


def test_beamsplitter_preserves_vacuum():
    out = apply_beamsplitter(vacuum_state(2), 0, 1, 0.5)
    np.testing.assert_allclose(out.cov, np.eye(4), atol=1e-14)


def test_beamsplitter_epr_with_vacuum():
    st = tensor(epr_state(2.0), vacuum_state(1))
    out = apply_beamsplitter(st, 0, 2, 0.5)
    assert out.cov[0, 0] == pytest.approx(1.5)  # (2 + 1) / 2


def test_beamsplitter_matches_dense_oracle():
    rng = np.random.default_rng(3)
    st = tensor(epr_state(3.0), thermal_state(2.0))
    t = 0.37
    s = np.eye(6)
    rt, rr = math.sqrt(t), math.sqrt(1 - t)
    for q in range(2):
        s[0 + q, 0 + q] = rt
        s[0 + q, 4 + q] = rr
        s[4 + q, 0 + q] = -rr
        s[4 + q, 4 + q] = rt
    expect = s @ st.cov @ s.T
    out = apply_beamsplitter(st, 0, 2, t)
    np.testing.assert_allclose(out.cov, expect, atol=1e-13)
    del rng


def test_beamsplitter_argument_errors():
    st = vacuum_state(2)
    with pytest.raises(InvalidParameterError):
        apply_beamsplitter(st, 0, 1, 1.2)
    with pytest.raises(InvalidParameterError):
        apply_beamsplitter(st, 1, 1, 0.5)
    with pytest.raises(InvalidParameterError):
        apply_beamsplitter(st, 0, 5, 0.5)


# -------------------------------------------------------- tensor, partial trace

def test_tensor_vacua():
    np.testing.assert_allclose(tensor(vacuum_state(1), vacuum_state(1)).cov, np.eye(4))


def test_tensor_block_assembly():
    st = tensor(epr_state(2.0), thermal_state(3.0))
    assert st.n_modes == 3
    expect = np.zeros((6, 6))
    expect[:4, :4] = epr_state(2.0).cov
    expect[4:, 4:] = 3.0 * np.eye(2)
    np.testing.assert_allclose(st.cov, expect)


def test_tensor_with_empty_state():
    empty = GaussianState(np.zeros((0, 0)))
    st = epr_state(2.0)
    np.testing.assert_allclose(tensor(empty, st).cov, st.cov)
    np.testing.assert_allclose(tensor(st, empty).cov, st.cov)


def test_partial_trace_keep_all_is_identity():
    st = epr_state(2.0)
    np.testing.assert_allclose(partial_trace(st, [0, 1]).cov, st.cov)


def test_partial_trace_epr_marginal_is_thermal():
    st = partial_trace(epr_state(4.2), [0])
    np.testing.assert_allclose(st.cov, 4.2 * np.eye(2))


def test_partial_trace_reorders_with_sign_structure():
    st = epr_state(2.0)
    swapped = partial_trace(st, [1, 0])
    perm = np.zeros((4, 4))
    perm[0, 2] = perm[1, 3] = perm[2, 0] = perm[3, 1] = 1.0
    np.testing.assert_allclose(swapped.cov, perm @ st.cov @ perm.T)
    # sigma_z correlation signs survive the swap
    assert swapped.cov[0, 2] > 0 and swapped.cov[1, 3] < 0


def test_partial_trace_roundtrip_recovers_factor():
    a, b = epr_state(2.5), thermal_state(1.7)
    joint = tensor(a, b)
    np.testing.assert_allclose(partial_trace(joint, [0, 1]).cov, a.cov)
    np.testing.assert_allclose(partial_trace(joint, [2]).cov, b.cov)


def test_partial_trace_index_errors():
    with pytest.raises(InvalidParameterError):
        partial_trace(epr_state(2.0), [0, 2])
    with pytest.raises(InvalidParameterError):
        partial_trace(epr_state(2.0), [0, 0])


# ---------------------------------------------------------------- conditioning

def test_homodyne_product_state_untouched():
    st = tensor(thermal_state(3.0), thermal_state(2.0))
    out = homodyne_condition(st, 1, "x")
    np.testing.assert_allclose(out.cov, 3.0 * np.eye(2))


def test_homodyne_epr_example():
    out = homodyne_condition(epr_state(2.0), 1, "x")
    np.testing.assert_allclose(out.cov, np.diag([0.5, 2.0]), atol=1e-14)
    out_p = homodyne_condition(epr_state(2.0), 1, "p")
    np.testing.assert_allclose(out_p.cov, np.diag([2.0, 0.5]), atol=1e-14)


def test_homodyne_matches_pseudoinverse_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        st = random_pure_two_mode(rng)
        st = tensor(st, thermal_state(rng.uniform(1.0, 4.0)))
        mode = int(rng.integers(0, 3))
        quad = "x" if rng.uniform() < 0.5 else "p"
        got = homodyne_condition(st, mode, quad)
        proj = np.diag([1.0, 0.0]) if quad == "x" else np.diag([0.0, 1.0])
        keep = [m for m in range(3) if m != mode]
        ki = [2 * m + q for m in keep for q in (0, 1)]
        mi = [2 * mode, 2 * mode + 1]
        gk = st.cov[np.ix_(ki, ki)]
        gm = st.cov[np.ix_(mi, mi)]
        sig = st.cov[np.ix_(mi, ki)]
        expect = gk - sig.T @ np.linalg.pinv(proj @ gm @ proj) @ sig
        np.testing.assert_allclose(got.cov, expect, atol=1e-11)


def test_homodyne_pure_state_stays_pure():
    rng = np.random.default_rng(5)
    for _ in range(20):
        st = random_pure_two_mode(rng)
        out = homodyne_condition(st, 1, "x")
        np.testing.assert_allclose(symplectic_eigenvalues(out), [1.0], atol=1e-9)


def test_heterodyne_product_state_untouched():
    st = tensor(thermal_state(3.0), thermal_state(2.0))
    out = heterodyne_condition(st, 1)
    np.testing.assert_allclose(out.cov, 3.0 * np.eye(2))


def test_heterodyne_epr_example():
    out = heterodyne_condition(epr_state(2.0), 1)
    np.testing.assert_allclose(out.cov, np.eye(2), atol=1e-14)


def test_heterodyne_matches_inverse_oracle_at_large_variance():
    v = 1e5
    st = epr_state(v)
    out = heterodyne_condition(st, 1)
    sig = st.cov[2:, :2]
    expect = st.cov[:2, :2] - sig.T @ np.linalg.inv(st.cov[2:, 2:] + np.eye(2)) @ sig
    # both routes cancel ~1e10 down to ~1, so compare absolutely near eps * v^2 / v
    np.testing.assert_allclose(out.cov, expect, atol=1e-9)
    assert out.cov[0, 0] == pytest.approx(v - (v * v - 1) / (v + 1), abs=1e-9)


def test_heterodyne_pure_state_stays_pure():
    rng = np.random.default_rng(8)
    for _ in range(20):
        st = random_pure_two_mode(rng)
        out = heterodyne_condition(st, 0)
        np.testing.assert_allclose(symplectic_eigenvalues(out), [1.0], atol=1e-9)


def test_conditioning_needs_two_modes():
    with pytest.raises(InvalidParameterError):
        homodyne_condition(thermal_state(2.0), 0, "x")


# ------------------------------------------------------------- linear feedforward

def test_feedforward_identity():
    st = epr_state(2.0)
    out = linear_feedforward(st, np.eye(4))
    np.testing.assert_allclose(out.cov, st.cov)


def test_feedforward_zero_gain_equals_partial_trace():
    st = tensor(epr_state(2.0), thermal_state(3.0))
    m = np.zeros((2, 6))
    m[0, 0] = m[1, 1] = 1.0
    out = linear_feedforward(st, m)
    np.testing.assert_allclose(out.cov, partial_trace(st, [0]).cov)


def test_feedforward_dense_oracle():
    rng = np.random.default_rng(17)
    st = tensor(epr_state(2.0), epr_state(3.0))
    g = 1.0
    m = np.zeros((4, 8), dtype=float)
    m[0, 0] = m[1, 1] = 1.0
    m[2, 4] = 1.0
    m[2, 2] = g
    m[3, 5] = 1.0
    m[3, 7] = g
    out = linear_feedforward(st, m)
    np.testing.assert_allclose(out.cov, m @ st.cov @ m.T, atol=1e-13)
    del rng


def test_feedforward_dimension_mismatch():
    with pytest.raises(InvalidParameterError):
        linear_feedforward(epr_state(2.0), np.zeros((2, 6)))
    with pytest.raises(InvalidParameterError):
        linear_feedforward(epr_state(2.0), np.zeros((3, 4)))


# ------------------------------------------------------------ symplectic spectra

def test_spectrum_vacuum_and_thermal():
    np.testing.assert_allclose(symplectic_eigenvalues(vacuum_state(3)), [1.0] * 3)
    np.testing.assert_allclose(symplectic_eigenvalues(thermal_state(2.0)), [2.0])


def test_two_mode_symplectic_examples():
    assert two_mode_symplectic(2.0, 2.0, 0.0) == pytest.approx((2.0, 2.0))
    l1, l2 = two_mode_symplectic(2.0, 2.0, math.sqrt(3.0))
    assert (l1, l2) == pytest.approx((1.0, 1.0), abs=1e-12)
    l1, l2 = two_mode_symplectic(3.0, 2.0, 1.0)
    assert l1 == pytest.approx(LAM31_1, rel=1e-14)
    assert l2 == pytest.approx(LAM31_2, rel=1e-14)
    assert l1 * l2 == pytest.approx(5.0, rel=1e-14)  # product equals ab - c^2
    # from 2^500 up the input is rescaled by a power of two, exactly
    assert two_mode_symplectic(3.0 * 2.0 ** 600, 2.0 ** 601, 2.0 ** 600) == (
        l1 * 2.0 ** 600, l2 * 2.0 ** 600)


def test_two_mode_symplectic_rejects_unphysical():
    with pytest.raises(NumericDomainError):
        two_mode_symplectic(10.0, 1.0, 2.0)


def test_two_mode_symplectic_rejects_overflowed_input():
    # b = inf gives lambda2 = inf/inf = NaN, which every "< bound" test passes
    with np.errstate(invalid="ignore"), pytest.raises(NumericDomainError, match="nan"):
        two_mode_symplectic(5.04, math.inf, 3e200)


def test_two_mode_symplectic_within_4_ulp_of_50_digits():
    # a and b log-uniform up to 1e7, c up to 1 - 1e-12 of the physical edge:
    # B = ab - c^2 cancels from terms up to 1e14 there, and an extended-
    # precision B missed lambda2 by up to 3,194 ulp on these points
    rng = random.Random(1406)
    for _ in range(2000):
        a, b = (10.0 ** rng.uniform(0.0, 7.0) for _ in range(2))
        t = rng.choice([rng.uniform(0.0, 1.0), 1.0 - 10.0 ** rng.uniform(-12.0, 0.0)])
        c = min(t, 1.0 - 1e-12) * c_edge(a, b)
        with mp.workdps(50):
            s = mp.sqrt((mpf(a) + b) ** 2 - 4 * mpf(c) ** 2)
            d = abs(mpf(a) - b)
            pair = ((s + d) / 2, (s - d) / 2)
            for got, want in zip(two_mode_symplectic(a, b, c), pair):
                assert abs(got - want) <= 4 * math.ulp(float(want)), (a, b, c)


_PRODUCT_RANGE = st.floats(2.0 ** -400, 2.0 ** 400)


@given(_PRODUCT_RANGE, _PRODUCT_RANGE, st.booleans(), st.booleans())
@example(1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53, False, False)
@example(2.0 ** 400, 2.0 ** 400, True, False)
@example(2.0 ** -400, 2.0 ** -400, False, True)
def test_two_product_is_error_free(x, y, neg_x, neg_y):
    x, y = -x if neg_x else x, -y if neg_y else y
    p, e = two_product(x, y)
    assert p == x * y
    assert Fraction(p) + Fraction(e) == Fraction(x) * Fraction(y)


def test_two_mode_oracle_equivalence_randomized():
    """Closed-form pair vs generic spectrum of the assembled 4x4 matrix."""
    rng = np.random.default_rng(1234)
    for trial in range(1000):
        vmax = 1e5 if trial % 4 == 0 else 50.0
        a = math.exp(rng.uniform(0.0, math.log(vmax)))
        b = math.exp(rng.uniform(0.0, math.log(vmax)))
        t = rng.uniform(0.0, 0.999)
        if trial % 10 == 0:
            a = b = 1e5  # stress: large balanced variances
        c = t * c_edge(a, b)
        l1, l2 = two_mode_symplectic(a, b, c)
        lams = symplectic_eigenvalues(two_mode_state(a, b, c))
        np.testing.assert_allclose(lams, [l1, l2], rtol=1e-9)


def test_spectrum_det_identity():
    rng = np.random.default_rng(99)
    for _ in range(50):
        a = math.exp(rng.uniform(0.0, math.log(50.0)))
        b = math.exp(rng.uniform(0.0, math.log(50.0)))
        c = rng.uniform(0.0, 0.99) * c_edge(a, b)
        st = two_mode_state(a, b, c)
        lams = symplectic_eigenvalues(st)
        det = np.linalg.det(st.cov)
        assert np.prod(lams ** 2) == pytest.approx(det, rel=1e-6)


def test_purity_preserved_by_passive_optics():
    rng = np.random.default_rng(21)
    for _ in range(20):
        v = math.exp(rng.uniform(0.0, math.log(1000.0)))
        st = tensor(epr_state(v), vacuum_state(1))
        st = apply_beamsplitter(st, 0, 2, rng.uniform(0.05, 0.95))
        st = apply_beamsplitter(st, 1, 2, rng.uniform(0.05, 0.95))
        lams = symplectic_eigenvalues(st)
        np.testing.assert_allclose(lams, np.ones(3), atol=1e-9)


def test_symplectic_form_shape():
    om = symplectic_form(2)
    assert om.shape == (4, 4)
    np.testing.assert_allclose(om @ om, -np.eye(4))


# ------------------------------------------------------------------- entropies

def test_g_func_values():
    assert g_func(0.0) == 0.0
    assert g_func(1.0) == pytest.approx(2.0, rel=1e-15)
    assert g_func(0.5) == pytest.approx(G_HALF, rel=1e-15)
    with pytest.raises(InvalidParameterError):
        g_func(-1e-12)


def test_g_func_rejects_nan():
    # NaN passes every "x < 0" test; the guard is written as "not x >= 0"
    with pytest.raises(InvalidParameterError):
        g_func(math.nan)


@pytest.mark.parametrize("abc", [(math.nan, math.nan, math.nan), (math.nan, 2.0, 0.0),
                                 (2.0, math.nan, 0.0), (2.0, 2.0, math.nan)])
def test_two_mode_cov_rejects_nan(abc):
    with pytest.raises(InvalidParameterError):
        check_two_mode(*abc)


def mp_g_slope(x):
    x = mpf(x)
    return 2 * x * (x + 1) * mp.log(1 + 1 / x, 2)


# 1/x overflows below 1/DBL_MAX, about 5.56e-309: the subnormals and a few normals
OVERFLOWING = [5e-324, 1e-320, 1e-310, 1e-309, 5.5e-309]
FINITE = [5.6e-309, 1e-308, 2.3e-308, 1e-300, 1e-16]


@pytest.mark.parametrize("x", OVERFLOWING)
def test_entropies_where_one_over_x_overflows(x):
    # log1p(1/x) is taken as log1p(x) - log(x): the entropy of a subnormal
    # mean photon number is itself tiny, never inf
    assert 1.0 / x == math.inf
    with mp.workdps(40):
        for f, ref in ((g_func, mp_g), (g_slope, mp_g_slope)):
            want = ref(x)
            assert abs(f(x) - float(want)) <= 1e-14 * float(want) + 5e-323, (f, x)


@pytest.mark.parametrize("x", FINITE)
def test_entropies_where_one_over_x_is_finite(x):
    # every x whose 1/x is finite takes log1p(1/x) as before, bit for bit
    assert 1.0 / x < math.inf
    assert g_func(x) == x * math.log1p(1.0 / x) / LN2 + math.log2(x + 1.0)
    assert g_slope(x) == 2.0 * (x + 1.0) * (x * math.log1p(1.0 / x)) / LN2
    with mp.workdps(40):
        assert g_func(x) == pytest.approx(float(mp_g(x)), rel=1e-14)
        assert g_slope(x) == pytest.approx(float(mp_g_slope(x)), rel=1e-14)


def test_g_slope_values():
    # (lambda^2 - 1) log2((lambda + 1)/(lambda - 1)) / 2 at lambda = 2x + 1
    assert g_slope(0.0) == 0.0
    assert g_slope(1.0) == 4.0
    assert g_slope(0.5) == pytest.approx(3.0 * math.log2(3.0) / 2.0, rel=1e-15)
    with mp.workdps(40):
        assert g_slope(1e12) == pytest.approx(float(mp_g_slope(1e12)), rel=1e-14)
    for bad in (-1e-12, math.nan):
        with pytest.raises(InvalidParameterError, match="g_slope argument must be >= 0"):
            g_slope(bad)


def test_g_func_large_argument_accuracy():
    # references computed at 40-digit precision
    refs = {1e4: 14.73047955278608572957,
            1e6: 21.37426433156041749001,
            1e9: 31.3400478955965720584,
            1e12: 41.30583217953803292932}
    for x, ref in refs.items():
        assert abs(g_func(x) - ref) < 1e-12


def test_entropy_pure_states():
    assert von_neumann_entropy(epr_state(2.0)) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(vacuum_state(2)) == 0.0


def test_entropy_thermal():
    assert von_neumann_entropy(thermal_state(3.0)) == pytest.approx(2.0, rel=1e-14)
    marg = partial_trace(epr_state(2.0), [0])
    assert von_neumann_entropy(marg) == pytest.approx(G_HALF, rel=1e-14)


def test_physicality_check_flags_bad_matrix():
    st = GaussianState(0.5 * np.eye(2))
    with pytest.raises(NumericDomainError):
        st.require_physical()
