import math

import numpy as np
import pytest

from qubit_chaos.channel import (
    density_to_pure,
    p_from_angles,
    pure_to_density,
    purity,
    rotate,
    rotation_unitary,
    selection_probability,
    selection_trace,
    squaring_map,
    step_density,
    validate_density,
)
from qubit_chaos.sphere import INF, SpherePoint, apply_map, overlap_distance


def random_density(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# validation

def test_validate_accepts_valid_states():
    rng = np.random.default_rng(1)
    for _ in range(20):
        validate_density(random_density(rng))


def test_validate_rejects_bad_states():
    with pytest.raises(ValueError):
        validate_density(np.array([[0.5, 0.5], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        validate_density(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        validate_density(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        validate_density(np.eye(3) / 3, dim=2)  # wrong shape


NONFINITE = [np.array([[math.nan, 0], [0, 0.5]]), np.array([[0.5, math.nan], [math.nan, 0.5]]),
             np.array([[math.inf, 0], [0, 0.5]]), np.array([[0.5, math.inf], [math.inf, 0.5]])]


@pytest.mark.parametrize("rho", NONFINITE)
@pytest.mark.parametrize("check", [
    validate_density,
    lambda rho: step_density(rho, 0.3, 0.1),
    lambda rho: rotate(rho, 0.3, 0.1),
    lambda rho: selection_trace(rho, 0.3, 0.1, 3),
], ids=["validate_density", "step_density", "rotate", "selection_trace"])
def test_nonfinite_entries_are_refused(check, rho):
    with pytest.raises(ValueError):
        check(rho)


# ---------------------------------------------------------------------------
# the squaring filter

def test_squaring_examples():
    out = squaring_map(np.diag([0.6, 0.4]))
    assert np.allclose(out, np.diag([9 / 13, 4 / 13]), atol=1e-15)
    mixed = np.eye(2) / 2
    assert np.allclose(squaring_map(mixed), mixed, atol=1e-15)
    pole = np.diag([1.0, 0.0])
    assert np.allclose(squaring_map(pole), pole, atol=1e-15)


def test_squaring_squares_complex_offdiagonals():
    rho = pure_to_density(SpherePoint(0.3 + 0.4j))
    out = squaring_map(rho)
    # the off-diagonal square is a complex square, not a modulus square
    ratio = out[0, 1] / rho[0, 1] ** 2
    assert ratio.imag == pytest.approx(0.0, abs=1e-15)
    assert ratio.real > 0


def test_squaring_preserves_validity():
    rng = np.random.default_rng(5)
    for _ in range(500):
        out = squaring_map(random_density(rng))
        assert np.allclose(out, out.conj().T, atol=1e-12)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_mixed_state_is_unstable_under_squaring():
    rho = np.diag([0.5 + 1e-6, 0.5 - 1e-6]).astype(complex)
    for _ in range(40):
        rho = squaring_map(rho)
    assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# rotation

def test_rotation_unitary_is_unitary():
    rng = np.random.default_rng(9)
    for _ in range(30):
        u = rotation_unitary(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)


@pytest.mark.parametrize("x, phi", [(math.nan, 0.0), (0.3, math.inf), (-math.inf, math.nan)])
def test_non_finite_rotation_angles_are_refused(x, phi):
    # a NaN angle made an all-NaN state, with no error
    rho = np.diag([0.9, 0.1]).astype(complex)
    for call in (lambda: rotation_unitary(x, phi), lambda: rotate(rho, x, phi),
                 lambda: step_density(rho, x, phi)):
        with pytest.raises(ValueError, match=f"x={x!r}, phi={phi!r}"):
            call()


def test_rotate_example():
    out = rotate(np.diag([1.0, 0.0]), math.pi / 4, 0.0)
    expected = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    assert np.allclose(out, expected, atol=1e-15)


def test_rotate_identity_at_zero_angle():
    rng = np.random.default_rng(13)
    rho = random_density(rng)
    assert np.allclose(rotate(rho, 0.0, 0.7), rho, atol=1e-15)


def test_rotate_preserves_purity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        rho = random_density(rng)
        assert purity(rotate(rho, rng.uniform(-2, 2), rng.uniform(-2, 2))) == \
            pytest.approx(purity(rho), abs=1e-12)


# ---------------------------------------------------------------------------
# full step and the sphere bridge

def test_step_reduces_to_squaring_at_zero_angle():
    rng = np.random.default_rng(21)
    rho = random_density(rng)
    assert np.allclose(step_density(rho, 0.0, 0.3), squaring_map(rho), atol=1e-15)


def test_pure_bridge_basis_states():
    assert np.allclose(pure_to_density(SpherePoint(0j)), np.diag([0.0, 1.0]))
    assert np.allclose(pure_to_density(INF), np.diag([1.0, 0.0]))
    assert np.allclose(pure_to_density(SpherePoint(1.0)), 0.5 * np.ones((2, 2)))


def test_pure_bridge_round_trip():
    rng = np.random.default_rng(25)
    pts = [SpherePoint(v) for v in rng.normal(size=50) + 1j * rng.normal(size=50)]
    pts += [INF, SpherePoint(0j), SpherePoint(1e120 + 0j)]
    for pt in pts:
        back = density_to_pure(pure_to_density(pt))
        assert overlap_distance(pt, back) <= 1e-12


def test_bridge_rejects_mixed_states():
    with pytest.raises(ValueError):
        density_to_pure(np.eye(2) / 2)
    pure = pure_to_density(SpherePoint(0.3 + 0.2j))
    with pytest.raises(ValueError, match="single 2x2 matrix"):
        density_to_pure(np.stack([pure, pure]))


def test_step_commutes_with_sphere_map():
    # density-step then bridge == bridge then sphere map, on pure states
    rng = np.random.default_rng(29)
    for _ in range(50):
        x = rng.uniform(0.05, math.pi / 2 - 0.05)
        phi = rng.uniform(-math.pi, math.pi)
        param = p_from_angles(x, phi)
        z = SpherePoint(rng.normal() + 1j * rng.normal())
        via_density = density_to_pure(step_density(pure_to_density(z), x, phi))
        via_sphere = apply_map(param, z)
        assert overlap_distance(via_density, via_sphere) <= 1e-18


def test_step_keeps_pure_states_pure():
    rng = np.random.default_rng(31)
    rho = pure_to_density(SpherePoint(0.7 - 0.2j))
    for _ in range(50):
        rho = step_density(rho, 0.37, 1.1)
        assert purity(rho) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# parameters and selection probabilities

def test_p_from_angles_matches_param():
    assert p_from_angles(math.pi / 4, 0.0).p == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        p_from_angles(math.pi / 2, 0.0)


def test_selection_trace_rejects_negative_steps():
    with pytest.raises(ValueError, match="nonnegative"):
        selection_trace(np.eye(2) / 2, 0.3, 0.1, -1)


def test_selection_probability_examples():
    assert selection_probability(np.diag([1.0, 0.0])) == 1.0
    assert selection_probability(np.eye(2) / 2) == 0.5


def test_selection_probability_bounds():
    rng = np.random.default_rng(35)
    for _ in range(200):
        s = selection_probability(random_density(rng))
        assert 0.5 <= s <= 1.0 + 1e-12


def test_selection_trace_of_maximally_mixed():
    probs = selection_trace(np.eye(2) / 2, 0.9, 0.4, 8)
    assert np.allclose(probs, 0.5, atol=1e-15)
    assert np.allclose(np.cumprod(probs), 0.5 ** np.arange(1, 9), atol=1e-15)


def test_batched_operations_match_loop():
    rng = np.random.default_rng(39)
    stack = np.stack([random_density(rng) for _ in range(10)])
    batched = step_density(stack, 0.4, -0.9)
    for k in range(10):
        assert np.allclose(batched[k], step_density(stack[k], 0.4, -0.9), atol=1e-14)


def test_step_density_equals_checked_rotation_bit_for_bit():
    # the step takes the squaring output into the rotation unchecked; the
    # bytes are those of the checked public rotation
    rng = np.random.default_rng(41)
    stack = np.stack([random_density(rng) for _ in range(16)])
    for rho in (stack, stack[3], pure_to_density(0.5), pure_to_density(INF)):
        for x, phi in ((0.4, -0.9), (0.0, 0.3), (1.3, 2.1)):
            got = step_density(rho, x, phi)
            want = rotate(squaring_map(rho), x, phi)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
