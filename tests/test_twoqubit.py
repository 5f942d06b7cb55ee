import json
import math

import numpy as np
import pytest

from qubit_chaos.channel import (
    pure_to_density,
    rotation_unitary,
    squaring_channel,
    step_density,
    validate_density,
)
from qubit_chaos.sphere import SpherePoint
from qubit_chaos.twoqubit import (
    DEFAULT_ANGLES,
    basis_state,
    default_initial_state,
    fidelity,
    load_density_json,
    purification_trace,
    reduced_state,
    rotate_local,
    squaring4,
    step_two_qubit,
    write_trace_csv,
)


def random_two_qubit_density(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ np.conj(a.T)
    return rho / np.trace(rho).real


def proj(vec):
    vec = np.asarray(vec, dtype=complex)
    return np.outer(vec, np.conj(vec))


# ---------------------------------------------------------------------------
# four-level squaring

def test_squaring4_maximally_mixed_is_fixed():
    rho = np.eye(4, dtype=complex) / 4.0
    assert np.allclose(squaring4(rho), rho, atol=1e-15)


def test_squaring4_squares_diagonal_weights():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    out = squaring4(rho)
    want = np.diag([0.16, 0.09, 0.04, 0.01]) / 0.30
    assert np.allclose(out, want, atol=1e-15)


def test_squaring4_fixes_pure_basis_states():
    for k in range(4):
        rho = proj(basis_state(k))
        assert np.allclose(squaring4(rho), rho, atol=1e-15)


def test_squaring4_preserves_validity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        out = squaring4(random_two_qubit_density(rng))
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.allclose(out, np.conj(out.T), atol=1e-12)
        assert np.linalg.eigvalsh(out).min() > -1e-10


# ---------------------------------------------------------------------------
# local rotations

def test_rotate_local_identity_at_zero_angle():
    rng = np.random.default_rng(7)
    rho = random_two_qubit_density(rng)
    assert np.allclose(rotate_local(rho, 1, 0.0, 0.0), rho, atol=1e-15)
    assert np.allclose(rotate_local(rho, 2, 0.0, 0.0), rho, atol=1e-15)


def test_rotate_local_order_is_irrelevant():
    rng = np.random.default_rng(9)
    rho = random_two_qubit_density(rng)
    a = rotate_local(rotate_local(rho, 1, 0.4, 0.1), 2, 0.2, -0.3)
    b = rotate_local(rotate_local(rho, 2, 0.2, -0.3), 1, 0.4, 0.1)
    assert np.allclose(a, b, atol=1e-12)


def test_rotate_local_acts_on_the_named_factor():
    # rotating qubit 1 of |00> by x = pi/4 gives (|00> - |10>)/sqrt(2)
    rho = proj(basis_state(0))
    out = rotate_local(rho, 1, math.pi / 4.0, 0.0)
    want = proj((basis_state(0) - basis_state(2)) / math.sqrt(2.0))
    assert np.allclose(out, want, atol=1e-15)
    # qubit 2 flips the second label instead
    out2 = rotate_local(rho, 2, math.pi / 4.0, 0.0)
    want2 = proj((basis_state(0) - basis_state(1)) / math.sqrt(2.0))
    assert np.allclose(out2, want2, atol=1e-15)


def test_rotate_local_rejects_bad_index():
    rho = np.eye(4) / 4.0
    with pytest.raises(ValueError, match="qubit index must be 1 or 2"):
        rotate_local(rho, 3, 0.1, 0.0)
    with pytest.raises(ValueError, match="qubit index must be 1 or 2"):
        reduced_state(rho, 3)
    for index in (-1, 4):
        with pytest.raises(ValueError, match="basis index"):
            basis_state(index)


# ---------------------------------------------------------------------------
# composite step

def test_step_reduces_to_squaring_at_zero_angles():
    rng = np.random.default_rng(11)
    rho = random_two_qubit_density(rng)
    assert np.allclose(step_two_qubit(rho, 0.0, 0.0, 0.0, 0.0),
                       squaring4(rho), atol=1e-14)


def test_step_closes_over_product_states():
    # product in, product out: the pair step factorizes through the
    # single-qubit step on each marginal
    rng = np.random.default_rng(13)
    for _ in range(20):
        z1 = complex(rng.normal(), rng.normal())
        z2 = complex(rng.normal(), rng.normal())
        r1 = pure_to_density(SpherePoint(z1))
        r2 = pure_to_density(SpherePoint(z2))
        x1, p1, x2, p2 = rng.uniform(-1.0, 1.0, size=4)
        joint = step_two_qubit(np.kron(r1, r2), x1, p1, x2, p2)
        want = np.kron(step_density(r1, x1, p1), step_density(r2, x2, p2))
        assert np.allclose(joint, want, atol=1e-10)


def test_step_embeds_single_qubit_dynamics():
    # with qubit 2 parked in |0> and left unrotated, qubit 1's marginal
    # follows the single-qubit step exactly
    rng = np.random.default_rng(15)
    r1 = pure_to_density(SpherePoint(0.3 + 0.4j))
    rho = np.kron(r1, proj([1, 0]))
    for _ in range(5):
        rho = step_two_qubit(rho, 0.35, 0.2, 0.0, 0.0)
        r1 = step_density(r1, 0.35, 0.2)
        assert np.allclose(reduced_state(rho, 1), r1, atol=1e-10)


def test_reduced_state_traces_out_the_other_qubit():
    r1 = pure_to_density(SpherePoint(1.0))
    r2 = pure_to_density(SpherePoint(2.0 - 1.0j))
    rho = np.kron(r1, r2)
    assert np.allclose(reduced_state(rho, 1), r1, atol=1e-15)
    assert np.allclose(reduced_state(rho, 2), r2, atol=1e-15)


def test_fidelity_matches_projection():
    rho = proj(basis_state(3))
    assert fidelity(rho, basis_state(3)) == pytest.approx(1.0, abs=1e-15)
    assert fidelity(rho, basis_state(0)) == pytest.approx(0.0, abs=1e-15)
    plus = (basis_state(0) + basis_state(3)) / math.sqrt(2.0)
    assert fidelity(proj(plus), basis_state(3)) == pytest.approx(0.5, abs=1e-14)


# ---------------------------------------------------------------------------
# traces

def test_trace_constant_at_pure_fixed_point():
    trace = purification_trace(proj(basis_state(0)), angles=(0, 0, 0, 0), n=8)
    assert np.allclose(trace.purity, 1.0, atol=1e-12)
    assert np.isnan(trace.selection_prob[0])
    assert np.allclose(trace.selection_prob[1:], 1.0, atol=1e-12)


def test_trace_purifies_biased_mixture():
    trace = purification_trace(default_initial_state(), angles=(0, 0, 0, 0),
                               n=12, target=basis_state(0))
    assert trace.purity[0] < 0.86
    assert trace.purity[-1] > 1.0 - 1e-6
    assert trace.fidelity[-1] > 1.0 - 1e-6
    assert np.all(np.diff(trace.purity) > -1e-12)


def test_trace_selection_probabilities_are_physical():
    rng = np.random.default_rng(17)
    trace = purification_trace(random_two_qubit_density(rng), n=30)
    sel = trace.selection_prob[1:]
    assert np.all((sel > 0.0) & (sel <= 1.0 + 1e-12))
    assert trace.fidelity is None
    assert len(trace.steps) == 31 and trace.steps[0] == 0


def test_trace_rejects_invalid_input():
    bad = np.eye(4, dtype=complex)  # trace 4
    with pytest.raises(ValueError):
        purification_trace(bad, n=3)


def test_trace_csv_layout(tmp_path):
    trace = purification_trace(default_initial_state(), n=2,
                               target=basis_state(0))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,purity,fidelity,selection_prob"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == ""  # no selection before step 1
    assert float(first[1]) == pytest.approx(trace.purity[0])
    later = lines[2].split(",")
    assert float(later[3]) == pytest.approx(trace.selection_prob[1])


def test_trace_csv_omits_fidelity_without_target(tmp_path):
    trace = purification_trace(default_initial_state(), n=1)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    row = path.read_text().splitlines()[1].split(",")
    assert row[2] == ""


# ---------------------------------------------------------------------------
# state files

def density_to_json_rows(rho):
    return [[[c.real, c.imag] for c in row] for row in np.asarray(rho, dtype=complex)]


def test_load_density_json_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    rho = random_two_qubit_density(rng)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(density_to_json_rows(rho)))
    assert np.allclose(load_density_json(path), rho, atol=1e-15)


def test_load_density_json_rejects_bad_states(tmp_path):
    cases = {
        "nonhermitian": density_to_json_rows(
            np.diag([0.5, 0.5, 0.0, 0.0]) + 0.2j * np.eye(4)),
        "trace": density_to_json_rows(np.eye(4, dtype=complex)),
        "negative": density_to_json_rows(
            np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)),
        "shape": density_to_json_rows(np.eye(3, dtype=complex) / 3.0),
    }
    for name, doc in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_density_json(path)


def test_load_density_json_rejects_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"not": "a matrix"}')
    with pytest.raises(ValueError):
        load_density_json(path)


def test_default_initial_state_is_valid():
    rho = default_initial_state()
    validate_density(rho, 4)
    assert rho[0, 0].real == pytest.approx(0.925)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)


def test_default_angles_shape():
    assert len(DEFAULT_ANGLES) == 4
