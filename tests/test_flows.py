import numpy as np
import pytest

from modspec import (
    BlowUpError,
    BoostSpec,
    Field,
    FlowSpec,
    evolve,
    galilei_boost,
    gaussian_field,
    linear_propagator,
    sech_field,
)


def l2_dist(a: Field, b: Field) -> float:
    return float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx))


def test_flow_spec_validation():
    with pytest.raises(ValueError):
        FlowSpec("kdv")
    with pytest.raises(ValueError):
        FlowSpec("mkdv", sign="bright")
    with pytest.raises(ValueError):
        FlowSpec("mkdv", dt=0.0)


def test_linear_propagator_identity_and_tone(grid_ref):
    f = gaussian_field(grid_ref, amplitude=0.5)
    same = linear_propagator(f, 0.0, "mkdv")
    assert np.max(np.abs(same.values - f.values)) <= 1e-14
    tone = Field(grid_ref, np.exp(1j * grid_ref.x))
    out = linear_propagator(tone, np.pi, "mkdv")
    # exp(i xi^3 t) at xi = 1, t = pi is -1
    assert np.max(np.abs(out.values + tone.values)) <= 1e-10
    out_nls = linear_propagator(tone, np.pi, "nls")
    assert np.max(np.abs(out_nls.values + tone.values)) <= 1e-10


def test_linear_propagator_is_unitary(grid_ref, rng):
    from conftest import random_smooth_field

    f = random_smooth_field(grid_ref, rng)
    for eq in ("mkdv", "nls", "mkdv_nls"):
        out = linear_propagator(f, 0.37, eq, k=1.0)
        assert out.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)


def test_step_zero_field(grid_ref):
    z = Field(grid_ref, np.zeros(grid_ref.n, dtype=complex))
    for eq in ("nls", "mkdv", "mkdv_nls"):
        fs = FlowSpec(eq, dt=1e-3, k=1.0)
        out = evolve(z, fs, [fs.dt]).fields[-1]
        assert np.all(out.values == 0)


def test_nls_soliton(grid_ref):
    u0 = sech_field(grid_ref)
    fs = FlowSpec("nls", "focusing", dt=1e-3)
    uT = evolve(u0, fs, [1.0]).fields[-1]
    ref = Field(grid_ref, np.exp(1j) / np.cosh(grid_ref.x))
    assert l2_dist(uT, ref) <= 1e-6


def test_mkdv_soliton(grid_ref):
    u0 = sech_field(grid_ref)
    fs = FlowSpec("mkdv", "focusing", dt=1e-3)
    uT = evolve(u0, fs, [1.0]).fields[-1]
    ref = sech_field(grid_ref, shift=1.0)
    assert l2_dist(uT, ref) <= 1e-5


def test_evolve_snapshots_and_observers(grid_ref):
    u0 = gaussian_field(grid_ref, amplitude=0.2)
    fs = FlowSpec("nls", dt=1e-2)
    seen = []

    def obs(t, f):
        seen.append(t)
        return {"mass": f.l2_norm()}

    traj = evolve(u0, fs, [0.0, 0.05, 0.1], observers=[obs])
    assert traj.times == [0.0, 0.05, 0.1]
    assert seen == traj.times
    assert all("mass" in row for row in traj.observations)
    t0 = evolve(u0, fs, [0.0])
    assert np.array_equal(t0.fields[0].values, u0.values)
    with pytest.raises(ValueError):
        evolve(u0, fs, [0.0333])


def test_l2_conservation(grid_ref):
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    for eq in ("mkdv", "nls"):
        for sign in ("defocusing", "focusing"):
            traj = evolve(u0, FlowSpec(eq, sign, dt=1e-3), [0.0, 1.0])
            drift = abs(traj.fields[1].l2_norm() - traj.fields[0].l2_norm())
            assert drift <= 1e-8, (eq, sign, drift)


def test_mkdv_l2_drift_tight(grid_ref):
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    traj = evolve(u0, FlowSpec("mkdv", "defocusing", dt=1e-3), [0.0, 1.0])
    assert abs(traj.fields[1].l2_norm() - traj.fields[0].l2_norm()) <= 1e-10


def test_time_reversibility(grid_ref):
    import dataclasses

    u0 = gaussian_field(grid_ref, amplitude=0.3)
    for eq in ("mkdv", "nls"):
        fs = FlowSpec(eq, "defocusing", dt=1e-3)
        uT = evolve(u0, fs, [0.5]).fields[-1]
        back = evolve(uT, dataclasses.replace(fs, dt=-fs.dt), [0.5]).fields[-1]
        assert l2_dist(back, u0) <= 1e-6


def test_real_data_stays_real_under_mkdv(grid_ref):
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    traj = evolve(u0, FlowSpec("mkdv", "focusing", dt=1e-3), [0.5])
    assert np.max(np.abs(traj.fields[-1].values.imag)) <= 1e-9


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_boost_consistency_quick(grid_ref, sign):
    """Evolve-then-boost equals boost-then-evolve under the mixed flow."""
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    k, T, dt = 1.0, 0.25, 2e-3
    fs = FlowSpec("mkdv", sign, dt=dt)
    path1 = galilei_boost(evolve(u0, fs, [T]).fields[-1], BoostSpec(k, T, "mkdv"))
    u0k = galilei_boost(u0, BoostSpec(k, 0.0, "mkdv"))
    path2 = evolve(u0k, FlowSpec("mkdv_nls", sign, dt=dt, k=k), [T]).fields[-1]
    assert l2_dist(path1, path2) <= 1e-5


def test_blow_up_detection(grid_ref):
    u0 = sech_field(grid_ref, amplitude=50.0)
    with pytest.raises(BlowUpError) as err:
        evolve(u0, FlowSpec("mkdv", "focusing", dt=5e-2), [1.0])
    assert err.value.last_good_time is not None


@pytest.mark.parametrize("eq", ["mkdv", "nls"])
def test_modulus_shift_identity_along_trajectory(grid_ref, eq):
    """|uhat^k(t, xi)| = |uhat(t, xi + k)| at every snapshot of a real run."""
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    traj = evolve(u0, FlowSpec(eq, "defocusing", dt=2e-3), [0.0, 0.1, 0.2])
    k = 1
    m = int(round(k / grid_ref.dxi))
    for t, u in zip(traj.times, traj.fields):
        uk = galilei_boost(u, BoostSpec(float(k), t, eq))
        target = np.zeros(grid_ref.n)
        target[: grid_ref.n - m] = np.abs(u.spectrum[m:])
        assert np.max(np.abs(np.abs(uk.spectrum) - target)) <= 1e-8
