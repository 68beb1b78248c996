import tracemalloc

import numpy as np
import pytest

from modspec import (
    BlowUpError,
    Field,
    FlowSpec,
    evolve_batch,
    galilei_boost,
    gaussian_field,
    make_grid,
    sech_field,
)
from modspec import flows
from modspec.flows import _Stepper, dispersion_symbol
from oracles import fused_strang, linear_propagator


# (equation, k) of each flow: nls, mkdv, and mkdv in the frame of a nonzero k
FLOWS = [("nls", 0.0), ("mkdv", 0.0), ("mkdv", 2.0)]
FLOW_IDS = ["nls", "mkdv", "boosted_mkdv"]


def l2_dist(a: Field, b: Field) -> float:
    return float(np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx))


def test_flow_spec_validation():
    with pytest.raises(ValueError):
        FlowSpec("kdv")
    with pytest.raises(ValueError):
        FlowSpec("mkdv", sign="bright")
    with pytest.raises(ValueError):
        FlowSpec("mkdv", dt=0.0)
    # the boosted mkdv is mkdv at k (evolve_batch's ks): there is no third equation
    with pytest.raises(ValueError, match="'mkdv_nls'"):
        FlowSpec("mkdv_nls")


def test_dispersion_symbol_rejects_an_unknown_equation(grid_small):
    with pytest.raises(ValueError, match="unknown equation 'kdv'"):
        dispersion_symbol("kdv", grid_small.xi)


def test_evolve_batch_rejects_a_negative_snapshot_time(grid_small):
    """Snapshot times are elapsed times; a backward flow takes a negative dt."""
    u = gaussian_field(grid_small, amplitude=0.3)
    with pytest.raises(ValueError, match="nonnegative elapsed times"):
        evolve_batch([u], FlowSpec("mkdv", dt=1e-3), [0.0, -0.01])


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
    for eq, k in FLOWS:
        out = linear_propagator(f, 0.37, eq, k=k)
        assert out.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)


def test_step_zero_field(grid_ref):
    z = Field(grid_ref, np.zeros(grid_ref.n, dtype=complex))
    # the unpaired Nyquist mode alone: the step zeroes it, as forward_transform does
    nyquist = Field(grid_ref, (-1.0) ** np.arange(grid_ref.n) + 0j)
    for eq, k in FLOWS:
        fs = FlowSpec(eq, dt=1e-3)
        for u in (z, nyquist):
            out = evolve_batch([u], fs, [fs.dt], [k])[0].fields[-1]
            assert np.all(out.values == 0), (fs, k)


@pytest.mark.parametrize("eq, k", FLOWS, ids=FLOW_IDS)
def test_small_data_follows_linear_propagator(grid_ref, eq, k):
    """At amplitude 1e-9 the nonlinearity is far below roundoff: 100 steps must
    match the exact linear flow, so every multiplier sits on its own frequency."""
    u0 = gaussian_field(grid_ref, amplitude=1e-9)
    fs = FlowSpec(eq, dt=1e-3)
    uT = evolve_batch([u0], fs, [100 * fs.dt], [k])[0].fields[-1]
    ref = linear_propagator(u0, 100 * fs.dt, eq, k=k)
    assert l2_dist(uT, ref) <= 1e-12 * ref.l2_norm()


def test_nls_soliton(grid_ref):
    u0 = sech_field(grid_ref)
    fs = FlowSpec("nls", "focusing", dt=1e-3)
    uT = evolve_batch([u0], fs, [1.0])[0].fields[-1]
    ref = Field(grid_ref, np.exp(1j) / np.cosh(grid_ref.x))
    assert l2_dist(uT, ref) <= 1e-6


def test_mkdv_soliton(grid_ref):
    u0 = sech_field(grid_ref)
    fs = FlowSpec("mkdv", "focusing", dt=1e-3)
    uT = evolve_batch([u0], fs, [1.0])[0].fields[-1]
    ref = sech_field(grid_ref, shift=1.0)
    assert l2_dist(uT, ref) <= 1e-5


def _carrier_soliton(grid, a, k, t):
    """Focusing mkdv's exact travelling soliton a sech(a (x - c t)) e^{i (k x - w t)},
    c = a^2 - 3 k^2 and w = 3 k a^2 - k^3, with x - c t wrapped onto the box."""
    c, w = a * a - 3 * k * k, 3 * k * a * a - k**3
    half = grid.n * grid.dx / 2
    z = (grid.x - c * t + half) % (2 * half) - half
    return Field(grid, a / np.cosh(a * z) * np.exp(1j * (k * grid.x - w * t)))


def test_mkdv_carrier_soliton_error_and_order(grid_ref):
    """Complex data with a carrier, at frame 0: the L2 error at T = 0.25 stays at its
    measured level (2e-8 .. 5e-4 at dt 1e-3) and falls 4x when dt halves."""
    cases = [(a, k) for a in (0.5, 1.0) for k in (0.0, 2.0, 4.0)]
    u0 = [_carrier_soliton(grid_ref, a, k, 0.0) for a, k in cases]
    T = 0.25
    ref = [_carrier_soliton(grid_ref, a, k, T) for a, k in cases]
    err = {}
    for dt in (2e-3, 1e-3):
        out = evolve_batch(u0, FlowSpec("mkdv", "focusing", dt), [T])
        err[dt] = np.array([l2_dist(tr.fields[-1], r) for tr, r in zip(out, ref)])
    # measured: 1.9e-8 5.0e-7 3.9e-6 1.8e-6 6.7e-5 5.0e-4
    assert np.all(err[1e-3] <= [4e-8, 1e-6, 8e-6, 4e-6, 1.4e-4, 1e-3]), err[1e-3]
    # measured 3.94 .. 4.00 on every row, so every row is checked for order 2
    assert np.all(np.abs(err[2e-3] / err[1e-3] / 4.0 - 1.0) <= 0.1), err[2e-3] / err[1e-3]


def test_evolve_snapshots(grid_ref):
    u0 = gaussian_field(grid_ref, amplitude=0.2)
    fs = FlowSpec("nls", dt=1e-2)
    traj = evolve_batch([u0], fs, [0.0, 0.05, 0.1])[0]
    assert traj.times == [0.0, 0.05, 0.1]
    assert len(traj.fields) == 3
    t0 = evolve_batch([u0], fs, [0.0])[0]
    assert np.array_equal(t0.fields[0].values, u0.values)
    with pytest.raises(ValueError):
        evolve_batch([u0], fs, [0.0333])


def test_l2_conservation(grid_ref):
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    for eq in ("mkdv", "nls"):
        for sign in ("defocusing", "focusing"):
            traj = evolve_batch([u0], FlowSpec(eq, sign, dt=1e-3), [0.0, 1.0])[0]
            drift = abs(traj.fields[1].l2_norm() - traj.fields[0].l2_norm())
            assert drift <= 1e-8, (eq, sign, drift)


def test_mkdv_l2_drift_tight(grid_ref):
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    traj = evolve_batch([u0], FlowSpec("mkdv", "defocusing", dt=1e-3), [0.0, 1.0])[0]
    assert abs(traj.fields[1].l2_norm() - traj.fields[0].l2_norm()) <= 1e-10


def test_time_reversibility(grid_ref):
    import dataclasses

    u0 = gaussian_field(grid_ref, amplitude=0.3)
    for eq in ("mkdv", "nls"):
        fs = FlowSpec(eq, "defocusing", dt=1e-3)
        uT = evolve_batch([u0], fs, [0.5])[0].fields[-1]
        back = evolve_batch([uT], dataclasses.replace(fs, dt=-fs.dt), [0.5])[0].fields[-1]
        assert l2_dist(back, u0) <= 1e-6


def test_real_data_stays_real_under_mkdv(grid_ref):
    """evolve_batch steps a real mkdv row at k = 0 on half spectra, so its samples
    stay exactly real; the full-spectrum stepper, run here directly on the same
    row, must keep them real up to roundoff, next to the half-spectrum result."""
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    fs = FlowSpec("mkdv", "focusing", dt=1e-3)
    half = evolve_batch([u0], fs, [0.5])[0].fields[-1]
    stepper = _Stepper(grid_ref, fs, [0.0], real=False)
    s = stepper.start(np.array([u0.values]))
    for n in range(1, 501):  # evolve_batch's fused loop, 500 steps
        stepper.step(s)
        if n < 500:
            s *= stepper.full
    full = stepper.inverse(s * stepper.half)[0]
    assert np.all(half.values.imag == 0)
    assert np.max(np.abs(full.imag)) <= 1e-9
    assert np.max(np.abs(full - half.values)) <= 1e-9


def test_boosted_mkdv_steps_real_data_on_full_spectra(grid_ref):
    """Real data leaves the reals under mkdv at k = 2, so the row steps on full
    spectra: bit for bit as the allocating oracle, with a sizable imaginary part."""
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    fs = FlowSpec("mkdv", "focusing", dt=1e-3)
    u = evolve_batch([u0], fs, [0.01], [2.0])[0].fields[-1]
    assert np.max(np.abs(u.values.imag)) > 1e-3 * np.max(np.abs(u.values))
    assert np.array_equal(u.values, fused_strang([u0], fs, [2.0], 10)[0])


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_boost_consistency_quick(grid_ref, sign):
    """Evolve-then-boost equals boost-then-evolve under mkdv in the frame of k."""
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    k, T, dt = 1.0, 0.25, 2e-3
    fs = FlowSpec("mkdv", sign, dt=dt)
    path1 = galilei_boost(evolve_batch([u0], fs, [T])[0].fields[-1], k, T, "mkdv")
    u0k = galilei_boost(u0, k, 0.0, "mkdv")
    path2 = evolve_batch([u0k], fs, [T], [k])[0].fields[-1]
    assert l2_dist(path1, path2) <= 1e-5


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_frame_minus_k_is_conjugate_of_frame_k(grid_ref, sign):
    """Conjugation maps mkdv in the frame of k to the frame of -k: the -k row evolved
    from conj(u0^k) is the conjugate of the k row, and for real u0, conj(u0^k) is
    u0^-k.  run_galilei reads a real datum's -k path this way."""
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    k = 2.0
    u0k = galilei_boost(u0, k, 0.0, "mkdv")
    assert np.allclose(galilei_boost(u0, -k, 0.0, "mkdv").values, u0k.values.conj(),
                       rtol=0.0, atol=1e-15)
    fs = FlowSpec("mkdv", sign, dt=1e-3)
    plus, minus = evolve_batch([u0k, Field(grid_ref, u0k.values.conj())], fs, [0.02], [k, -k])
    a, b = plus.fields[-1].values, minus.fields[-1].values
    assert np.max(np.abs(b - a.conj())) <= 1e-14 * np.max(np.abs(a))


def test_blow_up_detection(grid_ref):
    u0 = sech_field(grid_ref, amplitude=50.0)
    with pytest.raises(BlowUpError) as err:
        evolve_batch([u0], FlowSpec("mkdv", "focusing", dt=5e-2), [1.0])
    assert err.value.last_good_time is not None


@pytest.mark.parametrize("eq", ["mkdv", "nls"])
def test_modulus_shift_identity_along_trajectory(grid_ref, eq):
    """|uhat^k(t, xi)| = |uhat(t, xi + k)| at every snapshot of a real run."""
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    traj = evolve_batch([u0], FlowSpec(eq, "defocusing", dt=2e-3), [0.0, 0.1, 0.2])[0]
    k = 1
    m = int(round(k / grid_ref.dxi))
    for t, u in zip(traj.times, traj.fields):
        uk = galilei_boost(u, float(k), t, eq)
        target = np.zeros(grid_ref.n)
        target[: grid_ref.n - m] = np.abs(u.spectrum[m:])
        assert np.max(np.abs(np.abs(uk.spectrum) - target)) <= 1e-8


# ---------------------------------------------------------------------------
# the batched, fused stepper

def _boost_batch(grid, ks):
    """The unboosted mkdv row, then one row per k of its boost; (fields, ks) of the
    batch that evolves each row in its frame."""
    u0 = gaussian_field(grid, amplitude=0.3)
    fields = [u0] + [galilei_boost(u0, float(k), 0.0, "mkdv") for k in ks]
    return fields, [0.0] + [float(k) for k in ks]


def _assert_rows_equal_single_calls(fields, fs, ks, times):
    batch = evolve_batch(fields, fs, times, ks)
    assert len(batch) == len(fields)
    for u0, k, traj in zip(fields, ks, batch):
        single = evolve_batch([u0], fs, times, [k])[0]
        assert traj.times == single.times
        for a, b in zip(traj.fields, single.fields):
            assert np.array_equal(a.values, b.values)


def test_batch_rows_equal_single_rows(grid_ref):
    """12 rows (mkdv, then mkdv at k = -5..5) step exactly as 12 one-row calls,
    under either sign."""
    fields, ks = _boost_batch(grid_ref, range(-5, 6))
    for sign in ("defocusing", "focusing"):
        _assert_rows_equal_single_calls(fields, FlowSpec("mkdv", sign, dt=1e-3), ks,
                                        [0.0, 0.01, 0.02])


def test_nls_batch_rows_equal_single_rows(grid_ref):
    fields = [gaussian_field(grid_ref, amplitude=a) for a in (0.1, 0.3, 0.5)]
    for sign in ("defocusing", "focusing"):
        _assert_rows_equal_single_calls(fields, FlowSpec("nls", sign, dt=1e-3), [0.0] * 3,
                                        [0.0, 0.01, 0.02])


def _unfused_strang(u0: Field, fs: FlowSpec, k: float, n_steps: int) -> np.ndarray:
    """Reference Strang loop: transform, half step, nonlinear substep, half step,
    inverse transform, every step."""
    g = u0.grid
    xi = np.fft.ifftshift(g.xi)
    half = np.exp(dispersion_symbol(fs.equation, xi, k) * fs.dt / 2.0)
    half[g.n // 2] = 0.0
    mask = np.abs(xi) <= g.n // 3 * g.dxi

    def rhs(s):
        s = s * mask
        v, dv = np.fft.ifft(s), np.fft.ifft(1j * xi * s)
        w = 6.0 * fs.sigma * np.abs(v) ** 2 * (dv + 1j * k * v)
        return np.fft.fft(w) * mask

    v, dt = np.array(u0.values), fs.dt
    for _ in range(n_steps):
        s = np.fft.fft(v) * half
        if fs.equation == "nls":
            w = np.fft.ifft(s)
            s = np.fft.fft(w * np.exp(-2j * fs.sigma * np.abs(w) ** 2 * dt))
        else:
            k1 = rhs(s)
            k2 = rhs(s + 0.5 * dt * k1)
            k3 = rhs(s + 0.5 * dt * k2)
            k4 = rhs(s + dt * k3)
            s = s + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = np.fft.ifft(s * half)
    return v


@pytest.mark.parametrize("eq, k", FLOWS, ids=FLOW_IDS)
def test_fused_steps_match_unfused_strang(grid_ref, eq, k):
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    fs = FlowSpec(eq, "focusing", dt=1e-3)
    traj = evolve_batch([u0], fs, [0.02, 0.05], [k])[0]
    for n, u in zip((20, 50), traj.fields):
        assert np.max(np.abs(u.values - _unfused_strang(u0, fs, k, n))) <= 1e-13


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
@pytest.mark.parametrize("rows", ["mkdv", "boosted_mkdv", "boost_batch", "complex_mkdv"])
def test_rk4_substep_is_bit_identical_to_allocating_oracle(grid_ref, sign, rows):
    """The in-place RK4 substep keeps the allocating substep's arithmetic bit for bit,
    for one mkdv row, one mkdv row at k = 2, the 12-row boost batch and one mkdv row
    with complex data.  Real mkdv rows at k = 0 (the first case and row 0 of the
    batch) step on half spectra, the others on full spectra."""
    u0 = gaussian_field(grid_ref, amplitude=0.3)
    fs = FlowSpec("mkdv", sign, dt=1e-3)
    if rows == "boost_batch":
        fields, ks = _boost_batch(grid_ref, range(-5, 6))
    elif rows == "complex_mkdv":
        fields, ks = [gaussian_field(grid_ref, amplitude=0.3, center_freq=1.0)], [0.0]
    else:
        fields, ks = [u0], [2.0 if rows == "boosted_mkdv" else 0.0]
    trajs = evolve_batch(fields, fs, [0.01, 0.02], ks)
    for i, n in enumerate((10, 20)):
        ref = fused_strang(fields, fs, ks, n)
        assert np.array_equal(np.array([tr.fields[i].values for tr in trajs]), ref)


def test_real_stage_slope_matches_complex_stage_slope(grid_ref):
    """On the default Gaussian the real kind's stage 2 sigma (u^3)_x agrees with the
    complex kind's |v|^2 v_x on the nonnegative half of the spectrum."""
    u = gaussian_field(grid_ref, amplitude=0.3)
    fs = FlowSpec("mkdv", "focusing", dt=1e-3)
    slopes = []
    for stepper in (_Stepper(grid_ref, fs, [0.0], real=True), _Stepper(grid_ref, fs, [0.0])):
        stepper.stack[0] = stepper.forward(u.values.real if stepper.real else u.values)
        stepper.stack[0] *= stepper.mask
        out = np.empty_like(stepper.stack[0])
        stepper._nonlinear_rhs(stepper.stack[0], out)
        slopes.append(out[0, : grid_ref.n // 2 + 1])
    real, full = slopes
    assert np.max(np.abs(real - full)) <= 1e-12 * np.max(np.abs(full))


def test_blown_up_row_is_none_when_only_the_l1_bound_trips(grid_small):
    """The l^1 bound may trip on a field it does not condemn: a chirped spectrum of
    modulus 2e6 bounds max|v| by about 2e6, while the chirp spreads v to about
    2e6 / sqrt(N) everywhere, finite and under BLOWUP_THRESHOLD."""
    n = grid_small.n
    stepper = _Stepper(grid_small, FlowSpec("mkdv", dt=1e-3), [0.0])
    spec = 2e6 * np.exp(1j * np.pi * np.arange(n) ** 2 / n)  # |ifft(chirp)| is flat
    # the state whose trailing half-step gives spec; the Nyquist mode, which half zeroes, is 0
    s = np.divide(spec, stepper.half, out=np.zeros((1, n), complex), where=stepper.half != 0)
    assert np.abs(s).sum() * stepper.scale[0] > flows.BLOWUP_THRESHOLD
    v = stepper.inverse(s * stepper.half)
    assert np.all(np.isfinite(v)) and np.abs(v).max() < flows.BLOWUP_THRESHOLD
    assert stepper.blown_up_row(s) is None


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_warm_step_allocates_no_transform_outputs(grid_ref, kind):
    """A warm mkdv step's transforms write into the stepper's work arrays.

    The peak transient allocation of one step, in units of 8 B N bytes (one float
    row set), is pinned for the real kind on the default Gaussian (B = 1) and the
    complex kind on its boosts k = 1..5 (B = 5).  Measured 1.18 and 2.44 units;
    with a fresh output per transform they were 2.23 and 9.45.
    """
    u = gaussian_field(grid_ref, amplitude=0.3)
    if kind == "real":
        ks, fields, bound = [0.0], [u], 1.5
    else:
        ks = [1.0, 2.0, 3.0, 4.0, 5.0]
        fields, bound = [galilei_boost(u, k) for k in ks], 3.0
    stepper = _Stepper(grid_ref, FlowSpec("mkdv", dt=1e-3), ks, real=kind == "real")
    s = stepper.start(np.array([f.values for f in fields]))
    stepper.step(s)  # warm: first-call allocations are not the step's
    tracemalloc.start()
    try:
        stepper.step(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * 8 * len(ks) * grid_ref.n


def test_real_row_step_makes_one_single_row_transform_pair_per_stage(grid_ref, monkeypatch):
    u = gaussian_field(grid_ref, amplitude=0.3)
    stepper = _Stepper(grid_ref, FlowSpec("mkdv", dt=1e-3), [0.0], real=True)
    s = stepper.start(np.array([u.values]))
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):  # the transform binding, as flows calls it
        fn = getattr(flows, name)

        def counted(a, *args, _fn=fn, _name=name, **kw):
            calls.append((_name, np.shape(a)[:-1]))
            return _fn(a, *args, **kw)

        monkeypatch.setattr(flows, name, counted)
    stepper.step(s)
    assert calls == [("irfft", (1,)), ("rfft", (1,))] * 4


@pytest.mark.parametrize("eq", ["mkdv", "nls"])
@pytest.mark.parametrize("n_rows", [1, 3])
def test_snapshots_and_inputs_are_not_aliased_to_the_state(grid_ref, eq, n_rows):
    """The state is updated in place: no snapshot and no input may share its memory."""
    fields = [gaussian_field(grid_ref, amplitude=a) for a in (0.3, 0.2, 0.1)[:n_rows]]
    kept = [np.array(u.values) for u in fields]
    for sign in ("defocusing", "focusing"):
        fs = FlowSpec(eq, sign, dt=1e-3)
        two = evolve_batch(fields, fs, [0.01, 0.02])
        one = evolve_batch(fields, fs, [0.01])
        for a, b in zip(two, one):
            assert np.array_equal(a.fields[0].values, b.fields[0].values)
        for u, values in zip(fields, kept):
            assert np.array_equal(u.values, values)


def test_blow_up_names_the_row(grid_ref):
    """BlowUpError names the caller's row, whichever group (real or complex mkdv
    data) it steps in; rows of both groups tripping in one step name the first."""
    ok = gaussian_field(grid_ref, amplitude=0.3)
    real_bad = sech_field(grid_ref, amplitude=50.0)
    complex_bad = gaussian_field(grid_ref, amplitude=50.0, center_freq=1.0)
    fs = FlowSpec("mkdv", "focusing", dt=5e-2)
    for fields, row in (([ok, real_bad], 1), ([ok, complex_bad], 1), ([complex_bad, real_bad], 0)):
        with pytest.raises(BlowUpError, match=f"row {row} ") as err:
            evolve_batch(fields, fs, [1.0])
        assert err.value.row == row
        assert err.value.last_good_time is not None


@pytest.mark.parametrize("eq", ["nls", "mkdv"])
def test_nan_row_raises_at_step_1(grid_ref, eq):
    nan = Field(grid_ref, np.full(grid_ref.n, np.nan, dtype=complex))
    fields = [gaussian_field(grid_ref, amplitude=0.3), nan]
    with pytest.raises(BlowUpError, match="before step 1;") as err:
        evolve_batch(fields, FlowSpec(eq, dt=1e-3), [0.01])
    assert err.value.row == 1
    assert err.value.last_good_time == 0.0


def test_batch_rows_must_share_grid_dt_and_substep(grid_ref):
    """A batch is one flow, so its rows share dt and the substep by construction;
    they must share the grid, and ks holds one finite wave number per row, all 0
    under nls."""
    u = gaussian_field(grid_ref, amplitude=0.3)
    v = gaussian_field(make_grid(512, 32 * np.pi), amplitude=0.3)
    mkdv, nls = FlowSpec("mkdv", dt=1e-3), FlowSpec("nls", dt=1e-3)
    bad = [
        ([u, v], mkdv, None, "share the grid"),
        ([u, u], mkdv, [1.0], r"fields and ks of shape \(1,\)"),  # one k short
        ([u, u], mkdv, [0.0, 1.0, 2.0], r"fields and ks of shape \(3,\)"),  # one k too many
        ([u, u], mkdv, [[0.0, 1.0]], r"fields and ks of shape \(1, 2\)"),
        ([u, u], mkdv, [0.0, np.nan], "must be finite"),
        ([u, u], mkdv, [np.inf, 0.0], "must be finite"),
        ([u, u], nls, [0.0, 1.5], r"0 for nls, got \[0.0, 1.5\]"),  # nls has no frame
        ([], mkdv, None, "got 0 fields"),
    ]
    for fields, fs, ks, match in bad:
        with pytest.raises(ValueError, match=match):
            evolve_batch(fields, fs, [0.01], ks)
    # explicit zeros are the default frame
    for fs in (mkdv, nls):
        a = evolve_batch([u, u], fs, [0.01], [0.0, 0.0])
        b = evolve_batch([u, u], fs, [0.01])
        assert all(np.array_equal(x.fields[-1].values, y.fields[-1].values)
                   for x, y in zip(a, b))
