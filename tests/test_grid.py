import numpy as np
import pytest
from scipy.integrate import quad

from modspec import (
    BandRangeError,
    BlowUpError,
    Field,
    FlowSpec,
    GridError,
    band_indicator_field,
    band_profile,
    evolve_batch,
    forward_transform,
    gaussian_field,
    inverse_transform,
    make_grid,
    quartic_integral,
    random_band_field,
    scale_field,
    sech_field,
    unresolved_mass_fraction,
)
from modspec import grid
from modspec.harness import ExperimentConfig
from modspec.harness.config import random_suite, suite_power
from modspec.symmetries import scaled_grid
from conftest import random_smooth_field
from oracles import band_l2, shifted_fft, shifted_ifft


def test_make_grid_lattice_spacing():
    g = make_grid(16, np.pi)
    assert g.dxi == pytest.approx(1.0)
    assert np.array_equal(g.xi, np.arange(-8, 8))
    g2 = make_grid(1024, 32 * np.pi)
    assert g2.dxi == pytest.approx(1.0 / 32)


@pytest.mark.parametrize("n,length", [(15, np.pi), (100, np.pi), (8, np.pi), (64, 0.0), (64, -1.0)])
def test_make_grid_rejects_bad_arguments(n, length):
    with pytest.raises(GridError):
        make_grid(n, length)


def test_roundtrip_and_plancherel(grid_ref, rng):
    f = random_smooth_field(grid_ref, rng)
    g = grid_ref
    from modspec import inverse_transform

    back = inverse_transform(f.spectrum, g)
    assert np.max(np.abs(back - f.values)) <= 1e-12 * np.max(np.abs(f.values))
    lhs = np.sum(np.abs(f.values) ** 2) * g.dx
    rhs = np.sum(np.abs(f.spectrum) ** 2) * g.dxi
    assert abs(lhs - rhs) <= 1e-12 * lhs


def test_transform_of_zero(grid_small):
    f = Field(grid_small, np.zeros(grid_small.n, dtype=complex))
    assert np.all(f.spectrum == 0)


def test_pure_tone_is_a_spike(grid_ref):
    g = grid_ref
    f = Field(g, np.exp(1j * g.x))
    j = np.argmin(np.abs(g.xi - 1.0))
    spike_mass = f.spectrum[j] * g.dxi
    assert spike_mass == pytest.approx(np.sqrt(2 * np.pi), rel=1e-12)
    others = np.abs(np.delete(f.spectrum, j))
    assert np.max(others) <= 1e-12 * abs(f.spectrum[j])


def test_gaussian_self_transform(grid_ref):
    f = gaussian_field(grid_ref, width=1.0, amplitude=1.0)
    expected = np.exp(-grid_ref.xi**2 / 2)
    assert np.max(np.abs(f.spectrum - expected)) <= 1e-10


def test_real_field_has_hermitian_spectrum(grid_ref, rng):
    vals = np.real(random_smooth_field(grid_ref, rng).values)
    f = Field(grid_ref, vals + 0j)
    spec = f.spectrum
    # xi_j and -xi_j pair up away from the (zeroed) Nyquist slot
    flipped = np.conj(spec[1:][::-1])
    assert np.max(np.abs(spec[1:] - flipped)) <= 1e-12 * np.max(np.abs(spec))


def test_band_l2_indicator(grid_ref):
    f = band_indicator_field(grid_ref, -0.5, 0.5)
    prof, kmax = band_profile(f), grid_ref.kmax
    assert prof[kmax + 0] == pytest.approx(1.0, abs=1e-12)
    assert prof[kmax + 3] == 0.0


def test_band_l2_gaussian_against_quadrature(grid_ref):
    spec = np.exp(-grid_ref.xi**2 / 2)
    f = Field.from_spectrum(grid_ref, spec.astype(complex))
    prof, kmax = band_profile(f), grid_ref.kmax
    oracle0 = np.sqrt(quad(lambda t: np.exp(-t**2), -0.5, 0.5)[0])
    assert prof[kmax + 0] == pytest.approx(oracle0, rel=1e-4)
    oracle1 = np.sqrt(quad(lambda t: np.exp(-t**2), 0.5, 1.5)[0])
    assert prof[kmax + 1] == pytest.approx(oracle1, rel=5e-2)


def test_band_squares_sum_to_resolved_l2(grid_ref, rng):
    f = random_smooth_field(grid_ref, rng)
    g = grid_ref
    prof = band_profile(f)
    resolved = np.abs(g.band_of) <= g.kmax
    total = np.sum(np.abs(f.spectrum[resolved]) ** 2) * g.dxi
    assert np.sum(prof**2) == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("n, length", [(1024, 32 * np.pi), (64, 0.7 * np.pi)])
def test_band_profile_matches_band_masks(n, length, rng):
    """The run-based binning agrees with per-band masks (oracles.band_l2), also on a lattice
    coarser than the bands (dxi > 1), where some bands, the last included, hold no point."""
    g = make_grid(n, length)
    f = random_smooth_field(g, rng, decay=30.0)
    ks = range(-g.kmax, g.kmax + 1)
    np.testing.assert_allclose(band_profile(f), [band_l2(f, k) for k in ks], rtol=1e-13, atol=0)
    if g.dxi > 1.0:
        assert not band_profile(f).all()  # the empty bands read 0


def test_band_profile_needs_a_resolved_band():
    g = make_grid(16, 32 * np.pi)  # 8 dxi = 1/4 < 1/2: kmax = -1
    with pytest.raises(BandRangeError):
        band_profile(np.ones(g.n), g)


def test_stacked_band_profile_matches_rescaled_fields(grid_ref):
    """One (S, N) power array binned on the rescaled grid gives band_profile and
    unresolved_mass_fraction of every rescaled field, row by row and bit for bit,
    at every default lambda."""
    suite = random_suite(grid_ref, 20, np.random.default_rng(3))
    power = np.array([np.abs(f.spectrum) ** 2 for f in suite])
    for lam in ExperimentConfig().lambdas:
        g = scaled_grid(grid_ref, lam)
        stacked = band_profile(power, g)
        fracs = unresolved_mass_fraction(power, g)
        assert stacked.shape == (len(suite), 2 * g.kmax + 1) and fracs.shape == (len(suite),)
        for f, row, frac in zip(suite, stacked, fracs):
            fl = scale_field(f, lam)
            assert row.tobytes() == band_profile(fl).tobytes()
            assert frac == unresolved_mass_fraction(fl)


def test_power_array_needs_its_grid(grid_small):
    with pytest.raises(GridError):
        band_profile(np.ones(grid_small.n))
    with pytest.raises(GridError):
        band_profile(np.ones((2, grid_small.n + 1)), grid_small)


def test_field_is_immutable(grid_small):
    f = gaussian_field(grid_small)
    with pytest.raises((ValueError, AttributeError)):
        f.values[0] = 1.0
    with pytest.raises(AttributeError):
        f.values = np.zeros(grid_small.n)


def test_forward_transform_zeroes_nyquist(grid_small, rng):
    vals = rng.standard_normal(grid_small.n)  # rough data excites the Nyquist slot
    spec = forward_transform(vals + 0j, grid_small)
    assert spec[0] == 0.0


def test_batched_transforms_match_row_by_row(grid_small, rng):
    """A (B, n) array is transformed row by row along its last axis, bit for bit."""
    vals = rng.standard_normal((5, grid_small.n)) + 1j * rng.standard_normal((5, grid_small.n))
    spec = forward_transform(vals, grid_small)
    back = inverse_transform(vals, grid_small)
    assert spec.shape == back.shape == vals.shape and np.all(spec[:, 0] == 0.0)
    for v, s, b in zip(vals, spec, back):
        assert np.array_equal(s, forward_transform(v, grid_small))
        assert np.array_equal(b, inverse_transform(v, grid_small))


@pytest.mark.parametrize("case", ["row", "stack", "strided", "real", "read-only"])
@pytest.mark.parametrize("n, length", [(256, 8 * np.pi), (1024, 32 * np.pi)])
def test_transforms_match_the_shifted_composition(n, length, case, rng):
    """The roll-free transform pair equals (dx/sqrt(2 pi)) fftshift(fft(ifftshift(v))),
    Nyquist zeroed, and its inverse (oracles) bit for bit: on one row, a (5, n) stack,
    a strided view of it, a real row and a read-only row."""
    g = make_grid(n, length)
    stack = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
    frozen = stack[2].copy()
    frozen.setflags(write=False)
    v = {"row": stack[0], "stack": stack, "strided": stack[::2],
         "real": stack[1].real.copy(), "read-only": frozen}[case]
    for got, want in ((forward_transform(v, g), shifted_fft(v, g)),
                      (inverse_transform(v, g), shifted_ifft(v, g))):
        assert got.shape == want.shape == v.shape and got.dtype == want.dtype == complex
        assert got.tobytes() == want.tobytes()


def test_transforms_and_suite_draw_make_no_roll_or_shift(grid_ref, monkeypatch):
    """The transform pair and the suite draw reorder halves by slicing: with np.roll,
    fftshift and ifftshift made to raise, all four still run."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.roll, fftshift or ifftshift was called")

    for module, name in ((np, "roll"), (np.fft, "fftshift"), (np.fft, "ifftshift")):
        monkeypatch.setattr(module, name, refuse)
    v = np.exp(-grid_ref.x**2) + 0j
    forward_transform(v, grid_ref)
    inverse_transform(v, grid_ref)
    random_suite(grid_ref, 9, np.random.default_rng(1))  # two blocks, both kinds of row
    suite_power(grid_ref, 9, np.random.default_rng(1))


# binding name, its input from the (2, 3, n) complex z and the (3, n) real x, and the
# numpy.fft call it stands for; every shape the package transforms
BINDING_CASES = {
    "rfft-row": ("rfft", lambda z, x: x[:1], lambda a, n: np.fft.rfft(a)),
    "rfft-stack": ("rfft", lambda z, x: x, lambda a, n: np.fft.rfft(a)),
    "rfft-strided": ("rfft", lambda z, x: z[0].real, lambda a, n: np.fft.rfft(a)),
    "irfft-row": ("irfft", lambda z, x: np.fft.rfft(x[:1]), lambda a, n: np.fft.irfft(a, n)),
    "irfft-stack": ("irfft", lambda z, x: np.fft.rfft(x), lambda a, n: np.fft.irfft(a, n)),
    "ifft-stacked-pair": ("ifft", lambda z, x: z, lambda a, n: np.fft.ifft(a)),
    "ifft-strided": ("ifft", lambda z, x: z[:, ::2], lambda a, n: np.fft.ifft(a)),
    "fft-stack": ("fft", lambda z, x: z[0], lambda a, n: np.fft.fft(a)),
    "fft-zero-padded": ("fft", lambda z, x: np.concatenate([z[0], z[1], z[0, :1]]),
                        lambda a, n: np.fft.fft(a, 2 * n)),
    "fft-read-only": ("fft", lambda z, x: _read_only(z[1]), lambda a, n: np.fft.fft(a)),
    "ifft-read-only": ("ifft", lambda z, x: _read_only(z[1, :1]), lambda a, n: np.fft.ifft(a)),
}


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("case", list(BINDING_CASES))
@pytest.mark.parametrize("n", [16, 1024])
def test_transform_binding_matches_numpy_fft(n, case, rng):
    """Each binding of numpy's pocketfft gufuncs equals the public numpy.fft call bit
    for bit, in the output it is given; the zero-padded case is the quartic sum's
    (7, n) -> (7, 2n).  These gufuncs are private to numpy: if a release changes
    them, this test is where it shows."""
    name, make, reference = BINDING_CASES[case]
    z = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
    a = make(z, rng.standard_normal((3, n)))
    want = reference(a, n)
    out = np.empty(want.shape, want.dtype)
    assert getattr(grid, name)(a, out) is out
    assert out.tobytes() == want.tobytes()


def test_no_transform_goes_through_numpy_fft(grid_ref, monkeypatch):
    """Every transform is a call of the grid binding: with numpy.fft's fft, ifft,
    rfft and irfft made to raise, the steppers of every kind, a blow-up check that
    forms the physical field, the centered transform pair and the quartic sum run."""
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.fft's fft, ifft, rfft or irfft was called")

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    u = gaussian_field(grid_ref, amplitude=0.3)
    tone = gaussian_field(grid_ref, amplitude=0.3, center_freq=1.0)
    mkdv, times = FlowSpec("mkdv", dt=1e-3), [0.0, 0.002]
    evolve_batch([u], mkdv, times)  # the half-spectrum stepper
    evolve_batch([tone, u], mkdv, times, ks=[0.0, 2.0])  # the full-spectrum stepper
    evolve_batch([u, tone], FlowSpec("nls", dt=1e-3), times)
    bad = [sech_field(grid_ref, amplitude=50.0),
           gaussian_field(grid_ref, amplitude=50.0, center_freq=1.0)]
    with pytest.raises(BlowUpError):  # both kinds trip the certificate
        evolve_batch(bad, FlowSpec("mkdv", "focusing", dt=5e-2), [1.0])
    inverse_transform(forward_transform(u.values, grid_ref), grid_ref)
    quartic_integral(u, 0.5)


def _suite_field_by_field(grid, size, rng, amplitude=0.3, band_span=6):
    """random_suite's draws, made one field at a time by the stock constructors."""
    suite = []
    for i in range(size):
        if i % 2 == 0:
            width = 0.5 + 3.0 * rng.random()
            cf = float(rng.integers(-band_span, band_span + 1))
            suite.append(gaussian_field(grid, width, amplitude, cf))
        else:
            lo = int(rng.integers(-band_span, 1))
            hi = int(rng.integers(0, band_span + 1))
            suite.append(random_band_field(grid, lo, max(hi, lo + 1), amplitude, rng))
    return suite


@pytest.mark.parametrize("size", [1, 16, 37])
def test_random_suite_matches_per_field_draws(grid_ref, size):
    """Drawing the suite block-wise leaves every field and the rng state bit-identical."""
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    suite = random_suite(grid_ref, size, rng_a)
    expected = _suite_field_by_field(grid_ref, size, rng_b)
    assert len(suite) == size
    for f, e in zip(suite, expected):
        assert np.array_equal(f.values, e.values) and np.array_equal(f.spectrum, e.spectrum)
        assert not f.values.flags.writeable and not f.spectrum.flags.writeable
    assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("band_span", [4, 6])
@pytest.mark.parametrize("size", [1, 16, 37])
def test_suite_power_matches_the_suite_fields(grid_ref, size, band_span):
    """suite_power is |fhat|^2 of random_suite's fields, bit for bit, and leaves
    the rng where random_suite leaves it."""
    rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
    power = suite_power(grid_ref, size, rng_a, band_span=band_span)
    suite = random_suite(grid_ref, size, rng_b, band_span=band_span)
    assert power.shape == (size, grid_ref.n)
    assert np.array_equal(power, np.array([np.abs(f.spectrum) ** 2 for f in suite]))
    assert rng_a.random() == rng_b.random()


class _CountingGenerator:
    """A numpy Generator that counts its standard_normal calls."""

    def __init__(self, rng):
        self._rng, self.normal_calls = rng, 0

    def standard_normal(self, *args, **kwargs):
        self.normal_calls += 1
        return self._rng.standard_normal(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("size", [16, 37])
def test_suite_draw_makes_one_normal_call_per_band_row(grid_ref, size):
    """A band row's lattice range, real and imaginary parts, comes from one
    standard_normal call; the drawn power is what the bare generator gives."""
    rng = _CountingGenerator(np.random.default_rng(5))
    power = suite_power(grid_ref, size, rng)
    assert rng.normal_calls == size // 2  # the odd rows are the band rows
    assert np.array_equal(power, suite_power(grid_ref, size, np.random.default_rng(5)))


def test_unresolved_mass_fraction_over_several_grids(grid_ref):
    """One call over the five default lambda grids equals five per-grid calls bit for
    bit, for a stack (a zero row included) and for one row; every grid must share n."""
    power = suite_power(grid_ref, 40, np.random.default_rng(3))
    power[0] = 0.0
    grids = [scaled_grid(grid_ref, lam) for lam in ExperimentConfig().lambdas]
    fracs = unresolved_mass_fraction(power, grids)
    assert isinstance(fracs, list) and len(fracs) == len(grids) == 5
    assert any(np.any(frac > 0.0) for frac in fracs)
    for frac, g in zip(fracs, grids):
        assert frac.tobytes() == unresolved_mass_fraction(power, g).tobytes()
    assert unresolved_mass_fraction(power[7], tuple(grids)) == [
        unresolved_mass_fraction(power[7], g) for g in grids]
    with pytest.raises(GridError):
        unresolved_mass_fraction(power, [grids[0], make_grid(512, grids[0].length)])
