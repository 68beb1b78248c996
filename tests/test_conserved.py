import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import polygamma, zeta

from modspec import (
    AliasingError,
    Field,
    FlowSpec,
    SpectralParameter,
    alpha2,
    alpha4,
    alpha_terms,
    band_indicator_field,
    build_operator,
    evolve_batch,
    galilei_boost,
    gaussian_field,
    hs_functional,
    make_grid,
    quartic_integral,
    sech_field,
    tail_bound,
)
from modspec import conserved
from modspec.conserved import DEFAULT_N_OP, half_operator
from modspec.harness.config import build_family, config_from_dict, random_suite
from modspec.norms import KAPPA_MAX
from conftest import beta2, random_smooth_field
from oracles import (
    alpha_series_partial_sums,
    beta2_gauss_legendre,
    gram,
    hs_norm_sq,
    hurwitz_zeta,
    quadratic_trace_windowed,
    quartic_integral_direct,
    quartic_integral_per_term,
    sech_alpha,
    sech_alpha4,
    sech_eigenvalues,
    window_matrix,
)


def zero_field(grid):
    return Field(grid, np.zeros(grid.n, dtype=complex))


def beta_full(f, kp, n_op=DEFAULT_N_OP, center=0.0):
    """alpha(kappa) - alpha(2 kappa) / 2, both from alpha_terms."""
    kp2 = SpectralParameter(2.0 * kp.kappa, kp.sign)
    return alpha_terms(f, kp, n_op, center)[0] - 0.5 * alpha_terms(f, kp2, n_op, center)[0]


def test_spectral_parameter_validation(grid_small):
    """A kappa that is not positive, or above KAPPA_MAX = 1e102 (past 2.8e102 the
    quadratures' 8 kappa^3 overflows, and past 1.3e154 kappa^2 raises), is refused
    by every entry point; at KAPPA_MAX every value is finite (a numpy warning is
    an error here)."""
    with pytest.raises(ValueError):
        SpectralParameter(1.0, "both")
    assert SpectralParameter(0.5).sigma > 0
    f = gaussian_field(grid_small, 1.0, 0.3)
    for kappa in (0.0, -0.5, np.nan, 2e102, 1e160, np.inf):
        for call in (lambda: SpectralParameter(kappa), lambda: alpha2(f, kappa),
                     lambda: alpha2(f, kappa, shift=2.0), lambda: quartic_integral(f, kappa),
                     lambda: hs_functional(f, kappa)):
            with pytest.raises(ValueError, match="kappa must be positive"):
                call()
    alpha, a2, a4, op = alpha_terms(f, SpectralParameter(KAPPA_MAX))
    assert np.all(np.isfinite([alpha, a2, a4, op.log_det, hs_functional(f, KAPPA_MAX)]))


# ---------------------------------------------------------------------------
# quadratic closed forms

def test_alpha2_zero(grid_ref):
    assert alpha2(zero_field(grid_ref), 0.5) == 0.0


def test_alpha2_indicator_arctan(grid_ref):
    f = band_indicator_field(grid_ref, 0.0, 1.0)
    assert abs(alpha2(f, 0.5) - np.pi / 4) <= 1e-9


def test_alpha2_large_kappa_asymptotics(grid_ref):
    f = band_indicator_field(grid_ref, 0.0, 1.0)
    r10 = alpha2(f, 10.0) * 2 * 10.0
    r100 = alpha2(f, 100.0) * 2 * 100.0
    assert abs(r100 - 1.0) <= 1e-3
    assert abs(r100 - 1.0) < abs(r10 - 1.0)


def test_beta2_zero_and_partial_fractions(grid_ref, rng):
    """alpha2(kappa) - alpha2(2 kappa)/2 is the cell integral of beta's own
    quadratic kernel, evaluated independently, shifted or not."""
    assert beta2(zero_field(grid_ref), 0.5) == 0.0
    for _ in range(5):
        f = random_smooth_field(grid_ref, rng, carrier=rng.uniform(-3, 3))
        for kappa in (0.5, 1.0, 2.0):
            for shift in (0.0, 2.5):
                lhs = beta2_gauss_legendre(f, kappa, shift)
                rhs = alpha2(f, kappa, shift) - 0.5 * alpha2(f, 2 * kappa, shift)
                assert abs(lhs - rhs) <= 1e-10


def test_beta2_indicator_quadrature(grid_ref):
    f = band_indicator_field(grid_ref, -0.5, 0.5)
    oracle = 3.0 * quad(lambda t: 1.0 / ((1 + t * t) * (4 + t * t)), -0.5, 0.5)[0]
    assert beta2(f, 0.5) == pytest.approx(oracle, abs=1e-12)


# ---------------------------------------------------------------------------
# quartic term

@pytest.fixture(scope="module")
def grid64():
    return make_grid(64, 4 * np.pi)


def test_alpha4_zero(grid_ref):
    assert alpha4(zero_field(grid_ref), SpectralParameter(0.5)) == 0.0


def test_quartic_fft_matches_direct(grid64):
    g = grid64
    f = Field(g, 0.5 * np.exp(-g.x**2 / 2) * (1 + 0.3j * np.sin(g.x)))
    for kappa in (0.5, 1.0):
        qf = quartic_integral(f, kappa)
        qd = quartic_integral_direct(f, kappa)
        assert abs(qf - qd) <= 1e-9


def test_quartic_batched_transforms_are_bit_identical_to_per_term_sum(grid_ref):
    """The 7 batched forward and 6 batched inverse transforms reproduce the sum
    with one pair of 1-D correlations per term bit for bit."""
    fields = [gaussian_field(grid_ref, amplitude=0.3),
              gaussian_field(grid_ref, amplitude=0.3, center_freq=2.0),
              band_indicator_field(grid_ref, 0.0, 1.0),
              zero_field(grid_ref)]
    for f in fields:
        for kappa in (0.5, 1.0, 4.0):
            assert quartic_integral(f, kappa) == quartic_integral_per_term(f, kappa)


def test_quartic_makes_one_forward_and_one_inverse_call(grid_ref, monkeypatch):
    f = gaussian_field(grid_ref, amplitude=0.3)  # its own transform runs before counting
    calls = []
    for name in ("fft", "ifft"):  # the transform binding, as conserved calls it
        fn = getattr(conserved, name)

        def counted(*args, _fn=fn, _name=name, **kw):
            calls.append(_name)
            return _fn(*args, **kw)

        monkeypatch.setattr(conserved, name, counted)
    quartic_integral(f, 0.5)
    assert calls == ["fft", "ifft"]


def test_quartic_direct_rejects_large_grids(grid_ref):
    f = gaussian_field(grid_ref, amplitude=0.1)
    with pytest.raises(ValueError):
        quartic_integral_direct(f, 0.5)


def test_alpha4_quartic_homogeneity(grid_ref):
    f0 = gaussian_field(grid_ref, amplitude=1.0)
    kp = SpectralParameter(0.5)
    vals = {}
    for eps in (1e-1, 1e-2):
        fe = Field.from_spectrum(grid_ref, eps * f0.spectrum)
        vals[eps] = alpha4(fe, kp)
    slope = np.log(abs(vals[1e-1] / vals[1e-2])) / np.log(10.0)
    assert slope == pytest.approx(4.0, abs=0.04)


def test_alpha4_sign_convention(grid_ref):
    f = gaussian_field(grid_ref, amplitude=0.3)
    kp_d = SpectralParameter(0.5, "defocusing")
    kp_f = SpectralParameter(0.5, "focusing")
    assert alpha4(f, kp_d) == -alpha4(f, kp_f)
    # j = 2 term of the series: -+ Re tr(A^2)/2, matched by the quadrature
    A = window_matrix(f, kp_d, 512)
    t2 = complex(np.sum(A * A.T)).real / 2
    assert alpha4(f, kp_d) == pytest.approx(-t2, rel=2e-3)


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_alpha4_of_real_data_is_even_in_the_boost(grid_ref, sign):
    """For real u the boost by -k is the complex conjugate of the boost by k, so the
    paper's quartic term takes one value at +-k; on the default Gaussian at t = 0
    and on its mkdv snapshot at t = 1, measured within 1.2e-14 relative."""
    fields = [gaussian_field(grid_ref, amplitude=a) for a in (0.1, 0.4)]
    trajs = evolve_batch(fields, FlowSpec("mkdv", sign, dt=1e-3), [0.0, 1.0])
    for traj in trajs:
        for t, u in zip(traj.times, traj.fields):
            for kappa in (0.5, 1.0):
                kp = SpectralParameter(kappa, sign)
                for k in (1, 2, 4, 8):
                    plus = alpha4(galilei_boost(u, k, t), kp)
                    assert alpha4(galilei_boost(u, -k, t), kp) == pytest.approx(plus, rel=1e-12)


def test_quartic_symmetrization_invariance(grid64):
    """The quartic sum is invariant under the relabelings x1<->x3 and x2<->x4."""
    g = grid64
    f = Field(g, 0.4 * np.exp(-g.x**2 / 2) * (1 + 0.5j * np.sin(g.x)))
    fhat = f.spectrum
    kappa = 0.5
    n = g.n

    def direct(perm):
        D = lambda x: 4 * kappa**2 + x**2
        total = 0.0 + 0j
        a = g.xi[:, None]
        b = g.xi[None, :]
        x2, x4 = (a, b) if perm != "swap24" else (b, a)
        for i1 in range(n):
            x1 = g.xi[i1]
            x3 = x4 - x1 + x2
            i3 = np.rint(x3 / g.dxi).astype(int) + n // 2
            ok = (i3 >= 0) & (i3 < n)
            f3 = np.zeros((n, n), dtype=complex)
            f3[ok] = fhat.conj()[i3[ok]]
            w1 = x3 if perm == "swap13" else x1
            d1 = D(x3) if perm == "swap13" else D(x1)
            W = (2 * kappa * (w1 * x2 + w1 * x4 + x2 * x4) - 8 * kappa**3) / (d1 * D(x2) * D(x4))
            f2 = fhat[:, None] if perm != "swap24" else fhat[None, :]
            f4 = fhat[None, :] if perm != "swap24" else fhat[:, None]
            total += fhat.conj()[i1] * np.sum(W * f2 * f3 * f4)
        return float((total * g.dxi**3 / (2 * np.pi)).real)

    base = direct("plain")
    assert abs(direct("swap13") - base) <= 1e-10
    assert abs(direct("swap24") - base) <= 1e-10
    assert abs(quartic_integral(f, kappa) - base) <= 1e-10


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_alpha4_matches_exact_sech_value(grid_ref, sign):
    for amplitude in (0.1, 0.3, 0.6):
        f = sech_field(grid_ref, amplitude)
        for kappa in (0.5, 1.0, 2.0):
            exact = sech_alpha4(amplitude, kappa, sign)
            # measured within 1.3e-15 relative (2e-17 absolute)
            assert alpha4(f, SpectralParameter(kappa, sign)) == pytest.approx(exact, rel=1e-13)


def test_hurwitz_zeta_oracle_matches_scipy_on_real_x():
    """The Euler-Maclaurin sum behind the boosted sech_alpha4 against scipy's zeta,
    which it replaces only where x is complex; measured within 2.4e-16 relative."""
    for x in (0.5, 1.0, 1.5, 3.25):
        assert hurwitz_zeta(4, x) == pytest.approx(float(zeta(4.0, x)), rel=1e-15)


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_boosted_sech_alpha_oracle_matches_the_weierstrass_product(sign):
    """sech_alpha at x = 1/2 + kappa - ik/2 (loggamma at complex argument) against
    the product it sums, sum_n log(1 -+ A^2 / (n + x)^2) over 2e5 terms plus the
    tail -+ A^2 / (N + x - 1/2), in real parts; measured within 1.2e-14."""
    n = 200_000
    sg = 1.0 if sign == "defocusing" else -1.0
    for k in (2.0, 4.0, 8.0):
        for amplitude in (0.3, 0.6, 0.9):
            for kappa in (0.5, 1.0):
                x = 0.5 + kappa - 0.5j * k
                z = sg * amplitude**2 / (np.arange(n) + x) ** 2
                head = np.sum(0.5 * np.log1p(2.0 * z.real + np.abs(z) ** 2))  # Re log(1 + z)
                product = sg * (head + sg * (amplitude**2 / (n + x - 0.5)).real)
                assert abs(sech_alpha(amplitude, kappa, sign, k) - product) <= 1e-10


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_alpha4_matches_exact_boosted_sech_value(grid_ref, sign):
    """alpha4 of the boost e^(-ikx) A sech x against A^4 Re zeta(4, 1/2 + kappa - ik/2) / 2;
    measured within 6.1e-15 relative for k in {2, 4} and 2.7e-9 at k = 8, where the
    shifted spectrum nears the window's edge."""
    for amplitude in (0.3, 0.6):
        f = sech_field(grid_ref, amplitude)
        for k, rel in ((2.0, 1e-13), (4.0, 1e-13), (8.0, 1e-8)):
            uk = galilei_boost(f, k)
            for kappa in (0.5, 1.0):
                exact = sech_alpha4(amplitude, kappa, sign, k)
                assert alpha4(uk, SpectralParameter(kappa, sign)) == pytest.approx(exact, rel=rel)


def test_alpha4_aliasing_guard(grid_ref):
    g = grid_ref
    spec = np.zeros(g.n, dtype=complex)
    spec[np.argmin(np.abs(g.xi - 15.5))] = 1.0  # mass at the window edge
    f = Field.from_spectrum(g, spec)
    with pytest.raises(AliasingError):
        alpha4(f, SpectralParameter(0.5))


# ---------------------------------------------------------------------------
# operator window

def test_build_operator_zero_field(grid_ref):
    f, kp = zero_field(grid_ref), SpectralParameter(0.5)
    op = build_operator(f, kp, n_op=128)
    assert np.all(window_matrix(f, kp, 128) == 0)
    assert np.all(half_operator(f, kp, n_op=128)[0] == 0)
    assert op.radius_bound == 0.0


@pytest.mark.parametrize("k, stride", [(0.0, 2), (4.0, 1)])
def test_window_working_set_is_two_arrays(grid_ref, k, stride):
    """One alpha_terms call holds at most two m x m complex arrays and a row block at
    once: B's array scaled into the left factor and overwritten by A block by block,
    the right factor and one quarter-array block during the product, then A and
    slogdet's copy.  The conserve default Gaussian at kappa = 1/2 takes stride 2
    (m = 256); its boost by 4, centred at -4, stride 1 (m = 512).  Measured 2.28 and
    2.26 arrays under tracemalloc (3.28 and 3.26 when the product and I +- A each
    took a third array and the coarser window was held through the next build).
    The operator it returns holds no array: with it alive, what stays allocated is
    below a tenth of one (at least one array while the operator kept A)."""
    f = gaussian_field(grid_ref, 1.0, 0.3)
    if k:
        f = galilei_boost(f, k)
    kp = SpectralParameter(0.5)
    alpha_terms(f, kp, center=-k)  # warm: first-call allocations are not the window's
    tracemalloc.start()
    try:
        op = alpha_terms(f, kp, center=-k)[3]
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = DEFAULT_N_OP // op.stride
    assert op.stride == stride
    assert peak <= 2.75 * 16 * m * m
    assert current < 0.1 * 16 * m * m
    assert "half" not in {fl.name for fl in dataclasses.fields(conserved.OperatorPair)}


def _slogdet_of_a_copy(A, kp):
    """sigma log|det(I + sigma A)| on a separate array, as a reference for log_det."""
    M = kp.sigma * A
    M.flat[:: len(M) + 1] += 1.0
    return kp.sigma * np.linalg.slogdet(M)[1]


@pytest.mark.parametrize("center", [0.0, -2.0])
@pytest.mark.parametrize("stride", [1, 2, 4])
@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_blocked_window_is_bit_identical_to_one_product(grid_small, monkeypatch, sign,
                                                        stride, center):
    """build_operator's row-blocked A, the array it passes to the Frobenius norm,
    equals the one-call product of half_operator's factors bit for bit, its trace
    is tr A, and its log_det and remainder equal those of slogdet on a separate
    I +- A; taking them leaves A as it was at the norm.  n_op = 13 gives m = 13,
    6 and 3, where the blocks are uneven or the product is one block.  The
    amplitude-1.05 Gaussian has ||A||_F >= 1, so its radius bound is an
    eigen-solve's."""
    seen, norm = [], np.linalg.norm

    def capture(x, *args, **kw):  # build_operator's A and its digest at the norm
        seen.append((x, hashlib.sha256(x.tobytes()).hexdigest()))
        return norm(x, *args, **kw)

    monkeypatch.setattr(np.linalg, "norm", capture)
    kp = SpectralParameter(0.5, sign)
    fallbacks = 0
    for f in (gaussian_field(grid_small, 1.0, 0.5), gaussian_field(grid_small, 1.0, 1.05)):
        for n_op in (128, 13):
            A = window_matrix(f, kp, n_op, center, stride)
            seen.clear()
            op = build_operator(f, kp, n_op, center, stride)
            [(built, digest)] = seen
            assert built.tobytes() == A.tobytes()
            assert op.trace == complex(np.trace(A))
            fallbacks += bool(np.linalg.norm(A) >= 1.0)
            if op.radius_bound < 1.0:
                ref = _slogdet_of_a_copy(A, kp)
                low = np.trace(A).real - 0.5 * kp.sigma * np.sum(A * A.T).real
                assert op.log_det == ref
                assert op.remainder == ref - low
            else:
                assert np.isnan(op.log_det) and np.isnan(op.remainder)
            assert hashlib.sha256(built.tobytes()).hexdigest() == digest
    assert fallbacks


def test_operator_window_validation(grid_ref):
    f = gaussian_field(grid_ref, amplitude=0.1)
    kp = SpectralParameter(0.5)
    with pytest.raises(ValueError):
        build_operator(f, kp, n_op=4096)
    A = window_matrix(f, kp, 129)  # odd sizes too
    assert A.shape == (129, 129)
    assert build_operator(f, kp, n_op=129).trace == complex(np.trace(A))


def test_trace_matches_windowed_oracle(grid_ref, rng):
    kp = SpectralParameter(0.5)
    for carrier in (0.0, 3.0):
        f = random_smooth_field(grid_ref, rng, carrier=carrier)
        op = build_operator(f, kp, n_op=512)
        oracle = quadratic_trace_windowed(f, kp, n_op=512)
        assert abs(op.trace - oracle) <= 1e-8


def test_trace_oracle_with_shifted_window(grid_ref, rng):
    kp = SpectralParameter(0.5)
    f = random_smooth_field(grid_ref, rng, carrier=-6.0)
    op = build_operator(f, kp, n_op=256, center=-6.0)
    oracle = quadratic_trace_windowed(f, kp, n_op=256, center=-6.0)
    assert abs(op.trace - oracle) <= 1e-10


def test_trace_real_for_real_fields(grid_mid, rng):
    kp = SpectralParameter(0.5)
    for _ in range(3):
        f0 = random_smooth_field(grid_mid, rng)
        f = Field(grid_mid, np.real(f0.values) + 0j)
        op = build_operator(f, kp, n_op=256)
        tr = op.trace
        assert abs(tr.imag) <= 1e-10 * max(abs(tr.real), 1.0)


def test_spectrum_real_nonnegative_for_smooth_real_fields(grid_mid):
    """Unimodal-spectrum real data: the window matrix has a real, >= 0 spectrum."""
    g = grid_mid
    profiles = [
        0.3 * np.exp(-g.x**2 / 2),
        0.25 * np.exp(-(g.x - 2.0) ** 2 / 2) + 0.2 * np.exp(-(g.x + 3.0) ** 2 / 4),
    ]
    for kappa in (0.5, 2.0):
        for vals in profiles:
            A = window_matrix(Field(g, vals + 0j), SpectralParameter(kappa), 256)
            ev = np.linalg.eigvals(A)
            assert np.max(np.abs(ev.imag)) <= 1e-10
            assert np.min(ev.real) >= -1e-10


def test_gram_matrix_nonnegative(grid_mid, rng):
    kp = SpectralParameter(0.5)
    f = random_smooth_field(grid_mid, rng, carrier=2.0)
    evh = np.linalg.eigvalsh(gram(half_operator(f, kp, n_op=256)[0]))
    assert evh.min() >= -1e-10


def test_trace_approaches_alpha2_as_window_grows(grid_mid, rng):
    kp = SpectralParameter(0.5)
    f = random_smooth_field(grid_mid, rng)
    a2 = alpha2(f, 0.5)
    gaps = []
    for n_op in (256, 512, 1024):
        op = build_operator(f, kp, n_op=n_op)
        gaps.append(abs(op.trace.real - a2))
    assert gaps[1] <= 0.7 * gaps[0] and gaps[2] <= 0.7 * gaps[1]


def test_hs_norm_comparable_to_functional(grid_ref, rng):
    suite = random_suite(grid_ref, 50, rng, band_span=4)
    ratios = []
    for kappa in (0.5, 1.0, 2.0, 4.0):
        kp = SpectralParameter(kappa)
        for f in suite[::5]:
            half = half_operator(f, kp, n_op=512)[0]
            ratios.append(hs_norm_sq(half) / hs_functional(f, kappa))
    assert max(ratios) <= 10.0 and min(ratios) >= 0.1


def test_spectral_radius_against_dense_eigenvalues(grid_mid, rng):
    kp = SpectralParameter(0.5)
    f = random_smooth_field(grid_mid, rng, carrier=1.0)
    op = build_operator(f, kp, n_op=256)
    rho_dense = np.max(np.abs(np.linalg.eigvals(window_matrix(f, kp, 256))))
    assert op.radius_bound >= rho_dense * (1 - 1e-12)


def test_radius_bound_falls_back_to_eigenvalues(grid_small):
    """Near the edge ||A||_F >= 1 > rho: the bound is the exact radius and alpha_full runs."""
    f = gaussian_field(grid_small, 1.0, 1.05)
    kp = SpectralParameter(0.5)
    op = build_operator(f, kp, n_op=128)
    A = window_matrix(f, kp, 128)
    rho_dense = np.max(np.abs(np.linalg.eigvals(A)))
    assert np.linalg.norm(A) >= 1.0 > rho_dense
    assert op.radius_bound == pytest.approx(rho_dense, abs=1e-10)
    assert np.isfinite(alpha_terms(f, kp, n_op=128)[0])


# ---------------------------------------------------------------------------
# full series

def test_alpha_full_zero(grid_ref):
    assert alpha_terms(zero_field(grid_ref), SpectralParameter(0.5), n_op=128)[0] == 0.0


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_alpha_full_matches_partial_sums(grid_mid, rng, sign):
    kp = SpectralParameter(0.5, sign)
    f = random_smooth_field(grid_mid, rng, amplitude=0.25)
    op = build_operator(f, kp, n_op=256)
    pure = op.log_det
    sums = alpha_series_partial_sums(window_matrix(f, kp, 256), kp.sigma, 8)
    h = hs_norm_sq(half_operator(f, kp, n_op=256)[0])
    tail_bound_8 = h**9 / (1 - h)
    assert abs(pure - sums[-1]) <= tail_bound_8 + 1e-13


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_series_tail_decays_geometrically(grid_mid, rng, sign):
    kp = SpectralParameter(0.5, sign)
    f = random_smooth_field(grid_mid, rng, amplitude=0.4)
    op = build_operator(f, kp, n_op=256)
    pure = op.log_det
    sums = alpha_series_partial_sums(window_matrix(f, kp, 256), kp.sigma, 10)
    tails = np.abs(pure - sums)
    h = hs_norm_sq(half_operator(f, kp, n_op=256)[0])
    floor = 1e-12 * max(1.0, abs(pure))
    for j in range(4, 9):
        if tails[j] > floor and tails[j + 1] > floor:
            assert tails[j + 1] / tails[j] <= h + 1e-6


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_alpha_terms_parts(grid_mid, rng, sign):
    """alpha = (log-det minus its j <= 2 trace terms) + (alpha2 + alpha4), bit for bit."""
    kp = SpectralParameter(0.5, sign)
    f = random_smooth_field(grid_mid, rng, amplitude=0.25)
    alpha, a2, a4, op = alpha_terms(f, kp, n_op=256)
    assert (a2, a4) == (alpha2(f, 0.5), alpha4(f, kp))
    assert alpha == op.remainder + (a2 + a4)
    A = window_matrix(f, kp, 256, stride=op.stride)
    low = alpha_series_partial_sums(A, kp.sigma, 2)[-1]
    assert abs(op.remainder - (op.log_det - low)) <= 1e-14


def test_alpha_full_low_order_structure(grid_ref):
    """|alpha - alpha2 - alpha4| <= C hs^3 with one C over the amplitude sweep."""
    kp = SpectralParameter(0.5)
    f0 = gaussian_field(grid_ref, amplitude=1.0)
    consts = []
    for eps in (0.1, 0.03, 0.01):
        f = Field.from_spectrum(grid_ref, eps * f0.spectrum)
        lhs = abs(alpha_terms(f, kp)[0] - alpha2(f, 0.5) - alpha4(f, kp))
        consts.append(lhs / hs_functional(f, 0.5) ** 3)
    assert max(consts) <= 0.1
    assert max(consts) / min(consts) <= 5.0


def test_alpha_full_small_amplitude_expansion(grid_ref):
    kp = SpectralParameter(0.5)
    f0 = gaussian_field(grid_ref, amplitude=1.0)
    a2_base = alpha2(f0, 0.5)
    a4_base = alpha4(f0, kp)
    ratios = []
    for eps in (1e-1, 3e-2, 1e-2):
        f = Field.from_spectrum(grid_ref, eps * f0.spectrum)
        resid = alpha_terms(f, kp)[0] - eps**2 * a2_base - eps**4 * a4_base
        ratios.append(abs(resid) / eps**6)
    assert max(ratios) <= 10.0 * min(r for r in ratios if r > 0)


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_divergence_guard_at_exact_sech_radius(grid_small, sign):
    """At kappa = 1/2 the exact rho(A) of A sech x is A^2: the stride-1 radius bound
    reads it, and alpha turns NaN between A = 0.98 and A = 1.02, where the ladder
    has gone down to stride 1 and the operator certifies rho(A) >= 1."""
    kp = SpectralParameter(0.5, sign)
    for amplitude in (0.98, 1.02):
        op = build_operator(sech_field(grid_small, amplitude), kp, 128)  # stride 1
        assert op.radius_bound == pytest.approx(amplitude**2, rel=1e-8)  # measured 3.4e-10
    assert np.isfinite(alpha_terms(sech_field(grid_small, 0.98), kp, 128)[0])
    alpha, _, _, op = alpha_terms(sech_field(grid_small, 1.02), kp, 128)
    assert np.isnan(alpha)
    assert op.stride == 1 and op.radius_bound >= 1.0


def test_log_det_is_nan_on_an_uncertified_window(grid_small):
    """The stride-1 window of 1.02 sech x has rho(A) = 1.0404: its log-det and
    remainder are NaN for both signs, while those of 0.98 sech x are finite.
    The log-det is taken at build for kp's sign, so each sign builds its window."""
    for amplitude, certified in ((1.02, False), (0.98, True)):
        for sign in ("defocusing", "focusing"):
            op = build_operator(sech_field(grid_small, amplitude), SpectralParameter(0.5, sign), 128)
            assert (op.radius_bound < 1.0) == certified
            assert np.isfinite(op.log_det) == certified
            assert np.isfinite(op.remainder) == certified


def test_alpha_full_divergence_guard(grid_ref):
    f = gaussian_field(grid_ref, amplitude=4.0)
    alpha, _, _, op = alpha_terms(f, SpectralParameter(0.5))
    assert np.isnan(alpha) and np.isnan(op.log_det)
    assert op.stride == 1 and op.radius_bound >= 1.0


@pytest.mark.parametrize("sign", ["defocusing", "focusing"])
def test_alpha_remainder_matches_exact_sech_value(grid_ref, sign):
    """The window's j >= 3 remainder alpha - alpha2 - alpha4 against the exact one,
    sech_alpha - A^2 psi'(x) - sech_alpha4 with x = 1/2 + kappa, relative to the
    quadratic term A^2 psi'(x); measured within 1.5e-6 (A = 0.9, kappa = 2)."""
    for amplitude in (0.3, 0.9):
        f = sech_field(grid_ref, amplitude)
        for kappa in (0.5, 2.0):
            alpha, a2, a4, _ = alpha_terms(f, SpectralParameter(kappa, sign))
            quadratic = amplitude**2 * float(polygamma(1, 0.5 + kappa))
            exact = (sech_alpha(amplitude, kappa, sign) - quadratic
                     - sech_alpha4(amplitude, kappa, sign))
            assert abs((alpha - a2 - a4) - exact) <= 2e-6 * quadratic


@pytest.mark.parametrize("kappa", [0.5, 1.0])
def test_operator_eigenvalues_match_exact_sech_spectrum(grid_small, kappa):
    """The 4 largest |eigenvalues| of the stride-1 window matrix of 0.6 sech x against
    A^2 / (n + 1/2 + kappa)^2; measured within 5.2e-5 (kappa = 1/2) and 1.6e-4 (kappa = 1)
    relative.  The spectrum does not depend on the sign."""
    A = window_matrix(sech_field(grid_small, 0.6), SpectralParameter(kappa), 128)
    top = np.sort(np.abs(np.linalg.eigvals(A)))[::-1][:4]
    exact = sech_eigenvalues(0.6, kappa, 4)
    assert np.max(np.abs(top - exact) / exact) <= 3e-4


def test_beta_full_zero_and_quadratic_part(grid_ref):
    kp = SpectralParameter(0.5)
    assert beta_full(zero_field(grid_ref), kp, n_op=128) == 0.0
    f0 = gaussian_field(grid_ref, amplitude=1.0)
    b2_base = beta2(f0, 0.5)
    ratios = []
    for eps in (0.1, 0.05):
        f = Field.from_spectrum(grid_ref, eps * f0.spectrum)
        resid = beta_full(f, kp) - eps**2 * b2_base
        ratios.append(abs(resid) / eps**4)
    # quadratic part is exactly beta2; the residual is the quartic-and-up tail
    assert ratios[0] <= 10.0 * ratios[1] + 1e-12


def test_tail_bound_dominates_high_order_parts(grid_ref):
    """|beta_{>=6}| <= C tail^3 and |beta_{>=4}| <= C tail^2 across boosts."""
    kp_h = SpectralParameter(0.5)
    kp_1 = SpectralParameter(1.0)
    u = gaussian_field(grid_ref, 1.2, 0.3)
    for k in (0.0, 2.0, 4.0):
        uk = galilei_boost(u, k, 0.0, "mkdv")
        b2 = beta2(u, 0.5, shift=k)
        b4 = alpha4(uk, kp_h) - 0.5 * alpha4(uk, kp_1)
        bf = beta_full(uk, kp_h, center=-k)
        b6 = bf - b2 - b4
        tail = tail_bound(u, k)
        assert abs(b4 + b6) <= 1.0 * tail**2
        assert abs(b6) <= 1.0 * tail**3


def test_operator_cap():
    """n_op above N_OP_CAP is refused before the dense matrices are allocated."""
    f = gaussian_field(make_grid(4096, 32 * np.pi), amplitude=0.1)
    with pytest.raises(ValueError, match="cap"):
        build_operator(f, SpectralParameter(0.5), n_op=4096)


def test_tail_bound_values(grid_ref):
    assert tail_bound(zero_field(grid_ref), 0.0) == 0.0
    f = band_indicator_field(grid_ref, -0.5, 0.5)
    base = quad(lambda t: np.log(np.sqrt(4 + t * t)) / np.sqrt(4 + t * t), -0.5, 0.5)[0]
    assert tail_bound(f, 0.0) == pytest.approx(base, rel=1e-3)


# ---------------------------------------------------------------------------
# stride of the operator window

def _stride_one_alpha(monkeypatch, f, kp, **kw):
    """alpha_terms with the first stride tried set to 1: the full-lattice window."""
    with monkeypatch.context() as mp:
        mp.setattr(conserved, "FIRST_STRIDE", 1)
        alpha, _, _, op = alpha_terms(f, kp, **kw)
    assert op.stride == 1
    return alpha


def _conserve_default_snapshots():
    cfg = config_from_dict({"version": 1})
    u0 = build_family(cfg.family, cfg.grid(), np.random.default_rng(cfg.seed))[0]
    traj = evolve_batch([u0], FlowSpec(cfg.equation, cfg.sign, cfg.dt), [0.0, 1.0])[0]
    return cfg, traj.fields


def test_chosen_stride_matches_stride_one(monkeypatch):
    """At the conserve defaults (t = 0 and 1) and on a boosted tails field, the
    accepted stride's alpha is within 1e-9 |alpha| of the full-lattice window's."""
    cfg, snaps = _conserve_default_snapshots()
    cases = [(u, SpectralParameter(kappa, cfg.sign), 0.0)
             for u in snaps for kappa in (0.5, 1.0, 2.0, 4.0)]
    uk = galilei_boost(snaps[0], 2.0, 0.0, "mkdv")
    cases += [(uk, SpectralParameter(kappa, cfg.sign), -2.0) for kappa in (0.5, 1.0)]
    strides = []
    for f, kp, center in cases:
        alpha, _, _, op = alpha_terms(f, kp, n_op=cfg.n_op, center=center)
        ref = _stride_one_alpha(monkeypatch, f, kp, n_op=cfg.n_op, center=center)
        assert abs(alpha - ref) <= 1e-9 * abs(ref)
        strides.append(op.stride)
    assert max(strides) > 1  # the defaults do take a coarser window


def test_wide_gaussian_takes_a_fine_stride(grid_ref):
    """A width-8 gaussian fills a quarter of the box: sampling every 4th lattice
    frequency periodizes it with overlap, which the doubling test must see."""
    f = gaussian_field(grid_ref, 8.0, 0.1)
    _, _, _, op = alpha_terms(f, SpectralParameter(0.5))
    assert op.stride <= 2


def test_zero_field_alpha_at_first_stride(grid_ref):
    alpha, a2, a4, op = alpha_terms(zero_field(grid_ref), SpectralParameter(0.5))
    assert alpha == a2 == a4 == 0.0
    assert op.stride == conserved.FIRST_STRIDE and op.doubling_gap == 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.doubling_gap = 1.0


@pytest.mark.parametrize("n_op, first", [(4, 1), (8, 2), (16, 4)])
def test_small_window_shrinks_the_first_stride(grid_small, monkeypatch, n_op, first):
    """Below 4 FIRST_STRIDE points the first stride m halves until the 2m window,
    the first one built, keeps two points; the strides then halve from m."""
    strides, build = [], conserved.build_operator

    def recorded(f, kp, n_op, center, stride):
        strides.append(stride)
        return build(f, kp, n_op, center, stride)

    monkeypatch.setattr(conserved, "build_operator", recorded)
    f = gaussian_field(grid_small, 1.0, 0.3)
    alpha, _, _, op = alpha_terms(f, SpectralParameter(0.5), n_op=n_op)
    assert strides[0] == 2 * first and n_op // strides[0] == 2
    assert strides[1:] == [first >> j for j in range(len(strides) - 1)]
    assert op.stride == strides[-1]
    assert window_matrix(f, SpectralParameter(0.5), n_op, stride=op.stride).shape == (
        n_op // op.stride,) * 2
    assert np.isfinite(alpha)


def test_trace_matches_oracle_at_chosen_stride(grid_ref, rng):
    kp = SpectralParameter(0.5)
    for carrier in (0.0, 3.0):
        f = random_smooth_field(grid_ref, rng, carrier=carrier)
        _, _, _, op = alpha_terms(f, kp)
        oracle = quadratic_trace_windowed(f, kp, stride=op.stride)
        A = window_matrix(f, kp, DEFAULT_N_OP, stride=op.stride)
        assert len(A) == DEFAULT_N_OP // op.stride
        assert abs(op.trace - oracle) <= 1e-10


def test_strided_window_is_a_subset_of_the_lattice_window(grid_ref, rng):
    """Stride m keeps every m-th frequency of the stride-1 window: its V entries
    are the stride-1 ones at the shared rows and columns, times m."""
    f = random_smooth_field(grid_ref, rng)
    kp = SpectralParameter(1.0)
    full = half_operator(f, kp, n_op=256, center=-1.0)[0]
    sub = half_operator(f, kp, n_op=256, center=-1.0, stride=4)[0]
    assert window_matrix(f, kp, 256, center=-1.0, stride=4).shape == (64, 64)
    assert np.allclose(sub, 4.0 * full[::4, ::4], rtol=1e-13, atol=0.0)
    with pytest.raises(ValueError, match="cap"):
        build_operator(f, kp, n_op=4 * 4096, stride=4)  # 4096 points


def test_window_past_the_lattice_is_the_zero_padded_window(rng):
    """A window that leaves the (n, L) lattice is the same window on the field
    zero-padded to (2n, L), where it stays on the lattice: V reads fhat as zero
    past the lattice edge, and the frequencies do not depend on the lattice."""
    g = make_grid(256, 8 * np.pi)
    f = random_smooth_field(g, rng)
    g2 = make_grid(2 * g.n, g.length)
    spec = np.zeros(g2.n, dtype=complex)
    spec[g.n // 2: g.n // 2 + g.n] = f.spectrum
    f2 = Field.from_spectrum(g2, spec)
    kp = SpectralParameter(0.5)
    for stride in (1, 2, 4):  # xi from -22 to 10; the (n, L) lattice starts at -16
        op = build_operator(f, kp, 256, -6.0, stride)
        assert op == build_operator(f2, kp, 256, -6.0, stride)
        assert np.array_equal(window_matrix(f, kp, 256, -6.0, stride),
                              window_matrix(f2, kp, 256, -6.0, stride))
        assert np.array_equal(half_operator(f, kp, 256, -6.0, stride)[0],
                              half_operator(f2, kp, 256, -6.0, stride)[0])


def test_n_op_below_four_is_refused(grid_ref):
    with pytest.raises(ValueError, match="below 4"):
        alpha_terms(gaussian_field(grid_ref, amplitude=0.1), SpectralParameter(0.5), n_op=3)


def test_stride_needs_the_spectrum_on_its_sublattice(monkeypatch, grid_ref):
    """Plane waves at lattice offsets +3 and -5 vanish on the stride-8 and -16
    sub-lattices through 0, where the doubling test alone agrees trivially
    (both remainders 0): the sub-lattice mass check sends alpha_terms to stride 1."""
    j = np.arange(-grid_ref.n // 2, grid_ref.n // 2)
    f = Field.from_spectrum(grid_ref, 0.5 * (j == 3) + 0.35 * (j == -5))
    kp = SpectralParameter(0.5)
    alpha, _, _, op = alpha_terms(f, kp)
    assert op.stride == 1
    ref = _stride_one_alpha(monkeypatch, f, kp)
    assert abs(alpha - ref) <= 1e-9 * abs(ref)
