import tracemalloc

import numpy as np
import pytest

from capwave import crapper, linearization
from capwave.linearization import (
    INJECTIVITY_TOL,
    OperatorMatrix,
    angle_grid,
    dG_matrix,
    jacobian_fd,
    recurrence_scan,
    reduced_a1_coefficient,
    reduced_a2_coefficient,
    smallest_singular,
)
from capwave.operators import (
    WaveParams,
    residual_G,
    residual_G_tilde,
    residual_fd,
    residual_inf,
    theta_of,
)
from capwave.spectral import PeriodicFunction, _samples_of, grid, hilbert, mul, pf_exp
from _oracles import jacobian_loop, plus_minus_stack


GOLDEN_SIGMA_MIN_A05_M64 = 0.548817980410871  # recorded from the build SVD


def _g_at(beta):
    return lambda th: residual_G(beta, th)


def test_jacobian_fd_of_G_at_zero_is_diagonal():
    base = PeriodicFunction.zeros(256)
    jac = jacobian_fd(_g_at(1.0), base, 12, basis_in="sine")
    expected = np.diag(np.arange(1, 13) - 1.0)
    assert np.max(np.abs(jac.entries - expected)) < 1e-8
    assert jac.entries[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert jac.entries[1, 1] == pytest.approx(1.0, abs=1e-8)
    assert jac.basis == "sine"


def test_jacobian_fd_annihilates_flat_water_bifurcation_mode():
    base = PeriodicFunction.zeros(256)
    res = lambda w: residual_inf(WaveParams(alpha=0.0, beta=1.0), w)
    jac = jacobian_fd(res, base, 8)
    assert np.max(np.abs(jac.entries[:, 0])) < 1e-9  # cos t direction
    sigmas = np.linalg.svd(jac.entries, compute_uv=False)
    assert sigmas[-1] < 1e-9


def test_jacobian_fd_directional_derivative():
    rng = np.random.default_rng(23)
    base = crapper.crapper_wave(0.3, 256)
    res = lambda w: residual_inf(WaveParams(alpha=0.0, beta=crapper.beta_of(0.3)), w)
    M = 16
    jac = jacobian_fd(res, base, M)
    v = rng.standard_normal(M) / (1 + np.arange(M)) ** 2
    eps = 1e-6
    vf = PeriodicFunction.from_cosine_series(v, 256)
    fd = (res(base + eps * vf) - res(base - eps * vf)).cosine_coefficients(M) / (2 * eps)
    assert np.max(np.abs(jac.entries @ v - fd)) < 1e-7 * (1 + np.max(np.abs(fd)))


def test_jacobian_fd_second_order_in_step():
    base = crapper.crapper_wave(0.4, 256)
    res = lambda w: residual_inf(WaveParams(alpha=0.0, beta=crapper.beta_of(0.4)), w)
    ref = jacobian_fd(res, base, 8, step=2.5e-4)
    errs = []
    for step in (4e-3, 2e-3):
        jac = jacobian_fd(res, base, 8, step=step)
        errs.append(np.linalg.norm(jac.entries - ref.entries))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def _perturbed(A, n_grid):
    """Crapper's wave with a small cos 2t and cos 5t bump: no exact zero."""
    return crapper.crapper_wave(A, n_grid) + PeriodicFunction.from_cosine_series(
        [0.0, 3e-3, 0.0, 0.0, -1e-3], n_grid)


def _w_case(A, n_grid, residual, **params):
    params = WaveParams(beta=crapper.beta_of(A), **params)
    return lambda w: residual(params, w), _perturbed(A, n_grid), {}


def _angle_case(A, M):
    beta = crapper.beta_of(A)
    theta = crapper.crapper_theta(A, angle_grid(A, M))
    return lambda th: residual_G(beta, th), theta, {"basis_in": "sine"}


# name -> (residual, base, bases, M)
_JACOBIAN_CASES = {
    "deep A=0.5 alpha=0": (*_w_case(0.5, 256, residual_inf, alpha=0.0), 64),
    "deep A=0.3 alpha>0": (*_w_case(0.3, 128, residual_inf, alpha=0.03, g=1.0,
                                    sigma=1.0), 48),
    "deep A=-0.47 alpha>0": (*_w_case(-0.47, 256, residual_inf, alpha=0.02), 64),
    "deep A=0.4 alpha>0 n=512": (*_w_case(0.4, 512, residual_inf, alpha=0.01), 160),
    "vortical h=2.5 gamma=0.7": (*_w_case(0.3, 128, residual_fd, alpha=0.02, h=2.5,
                                          gamma=0.7, g=1.0, sigma=1.0), 32),
    "vortical h=1.7 gamma=-0.9": (*_w_case(-0.3, 256, residual_fd, alpha=0.01, h=1.7,
                                           gamma=-0.9), 48),
    "finite depth alpha<=0": (*_w_case(0.4, 128, residual_fd, alpha=-0.01, h=2.0,
                                       gamma=0.5), 32),
    "spectrum sine basis": (*_angle_case(0.5, 64), 64),
    "theta_of cosine->sine": (theta_of, _perturbed(0.3, 512), {"basis_out": "sine"}, 48),
    # a residual that reads only modes: pf_sin would read the stack's samples
    "angle sine->sine": (lambda f: mul(f, pf_exp(hilbert(f))),
                         crapper.crapper_theta(0.5, angle_grid(0.5, 32)),
                         {"basis_in": "sine", "basis_out": "sine"}, 32),
}


@pytest.mark.parametrize("case", list(_JACOBIAN_CASES))
def test_jacobian_fd_is_the_column_loop_bit_for_bit(monkeypatch, case):
    residual, base, bases, M = _JACOBIAN_CASES[case]
    loop = jacobian_loop(residual, base, M, **bases)
    # stacks of one column, of three (leaving a shorter last stack), of the
    # default size, and of all columns at once
    for points in (1, 6 * base.n_grid, linearization.STACK_POINTS, 2 * M * base.n_grid):
        monkeypatch.setattr(linearization, "STACK_POINTS", points)
        stacked = jacobian_fd(residual, base, M, **bases).entries
        assert np.array_equal(stacked, loop) and stacked.tobytes() == loop.tobytes(), points


def _special_bases(n):
    """Bases whose modes hold +-0, inf and nan: a -0.0 in a mode the
    +step rows leave alone must come out +0.0 there, as adding a zero did."""
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    signed_zeros = c.copy()
    signed_zeros[1::2] = complex(-0.0, -0.0)
    signed_zeros[2::4] = complex(0.0, -0.0)
    signed_zeros[3::4] = complex(-0.0, 0.0)
    special = signed_zeros.copy()
    special[[2, 5]] = complex(np.inf, -0.0), complex(np.nan, -np.inf)
    special[n - 3] = complex(-np.nan, 1.0)
    zeros = np.full(n, complex(-0.0, -0.0))
    return {name: PeriodicFunction(v) for name, v in
            (("random", c), ("signed zeros", signed_zeros), ("inf and nan", special),
             ("all -0", zeros))}


@pytest.mark.parametrize("basis", ["cosine", "sine"])
def test_plus_minus_stack_has_the_modes_of_adding_the_negated_steps(basis):
    # the modes carry the bits of base + the stack of +-step*e_j; the samples,
    # which no residual reads, are the inverse transform of those modes
    n = 32
    with np.errstate(invalid="ignore"):
        for name, base in _special_bases(n).items():
            for modes in (np.arange(1, 2), np.arange(1, 6), np.arange(9, 16)):
                for step in (1e-6, 0.37, 5e-324):
                    new = linearization._plus_minus_steps(base, basis, modes, step)
                    old = plus_minus_stack(base, basis, modes, step)
                    assert new.coeffs.tobytes() == old.coeffs.tobytes(), (name, modes, step)
                    assert new.samples.tobytes() == _samples_of(new.coeffs).tobytes(), \
                        (name, modes, step)


# tracemalloc peaks of one jacobian_fd, numpy 2.4.  FD, M = 64 on 256 points:
# 4.50 MB when products, 2x-grid samples and differences each made a
# temporary and the +-step stack was assembled from four; 3.90 MB since.
# Deep, M = 128 on 512 points: 2.75 MB when an arithmetic result deferred its
# modes too; 3.04 MB since every function holds its modes, which an unread
# result's deferred samples keep alive with the operands they will read.
# Since the conjugations take any mean and a deferred result holds its
# operands' pending computations, not the operands: FD 4.13 MB, deep 3.12 MB
# (4.58 MB and 3.71 MB when the results held the operands themselves).
# Since the +-step stack is built by from_cosine_series/from_sine_series and
# projected by cosine_coefficients/sine_coefficients: FD 4.10 MB, deep
# 3.09 MB; and since a chunk's residual modes are released before the next
# stack's residual call: FD 3.95 MB, deep 2.94 MB
FD_JACOBIAN_PEAK_BYTES = 3.90e6
DEEP_JACOBIAN_PEAK_BYTES = 2.94e6


def _jacobian_peak(residual, base, M):
    """tracemalloc peak of one jacobian_fd, after a first call has cached
    the grids and strip multipliers."""
    jacobian_fd(residual, base, M)
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        jacobian_fd(residual, base, M)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def test_one_fd_jacobian_allocates_at_most_its_measured_peak():
    residual, base, _ = _w_case(0.3, 256, residual_fd, alpha=0.02, h=2.5, gamma=0.7,
                                g=1.0, sigma=1.0)
    peak = _jacobian_peak(residual, base, 64)
    assert peak < 1.1 * FD_JACOBIAN_PEAK_BYTES, peak


def test_one_deep_jacobian_allocates_at_most_its_measured_peak():
    residual, base, _ = _w_case(0.3, 512, residual_inf, alpha=0.02, g=1.0, sigma=1.0)
    peak = _jacobian_peak(residual, base, 128)
    assert peak < 1.1 * DEEP_JACOBIAN_PEAK_BYTES, peak


def test_jacobian_fd_rejects_a_residual_that_is_not_row_wise():
    base = crapper.crapper_wave(0.2, 128)
    with pytest.raises(ValueError, match="row by row"):
        jacobian_fd(lambda w: PeriodicFunction.from_samples(w.samples[0]), base, 8)


def test_dG_matrix_does_not_depend_on_the_stack_size(monkeypatch):
    M = 48
    n_grid = angle_grid(0.5, M)
    default = linearization.STACK_POINTS
    assert default < M * n_grid  # the default splits the modes too
    monkeypatch.setattr(linearization, "STACK_POINTS", M * n_grid)
    ref = dG_matrix(0.5, M).entries
    # one mode per stack, five, the default before the heap was kept, the default
    for points in (1, 5 * n_grid, 3072, default):
        monkeypatch.setattr(linearization, "STACK_POINTS", points)
        assert dG_matrix(0.5, M).entries.tobytes() == ref.tobytes(), points


def test_dG_matrix_at_zero():
    m = dG_matrix(0.0, 16)
    expected = np.diag(np.arange(1, 17) - 1.0)
    assert np.max(np.abs(m.entries - expected)) < 1e-13
    report = smallest_singular(m, A=0.0)
    assert report.sigma_min < 1e-12
    assert report.verdict == "kernel_found"
    kernel = report.kernel_vectors[0]
    cos_sim = abs(kernel[0]) / np.linalg.norm(kernel)
    assert cos_sim > 0.999


def test_dG_matrix_row_relation():
    # the kernel equation multiplied by the common denominator couples modes
    # n and n+-2 only; pick (a1, a3, a5) satisfying the displayed row-3
    # relation and check the cos(3t) component of the multiplied image drops
    A = 0.5
    q = crapper.q_of(A)
    M, n_grid = 24, 512
    m = dG_matrix(A, M, n_grid)
    a1, a5 = 1.0, 0.7
    lhs_coeff = (1 + A ** 4) * (3 - q) - 4 * A ** 2 * q
    a3 = (A ** 2 * (5 + q) * a5 + A ** 2 * (1 + q) * a1) / lhs_coeff
    vec = np.zeros(M)
    vec[0], vec[2], vec[4] = a1, a3, a5
    image_cos = m.entries @ vec  # cosine coefficients of dG[theta_A](theta)
    image = PeriodicFunction.from_cosine_series(image_cos, n_grid)
    t = grid(n_grid)
    denom = PeriodicFunction.from_samples(
        (1 + A ** 2 + 2 * A * np.cos(t)) * (1 + A ** 2 - 2 * A * np.cos(t)))
    multiplied = mul(denom, image)
    c3 = multiplied.cosine_coefficients(6)[2]
    assert abs(c3) < 1e-10
    # violating the relation makes the same component visibly nonzero
    vec[2] = a3 * 1.05
    multiplied_bad = mul(denom, PeriodicFunction.from_cosine_series(m.entries @ vec, n_grid))
    assert abs(multiplied_bad.cosine_coefficients(6)[2]) > 1e-4


def test_dG_matrix_banded_after_denominator_clearing():
    A = 0.4
    M, n_grid = 18, 512
    m = dG_matrix(A, M, n_grid)
    t = grid(n_grid)
    denom = PeriodicFunction.from_samples(
        (1 + A ** 2 + 2 * A * np.cos(t)) * (1 + A ** 2 - 2 * A * np.cos(t)))
    cleared = np.empty((M, M))
    for j in range(M):
        img = PeriodicFunction.from_cosine_series(m.entries[:, j], n_grid)
        cleared[:, j] = mul(denom, img).cosine_coefficients(M)
    scale = np.max(np.abs(cleared))
    for k in range(3, M - 1):  # rows 1..2 carry the rank-one mean correction
        for n in range(1, M - 1):
            if abs(k - n) in (0, 2):
                continue
            assert abs(cleared[k - 1, n - 1]) < 1e-9 * scale, (k, n)
    # the mean-correction rows are genuinely occupied
    assert np.max(np.abs(cleared[0:2, :])) > 1e-3 * scale


def test_dG_matches_finite_differences():
    for A in (0.3, 0.5):
        beta = crapper.beta_of(A)
        n_grid = max(256, crapper.min_grid(A))
        theta = crapper.crapper_theta(A, n_grid)
        analytic = dG_matrix(A, 64, n_grid)
        fd = jacobian_fd(_g_at(beta), theta, 64, step=1e-6, basis_in="sine")
        rel = np.linalg.norm(fd.entries - analytic.entries) / np.linalg.norm(analytic.entries)
        assert rel < 1e-5


def test_recurrence_scan_examples():
    scan = recurrence_scan(0.5, 64)
    assert scan.verdict == "injective"
    assert scan.ratios[0] == pytest.approx(8.0 / 7.0, rel=1e-12)  # n_3 = 1.6/1.4
    assert scan.a1_coefficient == pytest.approx(-1.0, abs=1e-12)
    scan0 = recurrence_scan(0.0, 32)
    assert scan0.verdict == "kernel_found"
    assert scan0.kernel_description == "sin t"
    assert abs(scan0.kernel_vectors[0][0]) > 0.999
    with pytest.raises(ValueError):
        recurrence_scan(0.5, 4)


def test_recurrence_matches_svd_verdicts():
    for A in (0.2, -0.2, 0.5, -0.5, 0.8, -0.8):
        scan = recurrence_scan(A, 64)
        assert scan.verdict == "injective"
        assert scan.sigma_min > INJECTIVITY_TOL
        direct = smallest_singular(dG_matrix(A, 64), A=A)
        assert direct.verdict == "injective"
        assert direct.sigma_min == pytest.approx(scan.sigma_min, rel=1e-9)


def test_reduced_coefficients_against_formulas():
    rng = np.random.default_rng(31)
    for _ in range(10):
        A = rng.uniform(0.05, 0.9) * rng.choice([-1.0, 1.0])
        expected_a2 = (1 + A ** 2) ** 3 / (1 + 4 * A ** 2 + A ** 4)
        assert abs(reduced_a2_coefficient(A) - expected_a2) < 1e-12
        assert abs(reduced_a1_coefficient(A) - (-4 * A ** 2)) < 1e-12


def test_smallest_singular_identity_and_golden():
    ident = OperatorMatrix(entries=np.eye(8), basis="sine")
    rep = smallest_singular(ident)
    assert rep.sigma_min == pytest.approx(1.0, rel=1e-14)
    assert rep.verdict == "injective" and not rep.kernel_vectors
    rep0 = smallest_singular(dG_matrix(0.0, 32), A=0.0)
    assert rep0.sigma_min < 1e-12
    assert rep0.kernel_description == "sin 1t"
    rep5 = smallest_singular(dG_matrix(0.5, 64), A=0.5)
    assert rep5.sigma_min > 1e-3
    assert rep5.sigma_min == pytest.approx(GOLDEN_SIGMA_MIN_A05_M64, abs=1e-9)


def test_truncation_stability_of_sigma_min():
    for A in (0.2, 0.5, 0.8):
        s64 = smallest_singular(dG_matrix(A, 64)).sigma_min
        s128 = smallest_singular(dG_matrix(A, 128)).sigma_min
        assert abs(s128 - s64) < 0.1 * s64


def test_chain_rule_consistency():
    # the w-space Jacobian factors through the angle map: dF = dG~ o dTheta.
    # Compose on a wider truncation and compare leading blocks, since the
    # intermediate theta-space content above M feeds back into low modes.
    A = 0.3
    beta = crapper.beta_of(A)
    n_grid = 512
    M, M_wide = 16, 48
    w_a = crapper.crapper_wave(A, n_grid)
    theta_a = theta_of(w_a)
    f_tilde = lambda w: residual_inf(WaveParams(alpha=0.0, beta=beta), w)
    g_tilde = lambda th: residual_G_tilde(beta, th)
    j_f = jacobian_fd(f_tilde, w_a, M)                                   # cos -> cos
    j_g = jacobian_fd(g_tilde, theta_a, M_wide, basis_in="sine")         # sin -> cos
    j_t = jacobian_fd(theta_of, w_a, M_wide, basis_out="sine")           # cos -> sin
    composed = (j_g.entries @ j_t.entries)[:M, :M]
    rel = np.linalg.norm(j_f.entries - composed) / np.linalg.norm(j_f.entries)
    assert rel < 1e-4


def test_operator_matrix_validation():
    with pytest.raises(ValueError):
        OperatorMatrix(entries=np.zeros((3, 3)), basis="sine")
    with pytest.raises(ValueError):
        OperatorMatrix(entries=np.full((5, 5), np.nan), basis="sine")
    with pytest.raises(ValueError):
        OperatorMatrix(entries=np.zeros((5, 4)), basis="sine")


def test_basis_name_validation():
    base = crapper.crapper_wave(0.2, 128)
    with pytest.raises(ValueError, match="basis"):
        jacobian_fd(lambda w: w, base, 8, basis_in="chebyshev")
    for short in ("cos", "sin"):  # only the full names are spelled
        with pytest.raises(ValueError, match="basis"):
            jacobian_fd(lambda w: w, base, 8, basis_in=short)
        with pytest.raises(ValueError, match="basis"):
            jacobian_fd(lambda w: w, base, 8, basis_out=short)
