import numpy as np
import pytest

from tppat.config import default_config
from tppat.direct import (DatumSet, fit_pair_pointwise, recover_field, recover_mu,
                          recover_mu_from_set, recover_pair, recover_sigma)
from tppat.errors import ValidationError
from tppat.experiments import prepare_data
from tppat.fem import clip_nonnegative
from tppat.forward import BoundarySource
from tppat.mesh import build_square_mesh
from tppat.metrics import relative_l2_error


@pytest.fixture(scope="module")
def bundle16():
    cfg = default_config()
    cfg.mesh_n = 16
    return prepare_data(cfg)


def test_recover_field_matches_forward_solution(bundle16):
    b = bundle16
    u_star = recover_field(b.mesh, b.coeffs.gruneisen, b.coeffs.diffusion,
                           b.H_clean[0], b.sources[0])
    err = relative_l2_error(u_star, b.u_clean[0], b.mesh)
    assert err <= 1e-8 * 100.0


def test_recover_field_zero_datum_constant_source():
    mesh = build_square_mesh(5)
    n = mesh.node_count
    g = BoundarySource.constant(mesh, 2.5)
    u_star = recover_field(mesh, np.ones(n), np.full(n, 0.3), np.zeros(n), g)
    assert np.abs(u_star - 2.5).max() <= 1e-9


def test_recover_field_depends_only_on_ratio(bundle16):
    b = bundle16
    u1 = recover_field(b.mesh, b.coeffs.gruneisen, b.coeffs.diffusion,
                       b.H_clean[0], b.sources[0])
    u2 = recover_field(b.mesh, 2.0 * b.coeffs.gruneisen, b.coeffs.diffusion,
                       2.0 * b.H_clean[0], b.sources[0])
    assert np.array_equal(u1, u2)


def test_recover_sigma_arithmetic():
    H = np.array([16.0])
    sigma = recover_sigma(H, np.array([1.0]), np.array([2.0]), np.array([3.0]))
    assert sigma[0] == pytest.approx(2.0, abs=1e-14)


def test_recover_sigma_mu_zero():
    rng = np.random.default_rng(0)
    H = rng.uniform(0.5, 1.5, 10)
    Gamma = rng.uniform(0.8, 1.2, 10)
    u = rng.uniform(0.5, 2.0, 10)
    sigma = recover_sigma(H, Gamma, u, np.zeros(10))
    assert np.allclose(sigma, H / (Gamma * u), rtol=1e-14)


def test_recover_mu_arithmetic():
    mu = recover_mu(np.array([16.0]), np.array([1.0]), np.array([2.0]),
                    np.array([2.0]))
    assert mu[0] == pytest.approx(3.0, abs=1e-14)


def test_recover_mu_consistency_zero():
    rng = np.random.default_rng(1)
    H = rng.uniform(0.5, 1.5, 10)
    Gamma = rng.uniform(0.8, 1.2, 10)
    u = rng.uniform(0.5, 2.0, 10)
    mu = recover_mu(H, Gamma, u, H / (Gamma * u))
    assert np.abs(mu).max() <= 1e-13


def test_positivity_floor_error_names_nodes():
    H = np.ones(5)
    u = np.array([1.0, 1.0, -0.5, 1.0, 1e-14])
    with pytest.raises(ValidationError) as err:
        recover_sigma(H, np.ones(5), u, np.zeros(5))
    msg = str(err.value)
    assert "2" in msg and "4" in msg


def test_recover_mu_noiseless_full_field(bundle16):
    # single-datum formula applied to self-generated data recovers mu exactly
    b = bundle16
    u_star = recover_field(b.mesh, b.coeffs.gruneisen, b.coeffs.diffusion,
                           b.H_clean[1], b.sources[1])
    mu = recover_mu(b.H_clean[1], b.coeffs.gruneisen, u_star,
                    b.coeffs.single_photon)
    assert relative_l2_error(mu, b.coeffs.two_photon, b.mesh) <= 0.5


def test_recover_mu_from_set_noiseless(bundle16):
    b = bundle16
    ds = b.datum_set(0.0, 1)
    mu = recover_mu_from_set(b.mesh, b.coeffs.gruneisen, b.coeffs.diffusion,
                             ds, b.coeffs.single_photon)
    assert relative_l2_error(mu, b.coeffs.two_photon, b.mesh) <= 0.5


def test_pointwise_fit_two_by_two_inversion():
    # u1*=1, u2*=2 with r1 = sigma + mu = 0.3, r2 = sigma + 2mu = 0.5
    mesh = build_square_mesh(2)
    n = mesh.node_count
    sigma, mu, report = fit_pair_pointwise(
        mesh, [np.ones(n), np.full(n, 2.0)],
        [np.full(n, 0.3), np.full(n, 0.5)])
    assert np.allclose(sigma, 0.1, atol=1e-14)
    assert np.allclose(mu, 0.2, atol=1e-14)
    assert not report.flagged.any()


def test_recover_pair_noiseless_exact(bundle16):
    b = bundle16
    ds = b.datum_set(0.0, 1)
    sigma, mu, report = recover_pair(b.mesh, b.coeffs.gruneisen,
                                     b.coeffs.diffusion, ds)
    assert relative_l2_error(sigma, b.coeffs.single_photon, b.mesh) <= 0.5
    assert relative_l2_error(mu, b.coeffs.two_photon, b.mesh) <= 0.5
    assert not report.flagged.any()
    assert np.all(np.isfinite(report.condition))


def test_recover_pair_requires_two_sources(bundle16):
    b = bundle16
    ds = DatumSet(sources=[b.sources[0]], data=[b.H_clean[0]])
    with pytest.raises(ValidationError):
        recover_pair(b.mesh, b.coeffs.gruneisen, b.coeffs.diffusion, ds)


def test_recover_pair_identical_sources_degenerate(bundle16):
    b = bundle16
    ds = DatumSet(sources=[b.sources[0], b.sources[0]],
                  data=[b.H_clean[0], b.H_clean[0].copy()])
    with pytest.raises(ValidationError):
        recover_pair(b.mesh, b.coeffs.gruneisen, b.coeffs.diffusion, ds)


def test_recover_pair_flags_and_fills_degenerate_nodes(bundle16):
    # a spread threshold inside the observed spread distribution forces the
    # fallback path on part of the mesh only
    b = bundle16
    ds = b.datum_set(0.0, 1)
    from tppat.direct import recover_all_fields
    stars = recover_all_fields(b.mesh, b.coeffs.gruneisen, b.coeffs.diffusion, ds)
    A = np.abs(np.stack(stars))
    rel_spread = (A.max(axis=0) - A.min(axis=0)) / A.max(axis=0)
    threshold = float(np.quantile(rel_spread, 0.3))
    sigma, mu, report = recover_pair(b.mesh, b.coeffs.gruneisen,
                                     b.coeffs.diffusion, ds,
                                     spread_threshold=threshold)
    assert report.flagged.any()
    assert not report.flagged.all()
    for i in np.nonzero(report.flagged)[0]:
        j = report.filled_from[i]
        assert not report.flagged[j]
        assert sigma[i] == sigma[j]
        assert mu[i] == mu[j]


def test_recover_pair_scale_invariance(bundle16):
    b = bundle16
    ds = b.datum_set(0.0, 1)
    sigma1, mu1, _ = recover_pair(b.mesh, b.coeffs.gruneisen,
                                  b.coeffs.diffusion, ds)
    scaled = DatumSet(sources=list(ds.sources),
                      data=[3.0 * H for H in ds.data])
    sigma2, mu2, _ = recover_pair(b.mesh, 3.0 * b.coeffs.gruneisen,
                                  b.coeffs.diffusion, scaled)
    assert np.allclose(sigma1, sigma2, rtol=1e-12, atol=1e-14)
    assert np.allclose(mu1, mu2, rtol=1e-12, atol=1e-14)


def test_noise_error_roughly_linear_in_level(bundle16):
    # empirical Lipschitz stability: error(eps)/eps bounded across levels
    b = bundle16
    ratios = []
    for eps in (1.0, 2.0, 5.0):
        errs = []
        for seed in range(5):
            ds = b.datum_set(eps, 100 + seed)
            sigma, mu, _ = recover_pair(b.mesh, b.coeffs.gruneisen,
                                        b.coeffs.diffusion, ds)
            errs.append(relative_l2_error(sigma, b.coeffs.single_photon, b.mesh)
                        + relative_l2_error(mu, b.coeffs.two_photon, b.mesh))
        ratios.append(np.mean(errs) / eps)
    assert max(ratios) <= 3.0 * min(ratios), f"ratios {ratios}"


def test_datum_set_validation(bundle16):
    b = bundle16
    with pytest.raises(ValidationError):
        DatumSet(sources=[b.sources[0]], data=[])
    with pytest.raises(ValidationError):
        DatumSet(sources=[], data=[])


def test_clip_nonnegative():
    out = clip_nonnegative(np.array([-0.2, 0.0, 0.7]))
    assert np.array_equal(out, [0.0, 0.0, 0.7])
