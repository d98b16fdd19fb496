import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from builders import bundle, config, jittered_mesh
from oracle import mu_from_set_loop
from test_forward import count_grid_preconditioner_applications
from tppat import direct
from tppat.direct import (NOISE_SAFETY, DatumSet, fit_pair_pointwise, recover_all_fields,
                          recover_pair)
from tppat.errors import ValidationError
from tppat.experiments import prepare_data, reconstruct
from tppat.fem import DEFAULT_TOL, clip_nonnegative, solve_linear
from tppat.forward import (BoundarySource, ForwardOperator, add_noise, compute_datum,
                           noise_std, noise_stream_seed, solve_semilinear)
from tppat.lsq import Evaluator
from tppat.mesh import build_square_mesh
from tppat.metrics import relative_l2_error


def recover_one(op, Gamma, H, g):
    """The density u* of one noiseless datum: recover_all_fields on one source."""
    return recover_all_fields(op, Gamma, DatumSet(sources=[g], data=[H]))[0]


def test_recover_field_matches_forward_solution():
    b = bundle(mesh_n=16)
    u_star = recover_one(b.operator, b.coeffs.gruneisen, b.H_clean[0], b.sources[0])
    err = relative_l2_error(u_star, b.u_clean[0], b.mesh)
    assert err <= 1e-8 * 100.0


def test_recover_field_zero_datum_constant_source():
    # a zero datum makes no DatumSet (the fits weigh it by 1 / H^2), so the
    # density solve itself takes the zero load: u* = g
    mesh = build_square_mesh(5)
    g = BoundarySource.constant(mesh, 2.5)
    u_star = ForwardOperator(mesh, 0.3).solve_reaction(g, np.zeros(mesh.node_count))
    assert np.abs(u_star - 2.5).max() <= 1e-9


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_recover_field_rejects_a_nonpositive_or_nonfinite_gruneisen(bad):
    mesh = build_square_mesh(3)
    Gamma = np.ones(mesh.node_count)
    Gamma[5] = bad
    with pytest.raises(ValidationError, match="coefficient gruneisen"):
        recover_one(ForwardOperator(mesh, 0.3), Gamma, np.ones(mesh.node_count),
                    BoundarySource.constant(mesh, 1.0))


@pytest.mark.parametrize("solve, name", [
    ("ForwardOperator", "diffusion"), ("recover_all_fields", "gruneisen"),
    ("solve_semilinear", "single_photon"), ("solve_semilinear", "two_photon"),
    ("Evaluator", "gruneisen")])
@pytest.mark.parametrize("bad", [0.0, np.nan])
def test_each_solve_names_the_coefficient_it_rejects(solve, name, bad):
    # a CoefficientSet checks nothing: each solve checks the fields it takes
    mesh = build_square_mesh(3)
    n = mesh.node_count
    fields = {"gruneisen": np.ones(n), "diffusion": np.full(n, 0.3),
              "single_photon": np.full(n, 0.1), "two_photon": np.full(n, 0.2)}
    fields[name][5] = bad
    g = BoundarySource.constant(mesh, 1.0)
    data = DatumSet(sources=[g], data=[np.ones(n)])
    calls = {
        "ForwardOperator": lambda: ForwardOperator(mesh, fields["diffusion"]),
        "recover_all_fields": lambda: recover_all_fields(
            ForwardOperator(mesh, 0.3), fields["gruneisen"], data),
        "solve_semilinear": lambda: solve_semilinear(
            ForwardOperator(mesh, 0.3), fields["single_photon"], fields["two_photon"], g),
        "Evaluator": lambda: Evaluator(ForwardOperator(mesh, 0.3), fields["gruneisen"],
                                       data, 0.0),
    }
    with pytest.raises(ValidationError, match=f"coefficient {name}"):
        calls[solve]()


def test_datum_set_keeps_its_own_read_only_data():
    mesh = build_square_mesh(3)
    H = np.ones(mesh.node_count)
    ds = DatumSet(sources=[BoundarySource.constant(mesh, 1.0)], data=[H])
    H[4] = 7.0
    assert np.all(ds.data[0] == 1.0)
    with pytest.raises(ValueError):
        ds.data[0][4] = 7.0


def test_fit_with_sigma_known_returns_a_copy_of_it():
    mesh = build_square_mesh(1)
    n = mesh.node_count
    s = np.full(n, 2.0)
    sigma, mu, _ = fit_pair_pointwise(mesh, [np.full(n, 2.0)], [np.full(n, 8.0)],
                                      sigma_known=s)
    assert sigma is not s and np.array_equal(sigma, s)
    assert np.allclose(mu, 3.0, rtol=0.0, atol=1e-14)


def test_recover_field_depends_only_on_ratio():
    b = bundle(mesh_n=16)
    u1 = recover_one(b.operator, b.coeffs.gruneisen, b.H_clean[0], b.sources[0])
    u2 = recover_one(b.operator, 2.0 * b.coeffs.gruneisen, 2.0 * b.H_clean[0],
                     b.sources[0])
    assert np.array_equal(u1, u2)


def test_recover_sigma_arithmetic():
    # H = Gamma (sigma + mu |u|) u with Gamma = 1, sigma = 2, mu = 3 at u = 2
    # and u = 4, so r = H / (Gamma u) is 8 and 14
    mesh = build_square_mesh(1)
    n = mesh.node_count
    sigma, mu, _ = fit_pair_pointwise(mesh, [np.full(n, 2.0), np.full(n, 4.0)],
                                      [np.full(n, 8.0), np.full(n, 14.0)])
    assert np.allclose(sigma, 2.0, rtol=0.0, atol=1e-14)
    assert np.allclose(mu, 3.0, rtol=0.0, atol=1e-14)


def test_recover_sigma_mu_zero():
    # mu = 0 makes every ratio equal to sigma
    mesh = build_square_mesh(3)
    rng = np.random.default_rng(0)
    sigma_true = rng.uniform(0.5, 1.5, mesh.node_count)
    u = [rng.uniform(0.5, 2.0, mesh.node_count) for _ in range(3)]
    sigma, mu, report = fit_pair_pointwise(mesh, u, [sigma_true] * 3)
    assert np.allclose(sigma, sigma_true, rtol=1e-12)
    assert np.abs(mu).max() <= 1e-12
    assert not report.flagged.any()


def test_recover_mu_arithmetic():
    # J = 1 is the single-datum formula mu = H / (Gamma u |u|) - sigma / |u|:
    # H = 16, Gamma = 1, u = 2, sigma = 2 give r = 8 and mu = 3
    mesh = build_square_mesh(1)
    n = mesh.node_count
    sigma, mu, report = fit_pair_pointwise(mesh, [np.full(n, 2.0)], [np.full(n, 8.0)],
                                           sigma_known=np.full(n, 2.0))
    assert np.array_equal(mu, np.full(n, 3.0))
    assert np.array_equal(sigma, np.full(n, 2.0))
    assert np.array_equal(report.condition, np.ones(n))
    assert not report.flagged.any()


def test_recover_mu_consistency_zero():
    mesh = build_square_mesh(3)
    rng = np.random.default_rng(1)
    H = rng.uniform(0.5, 1.5, mesh.node_count)
    Gamma = rng.uniform(0.8, 1.2, mesh.node_count)
    u = rng.uniform(0.5, 2.0, mesh.node_count)
    r = H / (Gamma * u)
    _, mu, _ = fit_pair_pointwise(mesh, [u], [r], sigma_known=r)
    assert np.abs(mu).max() <= 1e-13


def test_nonpositive_density_nodes_are_flagged():
    # u* = 0 at node 2 and u* < 0 at node 4: flagged and filled, not an error
    mesh = build_square_mesh(2)
    n = mesh.node_count
    u = np.ones(n)
    u[2], u[4] = -0.5, 0.0
    ratios = np.linspace(1.0, 2.0, n)
    for sigma_known in (np.zeros(n), None):
        stars = [u, 2.0 * np.ones(n)] if sigma_known is None else [u]
        rs = [ratios, 2.0 * ratios] if sigma_known is None else [ratios]
        sigma, mu, report = fit_pair_pointwise(mesh, stars, rs, sigma_known=sigma_known)
        assert np.nonzero(report.flagged)[0].tolist() == [2, 4]
        assert np.all(np.isfinite(mu))
        for i in (2, 4):
            j = report.filled_from[i]
            assert not report.flagged[j]
            assert mu[i] == mu[j] and sigma[i] == sigma[j]


MESH3 = build_square_mesh(3)      # a grid: equidistant nearest nodes are common


def node_values(low, high):
    return hnp.arrays(float, MESH3.node_count, elements=st.floats(low, high))


@st.composite
def pointwise_data(draw):
    """Noiseless data H_j = Gamma (sigma + mu |u_j*|) u_j* on MESH3.

    The |u_j*| at a node are spaced at least a quarter of the smallest apart,
    so the pair fit is well conditioned; at the nodes in bad the first u_j*
    is negated, which the fit must flag.
    """
    pair = draw(st.booleans())
    J = draw(st.integers(2 if pair else 1, 5))
    base = draw(node_values(0.5, 5.0))
    gaps = draw(hnp.arrays(float, (J, MESH3.node_count), elements=st.floats(0.0, 0.25)))
    A = base * (1.0 + 0.5 * np.arange(J)[:, None] + gaps)
    sigma, mu, Gamma = (draw(node_values(0.05, 1.0)), draw(node_values(0.05, 1.0)),
                        draw(node_values(0.5, 2.0)))
    bad = draw(hnp.arrays(bool, MESH3.node_count))
    stars = A.copy()
    stars[0, bad] *= -1.0
    H = Gamma * (sigma + mu * A) * stars
    return pair, list(stars), list(H), Gamma, sigma, mu, bad


def fit(pair, stars, H, Gamma, sigma):
    ratios = [h / (Gamma * u) for h, u in zip(H, stars)]   # as recover_pair forms them
    return fit_pair_pointwise(MESH3, stars, ratios,
                              sigma_known=None if pair else sigma)


@settings(max_examples=200, deadline=None)
@given(pointwise_data())
def test_pointwise_fit_recovers_noiseless_ratios_and_sums_as_the_loop(case):
    pair, stars, H, Gamma, sigma_true, mu_true, bad = case
    if bad.all():
        with pytest.raises(ValidationError, match="every node"):
            fit(pair, stars, H, Gamma, sigma_true)
        return
    sigma, mu, report = fit(pair, stars, H, Gamma, sigma_true)
    assert np.array_equal(report.flagged, bad)
    good = ~bad
    assert np.all(np.abs(mu - mu_true)[good] <= 1e-10 * mu_true[good])
    assert np.all(np.abs(sigma - sigma_true)[good] <= 1e-10 * sigma_true[good])
    if not pair:
        assert np.array_equal(sigma, sigma_true)
        assert np.array_equal(mu[good],
                              mu_from_set_loop(H, Gamma, stars, sigma_true)[good])
        assert np.array_equal(report.condition, np.ones(MESH3.node_count))


@settings(max_examples=200, deadline=None)
@given(pointwise_data())
def test_pointwise_fit_fills_each_flagged_node_from_the_nearest_good_node(case):
    pair, stars, H, Gamma, sigma_true, _, bad = case
    if bad.all():
        return
    sigma, mu, report = fit(pair, stars, H, Gamma, sigma_true)
    good = np.nonzero(~report.flagged)[0].tolist()
    for i in range(MESH3.node_count):
        d2 = ((MESH3.nodes - MESH3.nodes[i]) ** 2).sum(axis=1)
        nearest = i if i in good else min(good, key=lambda k: (d2[k], k))
        assert report.filled_from[i] == nearest
        assert mu[i] == mu[nearest]
        if pair:                        # a known sigma is returned as given
            assert sigma[i] == sigma[nearest]


def log_uniform(low, high):
    return st.floats(np.log10(low), np.log10(high)).map(lambda e: 10.0 ** e)


@st.composite
def exact_ratios(draw):
    """Exact ratios r_j = sigma + mu |u_j*| on MESH3, all positive.

    The |u_j*| at a node are spaced as in pointwise_data and scaled by a
    factor over six decades; sigma and mu share a scale over twelve, so the
    fit's weights 1 / r_j^2 range over twenty-four. sigma and mu |u_j*| stay
    within a factor 33 of each other, so that the pair is conditioned well
    enough for 1e-12.
    """
    J = draw(st.integers(2, 5))
    u_scale, scale = draw(log_uniform(1e-3, 1e3)), draw(log_uniform(1e-6, 1e6))
    base = draw(node_values(0.5, 2.0))
    gaps = draw(hnp.arrays(float, (J, MESH3.node_count), elements=st.floats(0.0, 0.25)))
    A = u_scale * base * (1.0 + 0.5 * np.arange(J)[:, None] + gaps)
    sigma = scale * draw(node_values(0.2, 1.0))
    mu = scale / u_scale * draw(node_values(0.2, 1.0))
    return list(A), list(sigma + mu * A), sigma, mu


@settings(max_examples=200, deadline=None)
@given(exact_ratios())
def test_weighted_fit_of_exact_ratios_returns_the_coefficients(case):
    # the weights 1 / r_j^2 bias no fit of exact data: the pair and mu with
    # sigma known come back to 1e-12 relative at every node
    stars, ratios, sigma_true, mu_true = case
    sigma, mu, report = fit_pair_pointwise(MESH3, stars, ratios)
    assert not report.flagged.any()
    assert np.all(np.abs(sigma - sigma_true) <= 1e-12 * sigma_true)
    assert np.all(np.abs(mu - mu_true) <= 1e-12 * mu_true)
    _, mu, _ = fit_pair_pointwise(MESH3, stars, ratios, sigma_known=sigma_true)
    assert np.all(np.abs(mu - mu_true) <= 1e-12 * mu_true)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
@settings(max_examples=50, deadline=None)
@given(rows=hnp.arrays(float, (3, MESH3.node_count), elements=st.floats(1e-300, 1e300)),
       source=st.integers(0, 2), node=st.integers(0, MESH3.node_count - 1),
       size=st.floats(1e-300, 1e300), flip=st.booleans())
def test_datum_set_requires_finite_positive_data_naming_the_source(bad, rows, source,
                                                                   node, size, flip):
    # each kind of value the weights 1 / H^2 cannot use, drawn in its
    # variants: a negative of any size, 0 and inf of either sign
    value = bad * size if bad < 0.0 else (-bad if flip else bad)
    sources = [BoundarySource.constant(MESH3, 1.0)] * 3
    data = [row.copy() for row in rows]
    passed = list(data)
    ds = DatumSet(sources=sources, data=passed)
    # positive finite data are kept as read-only copies; the caller's list
    # and arrays stay as they were
    assert len(passed) == 3 and all(H is row for H, row in zip(passed, data))
    assert all(H.flags.writeable for H in data) and np.array_equal(np.stack(data), rows)
    for kept, H in zip(ds.data, data):
        assert kept is not H and not kept.flags.writeable and np.array_equal(kept, H)
    data[source][node] = value
    with pytest.raises(ValidationError, match=f"datum of source {source} has a "
                                              f"nonpositive or non-finite node value"):
        DatumSet(sources=sources, data=data)


def test_a_datum_set_and_its_fits_reject_another_mesh():
    # sources and data share the first source's mesh, and a fit with an
    # operator on another mesh rejects the set before any solve
    mesh, other = build_square_mesh(3), build_square_mesh(4)
    g = BoundarySource.constant(mesh, 1.0)
    H = np.ones(mesh.node_count)
    with pytest.raises(ValidationError, match="a source does not match the mesh boundary"):
        DatumSet(sources=[g, BoundarySource.constant(other, 1.0)], data=[H, H])
    with pytest.raises(ValidationError, match="field has"):
        DatumSet(sources=[g], data=[np.ones(other.node_count)])
    ds = DatumSet(sources=[g, g], data=[H, H])
    op = ForwardOperator(other, 0.3)
    with pytest.raises(ValidationError, match="the datum set is on another mesh"):
        recover_all_fields(op, 1.0, ds)
    with pytest.raises(ValidationError, match="boundary source does not match the mesh"):
        Evaluator(op, 1.0, ds, 0.0).forward_states(1.0, 1.0)


def test_pointwise_fit_rejects_a_zero_or_nonfinite_ratio_at_a_node_it_keeps():
    # at a flagged node such a row gets weight 0 instead, with no warning
    n = MESH3.node_count
    stars = [np.ones(n), np.full(n, 2.0)]
    stars[0][3] = -1.0
    for bad in (0.0, np.nan, np.inf):
        ratios = [np.ones(n), np.full(n, 1.5)]
        ratios[0][3] = bad
        _, _, report = fit_pair_pointwise(MESH3, stars, ratios)
        assert np.nonzero(report.flagged)[0].tolist() == [3]
        ratios[1][4] = bad
        with pytest.raises(ValidationError, match="finite nonzero ratios"):
            fit_pair_pointwise(MESH3, stars, ratios)


@pytest.mark.parametrize("which", [0, 1])
def test_pointwise_fit_rejects_a_field_of_the_wrong_length(which):
    # a density (which = 0) or a ratio (which = 1) with one value too many
    n = MESH3.node_count
    inputs = [[np.ones(n), np.full(n, 2.0)], [np.ones(n), np.full(n, 1.5)]]
    inputs[which][1] = np.ones(n + 1)
    with pytest.raises(ValidationError,
                       match=rf"field has \({n + 1},\) values, mesh has {n} nodes"):
        fit_pair_pointwise(MESH3, *inputs)


def test_recover_mu_noiseless_full_field():
    # the J = 1 fit on self-generated data recovers mu exactly
    b = bundle(mesh_n=16)
    u_star = recover_one(b.operator, b.coeffs.gruneisen, b.H_clean[1], b.sources[1])
    ratio = b.H_clean[1] / (b.coeffs.gruneisen * u_star)
    _, mu, report = fit_pair_pointwise(b.mesh, [u_star], [ratio],
                                       sigma_known=b.coeffs.single_photon)
    assert relative_l2_error(mu, b.coeffs.two_photon, b.mesh) <= 0.5
    assert not report.flagged.any()


def test_recover_mu_from_set_noiseless():
    b = bundle(mesh_n=16)
    ds = b.datum_set(0.0, 1)
    sigma, mu, report = recover_pair(b.operator, b.coeffs.gruneisen, ds,
                                     sigma_known=b.coeffs.single_photon)
    assert relative_l2_error(mu, b.coeffs.two_photon, b.mesh) <= 0.5
    assert np.array_equal(sigma, b.coeffs.single_photon)
    assert not report.flagged.any()
    assert np.array_equal(report.condition, np.ones(b.mesh.node_count))


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


def test_recover_pair_noiseless_exact():
    b = bundle(mesh_n=16)
    ds = b.datum_set(0.0, 1)
    sigma, mu, report = recover_pair(b.operator, b.coeffs.gruneisen, ds)
    assert relative_l2_error(sigma, b.coeffs.single_photon, b.mesh) <= 0.5
    assert relative_l2_error(mu, b.coeffs.two_photon, b.mesh) <= 0.5
    assert not report.flagged.any()
    assert np.all(np.isfinite(report.condition))


def test_recover_pair_requires_two_sources():
    b = bundle(mesh_n=16)
    ds = DatumSet(sources=[b.sources[0]], data=[b.H_clean[0]])
    with pytest.raises(ValidationError):
        recover_pair(b.operator, b.coeffs.gruneisen, ds)


def test_recover_pair_identical_sources_degenerate():
    b = bundle(mesh_n=16)
    ds = DatumSet(sources=[b.sources[0], b.sources[0]],
                  data=[b.H_clean[0], b.H_clean[0].copy()])
    with pytest.raises(ValidationError):
        recover_pair(b.operator, b.coeffs.gruneisen, ds)


def test_recover_pair_flags_and_fills_degenerate_nodes(monkeypatch):
    # a spread threshold inside the observed spread distribution forces the
    # fallback path on part of the mesh only
    b = bundle(mesh_n=16)
    ds = b.datum_set(0.0, 1)
    stars = recover_all_fields(b.operator, b.coeffs.gruneisen, ds)
    A = np.abs(np.stack(stars))
    rel_spread = (A.max(axis=0) - A.min(axis=0)) / A.max(axis=0)
    monkeypatch.setattr(direct, "SPREAD_THRESHOLD", float(np.quantile(rel_spread, 0.3)))
    sigma, mu, report = recover_pair(b.operator, b.coeffs.gruneisen, ds)
    assert report.flagged.any()
    assert not report.flagged.all()
    for i in np.nonzero(report.flagged)[0]:
        j = report.filled_from[i]
        assert not report.flagged[j]
        assert sigma[i] == sigma[j]
        assert mu[i] == mu[j]


def test_recover_pair_scale_invariance():
    b = bundle(mesh_n=16)
    ds = b.datum_set(0.0, 1)
    sigma1, mu1, _ = recover_pair(b.operator, b.coeffs.gruneisen, ds)
    scaled = DatumSet(sources=list(ds.sources),
                      data=[3.0 * H for H in ds.data])
    sigma2, mu2, _ = recover_pair(b.operator, 3.0 * b.coeffs.gruneisen, scaled)
    assert np.allclose(sigma1, sigma2, rtol=1e-12, atol=1e-14)
    assert np.allclose(mu1, mu2, rtol=1e-12, atol=1e-14)


def test_noise_error_roughly_linear_in_level():
    # empirical Lipschitz stability: error(eps)/eps bounded across levels
    b = bundle(mesh_n=16)
    ratios = []
    for eps in (1.0, 2.0, 5.0):
        errs = []
        for seed in range(5):
            ds = b.datum_set(eps, 100 + seed)
            sigma, mu, _ = recover_pair(b.operator, b.coeffs.gruneisen, ds)
            errs.append(relative_l2_error(sigma, b.coeffs.single_photon, b.mesh)
                        + relative_l2_error(mu, b.coeffs.two_photon, b.mesh))
        ratios.append(np.mean(errs) / eps)
    assert max(ratios) <= 3.0 * min(ratios), f"ratios {ratios}"


def test_datum_set_validation():
    b = bundle(mesh_n=16)
    with pytest.raises(ValidationError):
        DatumSet(sources=[b.sources[0]], data=[])
    with pytest.raises(ValidationError):
        DatumSet(sources=[], data=[])


def test_clip_nonnegative():
    out = clip_nonnegative(np.array([-0.2, 0.0, 0.7]))
    assert np.array_equal(out, [0.0, 0.0, 0.7])


@pytest.mark.parametrize("bad", [-1.0, -1e-300, np.nan, np.inf])
def test_datum_set_noise_level_rejects_a_negative_or_nonfinite_epsilon(bad):
    b = bundle(mesh_n=16)
    with pytest.raises(ValidationError, match="noise level must be finite and nonnegative"):
        DatumSet(sources=b.sources[:2], data=b.H_clean[:2], noise_level=bad)


def test_direct_solves_run_to_the_noise_matched_tolerance(monkeypatch):
    # max(DEFAULT_TOL, NOISE_SAFETY * epsilon / 100): noiseless data and
    # noisy data at noise_level 0 keep the 1e-10 solves
    b = bundle(mesh_n=16)
    received = []
    solve = ForwardOperator.solve

    def recording(self, w, rhs, tol, x0=None):
        received.append(tol)
        return solve(self, w, rhs, tol, x0=x0)

    monkeypatch.setattr(ForwardOperator, "solve", recording)
    J = len(b.sources)
    for data, tol in [(b.datum_set(0.0, 5), 1e-10),
                      (DatumSet(sources=list(b.sources), data=list(b.H_clean)), 1e-10),
                      (b.datum_set(2.0, 5), 2e-5)]:
        received.clear()
        recover_pair(b.operator, b.coeffs.gruneisen, data)
        assert received == [tol] * J


@pytest.mark.parametrize("epsilon", [1.0, 2.0, 5.0])
def test_noisy_direct_solves_need_few_preconditioner_applications(epsilon, monkeypatch):
    # each direct solve takes 9 applications at DEFAULT_TOL at n = 32, and 3-4 here
    b = bundle(mesh_n=32)
    applications = count_grid_preconditioner_applications(monkeypatch)
    recover_pair(b.operator, b.coeffs.gruneisen, b.datum_set(epsilon, 7))
    assert len(applications) == len(b.sources)
    assert max(applications) <= 5, applications


@functools.lru_cache(maxsize=None)
def clean_problem(n, mesh_seed):
    """(operator, coefficients, sources, clean data, clean forward fields) of
    the default phantom on the grid (mesh_seed None) or a jittered mesh
    (Jacobi path)."""
    mesh = build_square_mesh(n) if mesh_seed is None else jittered_mesh(n, mesh_seed, 0.3 / n)
    cfg = config()
    coeffs = cfg.phantom.coefficients(mesh)
    sources = [spec.build(mesh) for spec in cfg.sources]
    op = ForwardOperator(mesh, coeffs.diffusion)
    U = [solve_semilinear(op, coeffs.single_photon, coeffs.two_photon, g)[0]
         for g in sources]
    return op, coeffs, sources, [compute_datum(coeffs, u) for u in U], U


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 24), mesh_seed=st.one_of(st.none(), st.integers(0, 3)),
       epsilon=st.floats(0.0, 20.0, exclude_min=True), seed=st.integers(0, 2**16))
def test_noise_matched_recovery_moves_far_less_than_the_noise(n, mesh_seed, epsilon,
                                                              seed):
    # experiments I and III: the fields at the noise-matched tolerance lie
    # within 1 % of the noise's own effect of a DEFAULT_TOL recovery of the
    # same datum at noise_level 0, in the max norm
    op, coeffs, sources, H, _ = clean_problem(n, mesh_seed)
    noisy = [add_noise(h, epsilon, noise_stream_seed(seed, j, epsilon))
             for j, h in enumerate(H)]
    matched = DatumSet(sources=list(sources), data=noisy, noise_level=epsilon)
    tight = DatumSet(sources=list(sources), data=list(noisy))
    clean = DatumSet(sources=list(sources), data=list(H), noise_level=0.0)
    Gamma = coeffs.gruneisen
    for sigma_known in (coeffs.single_photon, None):
        fields = [recover_pair(op, Gamma, data, sigma_known=sigma_known)
                  for data in (matched, tight, clean)]
        for k in (0, 1):
            moved = np.abs(fields[0][k] - fields[1][k]).max()
            noise_effect = np.abs(fields[1][k] - fields[2][k]).max()
            assert moved <= 0.01 * noise_effect, (k, moved, noise_effect)


# The density solves from a start (experiments.reconstruct starts them from
# the bundle's clean forward fields).

def density_rhs(op, Gamma, g, H):
    """The right-hand side b of the interior system K_ii u*_interior = b."""
    return (op.lumped * (-H / Gamma) - op.K @ op.expand(0.0, g.values))[op.interior]


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 24), mesh_seed=st.one_of(st.none(), st.integers(0, 3)),
       epsilon=st.sampled_from([0.0, 1.0, 2.0, 5.0]), seed=st.integers(0, 2**16),
       start=st.sampled_from(["none", "zeros", "clean", "random"]))
def test_densities_from_any_start_meet_the_noise_matched_residual(n, mesh_seed, epsilon,
                                                                  seed, start):
    # the start changes where CG begins, not where it stops: every density
    # meets max(DEFAULT_TOL, NOISE_SAFETY epsilon / 100) against its full
    # right-hand side and equals g on the boundary, even from a start whose
    # boundary values are wrong
    op, coeffs, sources, H, U = clean_problem(n, mesh_seed)
    noisy = [add_noise(h, epsilon, noise_stream_seed(seed, j, epsilon))
             for j, h in enumerate(H)]
    data = DatumSet(sources=list(sources), data=noisy, noise_level=epsilon)
    rng = np.random.default_rng(seed)
    N = op.mesh.node_count
    u0 = {"none": None, "zeros": [np.zeros(N)] * len(U), "clean": U,
          "random": [rng.uniform(-1.0, 2.0, N) for _ in U]}[start]
    stars = recover_all_fields(op, coeffs.gruneisen, data, u0=u0)
    tol = max(DEFAULT_TOL, NOISE_SAFETY * noise_std(epsilon))
    for g, h, u in zip(sources, noisy, stars):
        rhs = density_rhs(op, coeffs.gruneisen, g, h)
        assert np.array_equal(u[op.boundary], g.values)
        assert np.linalg.norm(rhs - op.K_ii @ u[op.interior]) <= tol * np.linalg.norm(rhs)


def test_densities_without_a_start_are_the_cold_solve():
    # without u0, bitwise CG from zero, at DEFAULT_TOL and at a noise-matched
    # tolerance
    b = bundle(mesh_n=16)
    op = b.operator
    for epsilon in (0.0, 2.0):
        ds = b.datum_set(epsilon, 5)
        tol = max(DEFAULT_TOL, NOISE_SAFETY * noise_std(epsilon))
        stars = recover_all_fields(op, b.coeffs.gruneisen, ds)
        for g, H, u in zip(ds.sources, ds.data, stars):
            rhs = density_rhs(op, b.coeffs.gruneisen, g, H)
            cold = solve_linear(op.K_ii, rhs, tol, shift=0.0,
                                preconditioner=op.preconditioner(0.0))
            assert u.tobytes() == op.expand(cold, g.values).tobytes()


def test_density_starts_of_another_count_or_mesh_are_rejected():
    b = bundle(mesh_n=16)
    ds = b.datum_set(0.0, 5)
    other = build_square_mesh(8)
    for u0, match in ((b.u_clean[:-1], "density starts"),
                      (b.u_clean + b.u_clean[:1], "density starts"),
                      ([np.zeros(other.node_count)] * ds.size, "mesh has")):
        with pytest.raises(ValidationError, match=match):
            recover_all_fields(b.operator, b.coeffs.gruneisen, ds, u0=u0)


@pytest.mark.parametrize("n, most", [(32, 2), (128, 1)])
def test_jobs_start_their_densities_from_the_clean_forward_fields(n, most, monkeypatch):
    # through reconstruct: noiseless densities need no iteration, and noisy
    # ones at most `most` (one at n = 128; at n = 32 the second source's
    # first step ends 1.3-1.4 times above its bound, so it takes two), where
    # cold solves take 3-4
    b = prepare_data(config(mesh_n=n))
    applications = count_grid_preconditioner_applications(monkeypatch)
    for epsilon in (0.0, 1.0, 2.0, 5.0):
        ds = b.datum_set(epsilon, 7)
        applications.clear()
        recover_all_fields(b.operator, b.coeffs.gruneisen, ds)
        cold = list(applications)
        applications.clear()
        reconstruct("III", b, ds)
        if epsilon == 0.0:
            assert applications == [0] * ds.size
        else:
            assert max(applications) <= most < min(cold), (applications, cold)


def test_crime_guard_jobs_solve_their_densities_cold():
    # u_clean is on the data mesh, so a crime-guard job starts from zero:
    # bitwise the direct fit of the cold densities
    b = prepare_data(config(mesh_n=16, data_mesh_n=24))
    for epsilon in (0.0, 2.0):
        ds = b.datum_set(epsilon, 5)
        fields = reconstruct("III", b, ds)
        sigma, mu, _ = recover_pair(b.operator, b.coeffs.gruneisen, ds)
        assert fields["sigma"].tobytes() == sigma.tobytes()
        assert fields["mu"].tobytes() == mu.tobytes()
