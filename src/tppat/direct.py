"""Direct (non-iterative) reconstruction of the absorption coefficients.

With Gamma and gamma known, each datum H_j yields the photon density by one
linear solve of -div(gamma grad u*) = -H_j / Gamma with u* = g_j on the
boundary, with the forward operator of gamma (forward.ForwardOperator). The
ratio r_j = H_j / (Gamma u_j*) equals sigma + mu |u_j*| nodewise, and one
per-node least-squares fit of that identity over the J data gives both
reconstructions (fit_pair_pointwise):

* mu with sigma known: the J x 1 system with rows [|u_j*|], for J >= 1;
* the pair (sigma, mu): the J x 2 system with rows [1, |u_j*|], for J >= 2,
  which is well posed wherever the |u_j*| are not all (nearly) equal.

The noise of forward.add_noise is multiplicative, so the noise on r_j is
proportional to r_j, and the fit weighs row j by 1 / r_j^2, the noise's own
metric (generalized least squares); lsq weighs its residuals the same way.
So every datum must be finite and positive, which a DatumSet checks when
it is made.

Nodes where some recovered density is not positive, or (pair only) where
the |u_j*| spread degenerates (possible under noise), are flagged in the
condition report and filled from the nearest well-conditioned node.

Each density is solved only as accurately as its datum is known, in the
spirit of the inexact Newton forcing terms of forward.py: with noise level
epsilon (percent, DatumSet.noise_level) the solve stops at the relative
residual DatumSet.noise_tol = max(fem.DEFAULT_TOL, NOISE_SAFETY * epsilon /
100), a thousand times below the relative perturbation that add_noise puts
on the right-hand side; lsq's adjoint solves share it. Data with
noise_level 0 are solved to fem.DEFAULT_TOL, so noiseless recovery stays
exact to solver precision. The stop test is against the full right-hand
side, whatever the start: experiments.reconstruct starts each solve from
the clean forward field of its source, which already meets it for noiseless
data (no iteration) and leaves about one iteration for noisy data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import ValidationError
from .fem import as_field, positive_field, write_columns
from .forward import ForwardOperator, check_noise_level, noise_std
from .mesh import Mesh

SPREAD_THRESHOLD = 1e-6
# ratio of the direct solves' relative residual to the data's noise level
NOISE_SAFETY = 1e-3


@dataclass(frozen=True, eq=False)
class DatumSet:
    """Per-illumination internal data H_j paired with boundary sources g_j.

    A value, checked once, when made: the J >= 1 sources are strictly
    positive on the first one's mesh, and each datum is finite and positive
    at every node, as both fits weigh it by 1 / H_j^2 (module docstring).
    Frozen, with sources and data tuples; data holds read-only float
    copies. noise_level is the data's noise level epsilon (percent, 0 when
    noiseless). meta holds free-form records that the library never reads.
    """

    sources: tuple
    data: tuple
    noise_level: float = 0.0
    meta: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.sources) != len(self.data):
            raise ValidationError("sources and data lists must have equal length")
        if len(self.sources) < 1:
            raise ValidationError("a datum set needs at least one source")
        object.__setattr__(self, "noise_level", check_noise_level(self.noise_level))
        object.__setattr__(self, "sources", tuple(self.sources))
        mesh = self.sources[0].mesh
        for g in self.sources:
            if g.values.shape != mesh.boundary_list.shape:
                raise ValidationError("a source does not match the mesh boundary")
            g.require_strictly_positive()
        object.__setattr__(self, "data", tuple(as_field(mesh, H).copy() for H in self.data))
        for j, H in enumerate(self.data):
            if not (H.min() > 0.0 and H.max() < np.inf):    # a NaN fails the first
                raise ValidationError(f"datum of source {j} has a nonpositive or "
                                      f"non-finite node value; the fits weigh it "
                                      f"by 1 / H^2")
            H.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.sources)

    @property
    def noise_tol(self) -> float:
        """Relative residual of the direct density and lsq adjoint solves
        (module docstring): max(fem.DEFAULT_TOL, NOISE_SAFETY * noise_level / 100)."""
        return max(fem.DEFAULT_TOL, NOISE_SAFETY * noise_std(self.noise_level))


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Per-node conditioning of the pointwise least-squares fit; frozen.

    condition: 2-norm condition number of the whitened J x 2 design matrix,
    rows [1, |u_j*|] / r_j (of the J x 1 one with sigma known: 1 wherever
    some |u_j*| / r_j is not 0).
    flagged: nodes where some recovered density was not positive, or (pair
    only) whose |u_j*| spread fell below the threshold; their values were
    copied from filled_from.
    """

    condition: np.ndarray
    flagged: np.ndarray
    filled_from: np.ndarray

    def save(self, path):
        """CSV ``node,condition,flag``, one row per node.

        The condition number is written to six significant digits (``%.6g``,
        ``inf`` where the fit is singular): nothing reads it back, and six
        digits state it fully at about half the cost of ``%.17g``.
        """
        write_columns(path, "node,condition,flag", "%d,%.6g,%d\n",
                      range(len(self.condition)),
                      np.asarray(self.condition, dtype=float).tolist(),
                      np.asarray(self.flagged, dtype=np.int64).tolist())


def recover_all_fields(op: ForwardOperator, Gamma, data: DatumSet, u0=None) -> list:
    """Photon densities u_j*, one linear solve per datum with the operator op.

    Each solves -div(gamma grad u_j*) = -H_j / Gamma with u_j* = g_j on the
    boundary, gamma the diffusion of op; Gamma must be finite and positive,
    and data on op's mesh.
    Each solve runs to the relative residual data.noise_tol,
    max(fem.DEFAULT_TOL, NOISE_SAFETY * epsilon / 100) for the noise level
    epsilon of the data (DatumSet.noise_level): fem.DEFAULT_TOL at
    noise_level 0, 2e-5 at epsilon = 2. u0, when given, holds one nodal
    start per source on op's mesh (ForwardOperator.solve_reaction); the
    tolerance does not depend on it. From the clean forward fields of
    noiseless data the solves take no iteration, and from those of noisy
    data about one.
    """
    if data.data[0].shape != (op.mesh.node_count,):
        raise ValidationError("the datum set is on another mesh than the operator")
    starts = [None] * data.size if u0 is None else list(u0)
    if len(starts) != data.size:
        raise ValidationError(f"{len(starts)} density starts for {data.size} sources")
    Gamma = positive_field(op.mesh, Gamma, "gruneisen")
    return [op.solve_reaction(g, -H / Gamma, data.noise_tol, u)
            for g, H, u in zip(data.sources, data.data, starts)]


def fit_pair_pointwise(mesh: Mesh, u_stars: list, ratios: list, sigma_known=None):
    """Per-node weighted least-squares fit of sigma + mu |u_j*| = r_j over J rows.

    Row j has the weight 1 / r_j^2, since add_noise's multiplicative noise
    on H_j gives r_j a standard deviation proportional to r_j (generalized
    least squares, Aitken 1935). So each node solves, through its normal
    equations, the whitened J x 2 system with rows [1, |u_j*|] / r_j and
    right-hand side 1, or with sigma_known the J x 1 system with rows
    |u_j*| / r_j and right-hand side 1 - sigma / r_j for mu alone. Every
    ratio must be finite and nonzero, except at a flagged node, where such a
    row gets weight 0. Nodes with a nonpositive recovered density, or (pair
    only) a degenerate |u_j*| spread (max - min below SPREAD_THRESHOLD times
    max), are flagged and filled from the nearest well-conditioned node
    (Euclidean distance, lowest index on ties).
    Returns (sigma, mu, ConditionReport); with sigma_known, sigma is a copy
    of that field.
    """
    J = len(u_stars)
    if J < (1 if sigma_known is not None else 2) or J != len(ratios):
        raise ValidationError("pointwise fit needs matching field lists, J >= 2 "
                              "(J >= 1 with sigma known)")
    stars = np.array([as_field(mesh, u) for u in u_stars])     # (J, N)
    A = np.abs(stars)
    R = np.array([as_field(mesh, r) for r in ratios])
    flagged = stars.min(axis=0) <= 0.0
    if sigma_known is None:
        flagged |= A.max(axis=0) - A.min(axis=0) < SPREAD_THRESHOLD * A.max(axis=0)
    usable = np.isfinite(R) & (R != 0.0)
    if not usable.all():
        if not (usable | flagged).all():
            raise ValidationError("pointwise fit needs finite nonzero ratios at the "
                                  "nodes it does not flag")
        R[~usable] = np.inf             # weight 0, at flagged nodes only
    # the whitened rows [Q, P] = [1, |u_j*|] / r_j: with the weights W = Q^2
    # the right-hand sides W R and W A R are Q and P themselves
    Q = np.reciprocal(R, out=R)
    P = np.multiply(A, Q, out=A)
    s1 = np.einsum("jn,jn->n", P, Q)
    s2 = np.einsum("jn,jn->n", P, P)
    b1 = P.sum(axis=0)

    if sigma_known is not None:
        sigma = as_field(mesh, sigma_known).copy()
        mu = (b1 - sigma * s1) / np.where(flagged, 1.0, s2)
        condition = np.where(s2 > 0.0, 1.0, np.inf)
    else:
        s0 = np.einsum("jn,jn->n", Q, Q)
        b0 = Q.sum(axis=0)
        det = s0 * s2 - s1 * s1
        safe = np.where(flagged, 1.0, det)
        sigma = (s2 * b0 - s1 * b1) / safe
        mu = (s0 * b1 - s1 * b0) / safe

        # cond_2 of the whitened design = sqrt of eigenvalue ratio of the normal matrix
        tr = s0 + s2
        disc = np.sqrt(np.maximum((s0 - s2) ** 2 + 4.0 * s1 * s1, 0.0))
        lam_max = 0.5 * (tr + disc)
        lam_min = 0.5 * (tr - disc)
        with np.errstate(divide="ignore", invalid="ignore"):
            condition = np.sqrt(np.where(lam_min > 0.0, lam_max / lam_min, np.inf))

    filled_from = np.arange(mesh.node_count, dtype=np.int64)
    if flagged.any():
        good = np.nonzero(~flagged)[0]
        if good.size == 0:
            raise ValidationError(
                "pointwise least squares degenerate or nonpositive at every "
                "node; no node to fill from")
        for i in np.nonzero(flagged)[0]:
            d2 = ((mesh.nodes[good] - mesh.nodes[i]) ** 2).sum(axis=1)
            filled_from[i] = good[int(np.argmin(d2))]  # argmin: lowest index on ties
        mu = mu[filled_from]
        if sigma_known is None:
            sigma = sigma[filled_from]

    report = ConditionReport(condition=condition, flagged=flagged,
                             filled_from=filled_from)
    return sigma, mu, report


def recover_pair(op: ForwardOperator, Gamma, data: DatumSet, sigma_known=None,
                 stars=None):
    """(sigma, mu), or mu with sigma_known, by pointwise least squares.

    Returns (sigma, mu, ConditionReport). Requires J >= 2 sources for the
    pair. One linear solve per datum with op recovers u_j*
    (recover_all_fields), then each node
    solves its small weighted least-squares system over all J data (see
    fit_pair_pointwise). stars, when given, must be
    recover_all_fields(op, Gamma, data), which is then not solved again.
    """
    Gamma = as_field(op.mesh, Gamma)
    if stars is None:
        stars = recover_all_fields(op, Gamma, data)
    ratios = [H / (Gamma * u) for H, u in zip(data.data, stars)]
    return fit_pair_pointwise(op.mesh, stars, ratios, sigma_known=sigma_known)
