"""Direct (non-iterative) reconstruction of the absorption coefficients.

With Gamma and gamma known, each datum H_j yields the photon density by one
linear solve of -div(gamma grad u*) = -H_j / Gamma with u* = g_j on the
boundary, with the forward operator of gamma (forward.ForwardOperator). The
ratio H_j / (Gamma u_j*) equals sigma + mu |u_j*| nodewise, so:

* one coefficient with the other known follows from an explicit formula;
* the pair (sigma, mu) follows from a per-node least-squares fit of the J x 2
  system with rows [1, |u_j*|], which is well posed wherever the |u_j*| are
  not all (nearly) equal.

Nodes where the |u_j*| spread degenerates (possible under noise) are flagged
in the condition report and filled from the nearest well-conditioned node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .fem import DEFAULT_TOL, as_field, positive_field, write_columns
from .forward import BoundarySource, ForwardOperator
from .mesh import Mesh

SPREAD_THRESHOLD = 1e-6
POSITIVITY_FLOOR = 1e-10


@dataclass
class DatumSet:
    """Per-illumination internal data H_j paired with boundary sources g_j."""

    sources: list
    data: list
    meta: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.sources) != len(self.data):
            raise ValidationError("sources and data lists must have equal length")
        if len(self.sources) < 1:
            raise ValidationError("a datum set needs at least one source")
        if not self.meta:
            self.meta = [{} for _ in self.sources]
        if len(self.meta) != len(self.sources):
            raise ValidationError("metadata list length must match sources")

    @property
    def size(self) -> int:
        return len(self.sources)

    def validate(self, mesh: Mesh):
        for k, H in enumerate(self.data):
            self.data[k] = as_field(mesh, H)
        for g in self.sources:
            if g.values.shape != mesh.boundary_list.shape:
                raise ValidationError("a source does not match the mesh boundary")
        return self


@dataclass
class ConditionReport:
    """Per-node conditioning of the pointwise least-squares fit.

    condition: 2-norm condition number of the J x 2 design matrix.
    flagged: nodes whose |u_j*| spread fell below the threshold (or whose
    recovered density was not positive); their values were copied from
    filled_from.
    """

    condition: np.ndarray
    flagged: np.ndarray
    filled_from: np.ndarray

    def save(self, path):
        """CSV ``node,condition,flag``, one row per node."""
        write_columns(path, "node,condition,flag", "%d,%.17g,%d\n",
                      range(len(self.condition)),
                      np.asarray(self.condition, dtype=float).tolist(),
                      np.asarray(self.flagged, dtype=np.int64).tolist())


def recover_field(op: ForwardOperator, Gamma, H, g: BoundarySource,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
    """Photon density u* from one datum: -div(gamma grad u*) = -H/Gamma, u* = g.

    gamma is the diffusion of op; Gamma must be finite and positive.
    """
    Gamma = positive_field(op.mesh, Gamma, "gruneisen")
    H = as_field(op.mesh, H)
    return op.solve_reaction(np.zeros(op.mesh.node_count), g,
                             load_nodal=-H / Gamma, tol=tol)


def _check_positive(u_star: np.ndarray, floor: float, what: str):
    bad = np.nonzero(u_star < floor)[0]
    if bad.size:
        shown = ", ".join(str(int(i)) for i in bad[:10])
        more = "" if bad.size <= 10 else f" (+{bad.size - 10} more)"
        raise ValidationError(
            f"{what}: recovered density below positivity floor {floor:g} at "
            f"nodes {shown}{more}")


def recover_sigma(H, Gamma, u_star, mu_known,
                  positivity_floor: float = POSITIVITY_FLOOR) -> np.ndarray:
    """sigma = H / (Gamma u*) - mu |u*| with mu known."""
    H = np.asarray(H, dtype=float)
    u_star = np.asarray(u_star, dtype=float)
    _check_positive(u_star, positivity_floor, "recover_sigma")
    return H / (np.asarray(Gamma, dtype=float) * u_star) \
        - np.asarray(mu_known, dtype=float) * np.abs(u_star)


def recover_mu(H, Gamma, u_star, sigma_known,
               positivity_floor: float = POSITIVITY_FLOOR) -> np.ndarray:
    """mu = H / (Gamma u* |u*|) - sigma / |u*| with sigma known."""
    H = np.asarray(H, dtype=float)
    u_star = np.asarray(u_star, dtype=float)
    _check_positive(u_star, positivity_floor, "recover_mu")
    return H / (np.asarray(Gamma, dtype=float) * u_star * np.abs(u_star)) \
        - np.asarray(sigma_known, dtype=float) / np.abs(u_star)


def recover_all_fields(op: ForwardOperator, Gamma, data: DatumSet,
                       tol: float = DEFAULT_TOL) -> list:
    """One linear solve per datum (recover_field), all with the operator op."""
    data.validate(op.mesh)
    return [recover_field(op, Gamma, H, g, tol=tol)
            for g, H in zip(data.sources, data.data)]


def recover_mu_from_set(op: ForwardOperator, Gamma, data: DatumSet, sigma_known,
                        tol: float = DEFAULT_TOL) -> np.ndarray:
    """mu with sigma known, stacked over all data in least-squares sense.

    Minimizes sum_j (mu |u_j*| - (r_j - sigma))^2 per node, with
    r_j = H_j / (Gamma u_j*) and u_j* from recover_all_fields.
    """
    mesh = op.mesh
    Gamma = as_field(mesh, Gamma)
    sigma_known = as_field(mesh, sigma_known)
    stars = recover_all_fields(op, Gamma, data, tol=tol)
    num = np.zeros(mesh.node_count)
    den = np.zeros(mesh.node_count)
    for H, u_star in zip(data.data, stars):
        _check_positive(u_star, POSITIVITY_FLOOR, "recover_mu_from_set")
        a = np.abs(u_star)
        r = H / (Gamma * u_star)
        num += a * (r - sigma_known)
        den += a * a
    return num / den


def fit_pair_pointwise(mesh: Mesh, u_stars: list, ratios: list,
                       spread_threshold: float = SPREAD_THRESHOLD):
    """Per-node least-squares fit of sigma + mu |u_j*| = r_j over J rows.

    Solves the J x 2 system with rows [1, |u_j*|] through its normal
    equations at every node. Nodes with degenerate |u_j*| spread or with a
    nonpositive recovered density are flagged and filled from the nearest
    well-conditioned node (Euclidean distance, lowest index on ties).
    Returns (sigma, mu, ConditionReport).
    """
    if len(u_stars) < 2 or len(u_stars) != len(ratios):
        raise ValidationError("pointwise fit needs J >= 2 matching field lists")
    stars = np.stack([as_field(mesh, u) for u in u_stars])
    A = np.abs(stars)                                    # (J, N)
    R = np.stack([as_field(mesh, r) for r in ratios])
    J = len(u_stars)

    spread = A.max(axis=0) - A.min(axis=0)
    degenerate = spread < spread_threshold * A.max(axis=0)
    nonpositive = stars.min(axis=0) <= 0.0
    flagged = degenerate | nonpositive

    s1 = A.sum(axis=0)
    s2 = (A * A).sum(axis=0)
    b0 = R.sum(axis=0)
    b1 = (A * R).sum(axis=0)
    det = J * s2 - s1 * s1
    safe = np.where(flagged, 1.0, det)
    sigma = (s2 * b0 - s1 * b1) / safe
    mu = (J * b1 - s1 * b0) / safe

    # cond_2 of the design matrix = sqrt of eigenvalue ratio of the normal matrix
    tr = J + s2
    disc = np.sqrt(np.maximum((J - s2) ** 2 + 4.0 * s1 * s1, 0.0))
    lam_max = 0.5 * (tr + disc)
    lam_min = 0.5 * (tr - disc)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = np.sqrt(np.where(lam_min > 0.0, lam_max / lam_min, np.inf))

    filled_from = np.arange(mesh.node_count, dtype=np.int64)
    if flagged.any():
        good = np.nonzero(~flagged)[0]
        if good.size == 0:
            raise ValidationError(
                "pointwise least squares degenerate at every node; "
                "sources do not separate the data")
        for i in np.nonzero(flagged)[0]:
            d2 = ((mesh.nodes[good] - mesh.nodes[i]) ** 2).sum(axis=1)
            j = good[int(np.argmin(d2))]        # argmin takes the lowest index on ties
            sigma[i] = sigma[j]
            mu[i] = mu[j]
            filled_from[i] = j

    report = ConditionReport(condition=condition, flagged=flagged,
                             filled_from=filled_from)
    return sigma, mu, report


def recover_pair(op: ForwardOperator, Gamma, data: DatumSet,
                 spread_threshold: float = SPREAD_THRESHOLD,
                 tol: float = DEFAULT_TOL):
    """Simultaneous (sigma, mu) by pointwise least squares over all J data.

    Returns (sigma, mu, ConditionReport). Requires J >= 2 strictly positive
    sources. One linear solve per datum with op recovers u_j*
    (recover_all_fields), then each node solves its small least-squares
    system (see fit_pair_pointwise).
    """
    if data.size < 2:
        raise ValidationError("pair reconstruction needs at least two data sets")
    for g in data.sources:
        g.require_strictly_positive()
    Gamma = as_field(op.mesh, Gamma)
    stars = recover_all_fields(op, Gamma, data, tol=tol)
    ratios = [H / (Gamma * u) for H, u in zip(data.data, stars)]
    return fit_pair_pointwise(op.mesh, stars, ratios, spread_threshold)
