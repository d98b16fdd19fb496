"""Forward model: the semilinear diffusion boundary-value problem.

Solves  -div(gamma grad u) + sigma u + mu |u| u = 0  in (-1,1)^2 with
Dirichlet data u = g, produces the internal datum H = Gamma (sigma u +
mu |u| u), and applies the multiplicative uniform noise model.

Discretization: P1 stiffness with exact quadrature; reaction terms by group
FEM with row-sum lumped mass (interpolate the nonlinearity nodally, scale by
the lumped mass). With lumping the exact Jacobian of the discrete residual is
the symmetric operator K + diag(m * (sigma + 2 mu |u|)), i.e. precisely the
discretization of the linearized equation used by the sensitivity and adjoint
solves. Newton with backtracking damping is then globally robust and the
adjoint gradients downstream are exact for the discrete objective.

Every linear solve (Newton step, linearized and reaction solves) goes through
ForwardOperator.solve: preconditioned CG on the interior block, with the
sine-transform preconditioner on the build_square_mesh grid and Jacobi on
other meshes. Newton is inexact (Dembo, Eisenstat & Steihaug 1982): step k
solves its linear system only to the relative residual
eta_k = min(FORCING_MAX, max(||F_k||, FORCING_SAFETY * residual_tol / ||F_k||)),
never below linear_tol. The first term keeps the local convergence
quadratic, the second stops a step from solving past the nonlinear target.
The initial linear solve and the linearized (adjoint) solves run to their
given tolerance.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import SolverError, ValidationError
from .fem import CoefficientSet, as_field
from .mesh import Mesh


class BoundarySource:
    """Photon source strength g on the boundary nodes of a mesh.

    values holds one real strength per boundary node, in mesh.boundary_list
    order (read-only). Several reconstruction routines require g > 0; see
    require_strictly_positive.
    """

    def __init__(self, mesh: Mesh, values):
        values = np.array(values, dtype=float)
        if values.shape != mesh.boundary_list.shape:
            raise ValidationError(
                f"boundary source needs one value per boundary node "
                f"({len(mesh.boundary_list)}), got shape {values.shape}")
        values.setflags(write=False)
        self.mesh = mesh
        self.values = values

    @classmethod
    def constant(cls, mesh: Mesh, value: float) -> "BoundarySource":
        return cls(mesh, np.full(len(mesh.boundary_list), float(value)))

    @classmethod
    def from_function(cls, mesh: Mesh, fn) -> "BoundarySource":
        return cls(mesh, [float(fn(x, y)) for x, y in mesh.nodes[mesh.boundary_list]])

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    @property
    def max_value(self) -> float:
        return float(self.values.max())

    def require_strictly_positive(self, epsilon: float = 0.0):
        if self.min_value <= epsilon:
            raise ValidationError(
                f"boundary source must satisfy g > {epsilon:g} everywhere "
                f"(min is {self.min_value:g})")
        return self


# Forcing term of the inexact Newton step (see the module docstring).
FORCING_MAX = 0.01
FORCING_SAFETY = 0.1


@dataclass
class NewtonConfig:
    """Newton settings for solve_semilinear.

    residual_tol bounds the interior residual norm at convergence; damping is
    the backtracking factor. linear_tol is the floor of every Newton step's
    forcing term and the relative tolerance of the initial linear solve and
    of the adjoint solves of the least-squares gradient.
    """

    residual_tol: float = 1e-10
    max_iterations: int = 50
    damping: float = 0.5
    linear_tol: float = fem.DEFAULT_TOL

    def __post_init__(self):
        if self.residual_tol <= 0.0:
            raise ValidationError("residual_tol must be positive")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not 0.0 < self.damping < 1.0:
            raise ValidationError("damping factor must lie in (0, 1)")


@dataclass
class SolverReport:
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    converged: bool = False


class ForwardOperator:
    """The discrete Dirichlet operator of -div(gamma grad .) for one (mesh, gamma).

    Every solve with the diffusion gamma goes through one instance: Newton
    steps, linearized (sensitivity, adjoint) and reaction solves. It rejects
    a gamma that is not finite and positive, and keeps the stiffness K, its
    interior block K_ii and the interior-boundary coupling K_ib; a solve
    hands K_ii and the reaction diagonal w to CG separately, so no matrix is
    built per solve. On the build_square_mesh grid (recognized from the node
    coordinates in row-major order) the hypotenuse couplings of the right
    triangles vanish, and K_ii drops the stored zeros, which leaves its
    matvec bitwise unchanged. For constant gamma K_ii is then gamma times
    the 5-point operator T (x) I + I (x) T, which the sine transform
    diagonalizes: grid solves are preconditioned with the exact inverse of
    mean(gamma) (T (x) I + I (x) T) + mean(w) I, spectrally equivalent to
    K_ii + diag(w) with h-independent bounds for gamma and w bounded above
    and below. The sine basis and eigenvalues are kept in float32 and the
    preconditioner is applied in float32, half the cost of its four dense
    products; CG, the matvec and the residuals stay float64, so a solve
    still reaches its tolerance and its result moves only at round-off.
    Other meshes use Jacobi.

    The operator holds no per-solve state: one instance can serve many
    solves and threads at once.
    """

    def __init__(self, mesh: Mesh, gamma):
        gamma = fem.positive_field(mesh, gamma, "diffusion")
        self.mesh = mesh
        self.interior = mesh.interior_list
        self.boundary = mesh.boundary_list
        self.K = fem.assemble_stiffness(mesh, gamma)
        self.K_ii = self.K[self.interior][:, self.interior].tocsr()
        self.K_ii.eliminate_zeros()
        self.K_ib = self.K[self.interior][:, self.boundary].tocsr()
        self.gamma_mean = float(gamma.mean())
        sine = fem.grid_sine_basis(mesh)
        self.sine = None if sine is None else tuple(a.astype(np.float32) for a in sine)
        self.lumped = fem.lumped_mass(mesh)
        self._K1 = None
        self._K1_lock = threading.Lock()

    @property
    def K1(self):
        """Unit-diffusion stiffness of the mesh (the least-squares regularizer's).

        Assembled once, on first use, so direct reconstructions never pay for
        it; the lock keeps jobs that start at once on a thread pool from
        assembling it twice.
        """
        with self._K1_lock:
            if self._K1 is None:
                self._K1 = fem.assemble_stiffness(self.mesh,
                                                  np.ones(self.mesh.node_count))
        return self._K1

    def preconditioner(self, reaction_diag_interior):
        """Sine-transform preconditioner for K_ii + diag(w), or None (Jacobi).

        None off the grid, and where mean(w) makes the constant-coefficient
        operator indefinite. The returned map takes and returns float64 and
        computes in float32 (agreeing with the float64 transform to ~1e-7).
        """
        if self.sine is None:
            return None
        S, lam_sum = self.sine
        eig = self.gamma_mean * lam_sum + float(np.mean(reaction_diag_interior))
        if eig.min() <= 0.0:
            return None
        inv_eig = 1.0 / eig
        m = len(S)

        def apply(r):
            y = (S @ r.astype(np.float32).reshape(m, m)) @ S
            return (S @ (y * inv_eig) @ S).ravel().astype(np.float64)
        return apply

    def solve(self, reaction_diag_interior, rhs: np.ndarray, tol: float) -> np.ndarray:
        """Interior x with (K_ii + diag(w)) x = rhs to relative residual tol."""
        return fem.solve_linear(
            self.K_ii, rhs, tol, shift=reaction_diag_interior,
            preconditioner=self.preconditioner(reaction_diag_interior))

    def expand(self, x_interior: np.ndarray, boundary_values) -> np.ndarray:
        """Nodal field from interior values and boundary values (array or scalar)."""
        full = np.empty(self.mesh.node_count)
        full[self.interior] = x_interior
        full[self.boundary] = boundary_values
        return full

    def residual_interior(self, u, sigma, mu):
        nonlin = self.lumped * (sigma * u + mu * np.abs(u) * u)
        return (self.K @ u)[self.interior] + nonlin[self.interior]

    def jacobian_diag(self, u, sigma, mu):
        """Interior reaction diagonal m (sigma + 2 mu |u|) of the linearized operator."""
        return (self.lumped * (sigma + 2.0 * mu * np.abs(u)))[self.interior]

    def solve_linearized(self, u, sigma, mu, rhs_interior,
                         tol: float = fem.DEFAULT_TOL) -> np.ndarray:
        """Solve the linearized equation with homogeneous Dirichlet data.

        tol is the relative residual of the linear solve.
        """
        x = self.solve(self.jacobian_diag(u, sigma, mu), rhs_interior, tol)
        return self.expand(x, 0.0)

    def solve_reaction(self, weight, g: BoundarySource, load_nodal=None,
                       tol: float = fem.DEFAULT_TOL) -> np.ndarray:
        """Solve -div(gamma grad u) + weight * u = load with u = g on the boundary.

        tol is the relative residual of the linear solve.
        """
        w = (self.lumped * as_field(self.mesh, weight))[self.interior]
        rhs = -(self.K_ib @ g.values)
        if load_nodal is not None:
            rhs = rhs + (self.lumped * as_field(self.mesh, load_nodal))[self.interior]
        x = self.solve(w, rhs, tol)
        return self.expand(x, g.values)


def solve_semilinear(op: ForwardOperator, sigma, mu, g: BoundarySource,
                     cfg: NewtonConfig | None = None, u0: np.ndarray | None = None):
    """Newton solve of the discrete semilinear problem with the diffusion of op.

    sigma and mu must be finite and positive, and g a source on op's mesh.
    Returns (u, report) with u matching g exactly on boundary nodes and the
    interior residual norm at most cfg.residual_tol. Accepted steps never
    increase the residual norm (backtracking with factor cfg.damping). Each
    step's linear solve runs only to the relative residual eta_k of the
    module docstring, never below cfg.linear_tol. The initial iterate is the
    solution of the linear problem with mu = 0 (solved to cfg.linear_tol),
    unless a warm start u0 is supplied.
    """
    cfg = cfg or NewtonConfig()
    mesh = op.mesh
    sigma = fem.positive_field(mesh, sigma, "single_photon")
    mu = fem.positive_field(mesh, mu, "two_photon")
    if g.values.shape != mesh.boundary_list.shape:
        raise ValidationError("boundary source does not match the mesh")

    if u0 is None:
        u = op.solve_reaction(sigma, g, tol=cfg.linear_tol)
    else:
        u = as_field(mesh, u0)
        u[op.boundary] = g.values

    report = SolverReport()
    F = op.residual_interior(u, sigma, mu)
    rnorm = float(np.linalg.norm(F))
    report.residual_history.append(rnorm)

    for _ in range(cfg.max_iterations):
        if rnorm <= cfg.residual_tol:
            report.converged = True
            return u, report
        eta = min(FORCING_MAX, max(rnorm, FORCING_SAFETY * cfg.residual_tol / rnorm))
        delta = op.expand(op.solve(op.jacobian_diag(u, sigma, mu), -F,
                                   max(eta, cfg.linear_tol)), 0.0)

        alpha = 1.0
        accepted = False
        for _ in range(40):
            trial = u + alpha * delta
            F_trial = op.residual_interior(trial, sigma, mu)
            rnorm_trial = float(np.linalg.norm(F_trial))
            if rnorm_trial < rnorm:
                u, F, rnorm = trial, F_trial, rnorm_trial
                accepted = True
                break
            alpha *= cfg.damping
        if not accepted:
            raise SolverError(
                f"Newton line search stalled at residual {rnorm:.3e}",
                residual=rnorm, report=report)
        report.iterations += 1
        report.residual_history.append(rnorm)

    if rnorm <= cfg.residual_tol:
        report.converged = True
        return u, report
    raise SolverError(
        f"Newton did not reach residual {cfg.residual_tol:g} in "
        f"{cfg.max_iterations} iterations (residual {rnorm:.3e})",
        residual=rnorm, report=report)


def compute_datum(coeffs: CoefficientSet, u: np.ndarray) -> np.ndarray:
    """Internal datum H = Gamma (sigma u + mu |u| u), evaluated nodewise."""
    u = np.asarray(u, dtype=float)
    for name in ("gruneisen", "single_photon", "two_photon"):
        if np.asarray(getattr(coeffs, name)).shape != u.shape:
            raise ValidationError(f"coefficient {name} does not match the field shape")
    return coeffs.gruneisen * (coeffs.single_photon * u
                               + coeffs.two_photon * np.abs(u) * u)


def add_noise(H: np.ndarray, epsilon: float, seed) -> np.ndarray:
    """Multiply each nodal value by 1 + sqrt(3) * epsilon/100 * r, r ~ U[-1, 1].

    epsilon is the noise level in percent (the standard deviation of the
    multiplier is epsilon/100). Deterministic for a given seed.
    """
    if epsilon < 0.0:
        raise ValidationError(f"noise level must be nonnegative, got {epsilon}")
    H = np.asarray(H, dtype=float)
    if epsilon == 0.0:
        return H.copy()
    rng = np.random.default_rng(seed)
    r = rng.uniform(-1.0, 1.0, size=H.shape)
    return H * (1.0 + np.sqrt(3.0) * epsilon * 1e-2 * r)
