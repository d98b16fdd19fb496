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

Every linear solve (Newton steps, linearized solves, solve_reaction) goes through
ForwardOperator.solve: preconditioned CG on the interior block, with the
sine-transform preconditioner on the build_square_mesh grid and Jacobi on
other meshes. Newton is inexact (Dembo, Eisenstat & Steihaug 1982): step k
solves its linear system only to the relative residual
eta_k = min(FORCING_MAX, max(||F_k||, FORCING_SAFETY * residual_tol / ||F_k||)).
The first term keeps the local convergence quadratic, the second stops a
step from solving past the nonlinear target. Since max(r, c / r) >= sqrt(c),
eta_k >= min(FORCING_MAX, sqrt(FORCING_SAFETY * residual_tol)), 3.2e-6 at
the default RESIDUAL_TOL, so CG takes eta_k as it is, with no floor.
A cold solve starts from g extended by zero, e. There |u| vanishes inside,
so the first step solves the linear problem with mu = 0 (K_ii + diag(m
sigma), right-hand side -(K e) on the interior), to FORCING_MAX like any
step far from the answer, and the line search guards it as it guards every
other step. A warm start is taken as given on the interior, and the
linearized (adjoint) solves run to their given tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import SolverError, ValidationError
from .fem import CoefficientSet, as_field
from .mesh import Mesh


class BoundarySource:
    """Photon source strength g on the boundary nodes of a mesh.

    values holds one finite real strength per boundary node, in
    mesh.boundary_list order (read-only). Several reconstruction routines
    require g > 0; see require_strictly_positive.
    """

    def __init__(self, mesh: Mesh, values):
        values = np.array(values, dtype=float)
        if values.shape != mesh.boundary_list.shape:
            raise ValidationError(
                f"boundary source needs one value per boundary node "
                f"({len(mesh.boundary_list)}), got shape {values.shape}")
        nonfinite = values[~np.isfinite(values)]
        if nonfinite.size:
            raise ValidationError(f"boundary source value {nonfinite[0]:g} is not finite")
        values.setflags(write=False)
        self.mesh = mesh
        self.values = values

    @classmethod
    def constant(cls, mesh: Mesh, value: float) -> "BoundarySource":
        return cls(mesh, np.full(len(mesh.boundary_list), float(value)))

    @property
    def min_value(self) -> float:
        return float(self.values.min())

    def require_strictly_positive(self):
        if self.min_value <= 0.0:
            raise ValidationError(
                "boundary source must satisfy g > 0 everywhere "
                f"(min is {self.min_value:g})")
        return self


# Forcing term of the inexact Newton step (see the module docstring).
FORCING_MAX = 0.01
FORCING_SAFETY = 0.1
# Backtracking factor of the Newton line search, and the Newton step cap.
DAMPING = 0.5
NEWTON_MAX_ITERATIONS = 50
# Default bound on the interior residual norm of a converged Newton solve.
RESIDUAL_TOL = 1e-10


@dataclass
class SolverReport:
    """What solve_semilinear did.

    iterations counts the accepted Newton steps, at most
    NEWTON_MAX_ITERATIONS; on a cold start the first of them is the mu = 0
    solve from g extended by zero. residual_history holds the interior
    residual norm at the start and after each step (iterations + 1 entries,
    never rising).
    """

    iterations: int = 0
    residual_history: list = field(default_factory=list)
    converged: bool = False


class ForwardOperator:
    """The discrete Dirichlet operator of -div(gamma grad .) for one (mesh, gamma).

    Every solve with the diffusion gamma goes through one instance: Newton
    steps, linearized (sensitivity, adjoint) solves and solve_reaction. It
    rejects a gamma that is not finite and positive, and keeps the stiffness
    K and its interior block K_ii, both fem.BandedOperator; a solve hands
    K_ii and the reaction diagonal w to CG, whose matvec takes diag(K_ii) +
    w in place of K_ii's diagonal, so no matrix is built per solve. The
    boundary lift of solve_reaction is K applied to the boundary values. On
    the build_square_mesh grid (as mesh.square_grid_size decides it: the
    builder's node bits and triangles) the hypotenuse couplings of the right
    triangles vanish, so K_ii has just the two bands of the 5-point stencil,
    offsets 1 and n - 1. For constant gamma K_ii is then gamma times the
    5-point operator T (x) I + I (x) T, which the sine transform
    diagonalizes: grid solves are preconditioned with the exact inverse of
    mean(gamma) (T (x) I + I (x) T) + mean(w) I, spectrally equivalent to
    K_ii + diag(w) with h-independent bounds for gamma and w bounded above
    and below. The sine basis and eigenvalues are kept in float32 and the
    preconditioner is applied in float32, half the cost of its four dense
    products; CG, the matvec and the residuals stay float64, so a solve
    still reaches its tolerance and its result moves only at round-off.
    Other meshes use Jacobi.

    spectral_floor is a lower bound on lambda_min(K_ii): min(gamma) times
    the least eigenvalue of T (x) I + I (x) T on the grid, from the float64
    eigenvalues, and 0 on other meshes, by the same test of the grid. It
    holds because K = sum_T gammabar_T K_T with each K_T positive
    semidefinite and each gammabar_T >= min(gamma), so K - min(gamma) K(1)
    is positive semidefinite, and so is its interior block; that K(1)'s
    interior block is T (x) I + I (x) T rests on the builder's triangles,
    which the test checks. Then spectral_floor + min(w) <= lambda_min(K_ii +
    diag(w)), which bounds the error of a loose linearized solve by its
    residual (the error bounds of lsq.run_lsq's stop rule).

    The operator holds no per-solve state: one instance can serve many
    solves and threads at once.
    """

    def __init__(self, mesh: Mesh, gamma):
        gamma = fem.positive_field(mesh, gamma, "diffusion")
        self.mesh = mesh
        self.interior = mesh.interior_list
        self.boundary = mesh.boundary_list
        self.K = fem.assemble_stiffness(mesh, gamma)
        self.K_ii = self.K.restrict(self.interior)
        self.gamma_mean = float(gamma.mean())
        sine = fem.grid_sine_basis(mesh)
        self.sine = None if sine is None else tuple(a.astype(np.float32) for a in sine)
        self.spectral_floor = 0.0 if sine is None else float(gamma.min() * sine[1].min())
        self.lumped = fem.lumped_mass(mesh)

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

    def solve(self, reaction_diag_interior, rhs: np.ndarray, tol: float,
              x0: np.ndarray | None = None) -> np.ndarray:
        """Interior x with (K_ii + diag(w)) x = rhs to relative residual tol.

        CG starts from the interior values x0 when given (fem.solve_linear).
        """
        return fem.solve_linear(
            self.K_ii, rhs, tol, shift=reaction_diag_interior,
            preconditioner=self.preconditioner(reaction_diag_interior), x0=x0)

    def solver(self, reaction_diag_interior, rhs: np.ndarray) -> fem.ConjugateGradient:
        """The resumable CG of solve for (K_ii + diag(w)) x = rhs, from 0, not yet run."""
        return fem.ConjugateGradient(self.K_ii, rhs,
                                     self.preconditioner(reaction_diag_interior),
                                     reaction_diag_interior)

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

    def solve_reaction(self, g: BoundarySource, load_nodal,
                       tol: float = fem.DEFAULT_TOL,
                       u0: np.ndarray | None = None) -> np.ndarray:
        """Solve -div(gamma grad u) = load with u = g on the boundary.

        load_nodal is the nodal load, lumped like the reaction terms; tol is
        the relative residual of the linear solve, tested against its full
        right-hand side. The solve starts from g extended by zero, or from
        the nodal field u0 with its boundary values replaced by g, as in
        solve_semilinear: a u0 that already meets tol comes back with only
        its boundary replaced.
        """
        rhs = (self.lumped * as_field(self.mesh, load_nodal)
               - self.K @ self.expand(0.0, g.values))[self.interior]
        x0 = None if u0 is None else as_field(self.mesh, u0)[self.interior]
        return self.expand(self.solve(0.0, rhs, tol, x0=x0), g.values)


def solve_semilinear(op: ForwardOperator, sigma, mu, g: BoundarySource,
                     residual_tol: float = RESIDUAL_TOL, u0: np.ndarray | None = None):
    """Newton solve of the discrete semilinear problem with the diffusion of op.

    sigma and mu must be finite and positive, g a source on op's mesh, and
    residual_tol finite and positive. Returns (u, report) with u matching g
    exactly on boundary nodes and the interior residual norm at most
    residual_tol within NEWTON_MAX_ITERATIONS steps, or raises SolverError
    with the report. Accepted steps never increase the residual norm
    (backtracking with factor DAMPING). Each step's linear solve runs only
    to the relative residual eta_k of the module docstring. The initial
    iterate is g extended by zero, or the warm start u0, whose interior
    values must be finite, with its boundary values replaced by g; from g
    extended by zero the first step is the linear solve with mu = 0 (module
    docstring).
    """
    if not (math.isfinite(residual_tol) and residual_tol > 0.0):
        raise ValidationError(f"residual_tol must be finite and positive, "
                              f"got {residual_tol!r}")
    mesh = op.mesh
    sigma = fem.positive_field(mesh, sigma, "single_photon")
    mu = fem.positive_field(mesh, mu, "two_photon")
    if g.values.shape != mesh.boundary_list.shape:
        raise ValidationError("boundary source does not match the mesh")
    start = 0.0 if u0 is None else as_field(mesh, u0)[op.interior]
    if not np.isfinite(start).all():
        raise ValidationError("Newton start u0 has non-finite interior values")

    u = op.expand(start, g.values)
    F = op.residual_interior(u, sigma, mu)
    rnorm = float(np.linalg.norm(F))
    report = SolverReport(residual_history=[rnorm])

    while rnorm > residual_tol:
        if report.iterations == NEWTON_MAX_ITERATIONS:
            raise SolverError(
                f"Newton did not reach residual {residual_tol:g} in "
                f"{NEWTON_MAX_ITERATIONS} iterations (residual {rnorm:.3e})",
                residual=rnorm, report=report)
        eta = min(FORCING_MAX, max(rnorm, FORCING_SAFETY * residual_tol / rnorm))
        delta = op.expand(op.solve(op.jacobian_diag(u, sigma, mu), -F, eta), 0.0)

        alpha = 1.0
        for _ in range(40):
            trial = u + alpha * delta
            F_trial = op.residual_interior(trial, sigma, mu)
            rnorm_trial = float(np.linalg.norm(F_trial))
            if rnorm_trial < rnorm:
                break
            alpha *= DAMPING
        else:
            raise SolverError(
                f"Newton line search stalled at residual {rnorm:.3e}",
                residual=rnorm, report=report)
        u, F, rnorm = trial, F_trial, rnorm_trial
        report.iterations += 1
        report.residual_history.append(rnorm)

    report.converged = True
    return u, report


def compute_datum(coeffs: CoefficientSet, u: np.ndarray) -> np.ndarray:
    """Internal datum H = Gamma (sigma u + mu |u| u), evaluated nodewise."""
    u = np.asarray(u, dtype=float)
    for name in ("gruneisen", "single_photon", "two_photon"):
        if np.asarray(getattr(coeffs, name)).shape != u.shape:
            raise ValidationError(f"coefficient {name} does not match the field shape")
    return coeffs.gruneisen * (coeffs.single_photon * u
                               + coeffs.two_photon * np.abs(u) * u)


def check_noise_level(epsilon) -> float:
    """epsilon as a float if it is a noise level (percent), else ValidationError.

    A level is finite and nonnegative, with 1000 epsilon finite so that
    noise_stream_seed can seed its stream.
    """
    epsilon = float(epsilon)
    if not (epsilon >= 0.0 and math.isfinite(1000.0 * epsilon)):
        raise ValidationError(f"noise level must be finite and nonnegative, with "
                              f"1000 * level finite, got {epsilon!r}")
    return epsilon


def noise_stream_seed(base_seed: int, source_index: int, epsilon: float) -> list:
    """Deterministic per-(source, noise level) seed material."""
    return [int(base_seed), int(source_index), int(round(epsilon * 1000))]


def noise_std(epsilon: float) -> float:
    """Relative standard deviation epsilon/100 of add_noise's multiplier."""
    return epsilon / 100.0


def add_noise(H: np.ndarray, epsilon: float, seed) -> np.ndarray:
    """Multiply each nodal value by 1 + sqrt(3) * epsilon/100 * r, r ~ U[-1, 1].

    epsilon is the noise level in percent, so the multiplier has standard
    deviation noise_std(epsilon). Deterministic for a given seed.
    """
    epsilon = check_noise_level(epsilon)
    H = np.asarray(H, dtype=float)
    if epsilon == 0.0:
        return H.copy()
    rng = np.random.default_rng(seed)
    r = rng.uniform(-1.0, 1.0, size=H.shape)
    return H * (1.0 + np.sqrt(3.0) * epsilon * 1e-2 * r)
