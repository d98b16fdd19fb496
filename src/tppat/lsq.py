"""Regularized output least squares for (sigma, mu) with adjoint gradients.

Minimizes

    Phi(sigma, mu) = 1/2 sum_j sum_i m_i W_ji z_ji^2
                     + kappa/2 (||grad sigma||^2 + ||grad mu||^2),
    z_j = Gamma sigma u_j + Gamma mu |u_j| u_j - H_j,   W_j = 1 / H_j^2,

over nodal coefficient fields, subject to box bounds. forward.add_noise is
multiplicative, so the noise on H_ji has a standard deviation proportional
to H_ji, and the weights W_j whiten it: Phi's misfit is the noise's own
metric (generalized least squares, Aitken 1935; Kaipio & Somersalo 2005,
ch. 3), the one direct.fit_pair_pointwise weighs its ratios by. With the
densities frozen at the direct fit's u_j*, z_j / H_j is that fit's weighted
residual, so a run started from the direct fit starts at, or next to, its
minimizer. The weights apply at every noise level and need every datum
finite and positive, which a DatumSet checks when it is made. The weight
kappa >= 0 is 0 by default (LsqConfig), which leaves the misfit alone; the
regularizer's stiffness is assembled only for kappa > 0. Each evaluation
solves the J semilinear forward problems; gradients come from one adjoint
solve per source, with the weighted residual W_j z_j as its source and the
same linearized operator as the forward Newton step, so they are exact for
the discrete objective (finite differences of Phi agree to solver
tolerance). The quadrature is the lumped nodal rule used throughout
the forward discretization.

The optimizer is a projected pointwise Gauss-Newton iteration with Armijo
backtracking. For fixed photon densities the datum fixes (sigma, mu) node
by node, so the Gauss-Newton matrix of the data term is block diagonal,
one 2x2 block per node (see gauss_newton_blocks), and the step solves these
blocks with the forward states of the current iterate (no extra solve).
Bounds are treated by the two-metric projection of Bertsekas (1982): a
component the box holds (_Box states the rule) does not move, the other
component at its node takes its own 1x1 step, and the trial point is
projected onto the box. Inner products use the lumped-mass metric, which
makes gradient norms mesh-resolution invariant.

The stop test compares the norm of the reduced gradient, the gradient with
the held components dropped, with grad_tol times a reference taken at the
midpoint of the bounds, not at the start (see run_lsq), so a start near the
minimizer, such as the direct fit of the same datum, stops early instead of
chasing a tolerance set by its own small gradient. The reduced gradient can
vanish where a bound is active at the minimizer.

On noisy data (DatumSet.noise_level > 0) the first states and every
gradient are solved only as accurately as the noise lets the fit use them,
as direct.recover_all_fields solves the direct densities. With the noise
level epsilon (percent), source j's first forward solve stops at the
interior residual

    max(RESIDUAL_TOL, ARMIJO_SHARE * NOISE_SAFETY * epsilon/100
                      * ||(m H_j / Gamma)[interior]||),

an ARMIJO_SHARE of the NOISE_SAFETY share of the perturbation the noise
puts on the datum term m H_j / Gamma of the forward residual. The first
objective is the base of the first Armijo test, so its forward error gets
the line search's ARMIJO_SHARE; the NOISE_SAFETY share alone does not keep
that error within ARMIJO_SHARE * 1e-4 |f|. Every adjoint solve stops at the
relative residual DatumSet.noise_tol, max(fem.DEFAULT_TOL, NOISE_SAFETY *
epsilon/100), the direct densities' tolerance. Line-search trials solve to
forward.RESIDUAL_TOL, since they decide the Armijo test and become the next
iterate's states; most noisy runs stop at the noise level before their
first trial. At noise_level 0 both rules give the default tolerances,
RESIDUAL_TOL and fem.DEFAULT_TOL, as they do for the direct solves.

Noisy data also stop the run once it has fitted the coefficients as well as
the noise lets it. The noise misfit

    Phi_noise = 1/2 (epsilon/100)^2 J sum_i m_i

is the expected misfit at the truth under forward.add_noise, whose
multiplier has standard deviation epsilon/100, in the weighted metric with
the noisy datum H as given (the clean one is unknown to a reconstruction),
where each whitened residual has that standard deviation. A run stops as
converged, with the message "noise level reached", when the Gauss-Newton
model predicts a decrease lambda^2/2 = -1/2 <g, d> still to come (the
Newton decrement, Boyd & Vandenberghe 2004, 9.5.1) of at most NOISE_SHARE
Phi_noise: the iterate is then within about sqrt(NOISE_SHARE) of the
noise's spread from the model's minimizer, so further iterations fit the
noise rather than the coefficients (the discrepancy principle, Morozov
1966). The test costs no solve. With the crime guard the datum's transfer
averages the noise, so Phi_noise overestimates the misfit the noise leaves
there.

Each iterate decides both stop tests by one rule, on a gradient g~ from
adjoints solved to some tolerance and on bounds E_g and E_n on the errors
those solves leave (the inexact-gradient idea of Carter 1991 and of
Heinkenschloss & Vicente 2001, applied to the stop decision alone):

* Gradient test. ||red g~||_M + E_g <= threshold stops the run, converged,
  with an empty message.
* Noise test, on noisy data where the gradient test fails for certain,
  ||red g~||_M - E_g > threshold. With d~ the step from g~ and q~ = -1/2
  <g~, d~>, q~ > 0 and sqrt(2 q~) + E_n <= sqrt(2 NOISE_SHARE Phi_noise)
  stops the run, converged, with "noise level reached".

Once the solves reach noise_tol the bounds are 0, and the tests are the
exact ones, ||red g||_M <= threshold and 0 < q <= NOISE_SHARE Phi_noise.
So an iterate takes at most two passes over the same resumable adjoint
solves (Evaluator.adjoints): the first runs each adjoint only as far as the
decision needs and bounds its error; unless that decides a stop, the second
continues the same CG solves (fem.ConjugateGradient) to noise_tol with zero
bounds, and the step is taken from its gradient, which is bitwise the one
solved to noise_tol at once.

The first pass's bounds hold for the exact gradient. Adjoint j solves
(K_ii + diag(w_j)) v_j = b_j, w_j = m (sigma + 2 mu |u_j|); with lambda_j =
ForwardOperator.spectral_floor + min(w_j) <= lambda_min of that operator, a
CG residual of norm rho_j leaves ||dv_j||_2 <= rho_j / lambda_j. With
maxima over the interior nodes, where dv_j lives:

* The gradient's error is sum_j dv_j (u_j, |u_j| u_j), so ||dg||_M <= E_g =
  sqrt(max m) sum_j (rho_j / lambda_j) ||u_j||_inf sqrt(1 +
  ||u_j||_inf^2). Dropping the held components is 1-Lipschitz in each
  component, even where the held set flips, so a gradient test met with
  E_g holds for the exact reduced gradient.
* At node i, dg_i = A_i^T c_i with A_i the whitened rows (a_j, b_j) of
  gauss_newton_blocks and c_ji = dv_ji H_ji / Gamma_i, and every branch of
  the step (the 2x2 block, the 1x1 block beside a held component, the
  near-rank-one pseudo-inverse) has d_i = -P_i g_i with A_i P_i A_i^T <= I.
  So sqrt(2 q), q = -1/2 <g, d>, moves by at most ||c||_M <= E_n = sqrt(max
  m) sqrt(sum_j (max|H_j / Gamma| rho_j / lambda_j)^2), whatever the
  conditioning of the blocks: a noise test met with E_n holds for the exact
  decrement under the held set of g~.

Each adjoint's first run stops at the relative residual max(noise_tol,
a_j / ||b_j||), a_j = STOP_SHARE times the looser of the residual norms
that keep source j's term of E_g within threshold and its term of E_n
within sqrt(2 NOISE_SHARE Phi_noise); on a noiseless start at the truth
b_j is that small, and the solve takes no iteration. An adjoint with b_j =
0 (every one on a mesh with no interior node) is exact with no iteration:
rho_j = 0, and its terms of the bounds are 0. The target only sets the
cost; the bounds decide the stop. A stop's grad_norm in the report is the
norm of the gradient it was decided on: the first pass's when that decided
it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import SolverError, ValidationError, require_count
from .fem import as_field, positive_field
from .forward import RESIDUAL_TOL, ForwardOperator, noise_std, solve_semilinear
from .direct import NOISE_SAFETY, DatumSet

# The first states' share of the noise-level accuracy on noisy data, the
# share of the first Armijo decrease their error may take (module docstring).
ARMIJO_SHARE = 0.1
# The share of the noise misfit Phi_noise below which the predicted decrease
# of a Gauss-Newton step stops a run on noisy data (module docstring).
NOISE_SHARE = 1e-4
# Each source's share of the error budget of the first-pass stop tests
# (module docstring).
STOP_SHARE = 0.1


@dataclass(frozen=True)
class LsqConfig:
    """Least-squares settings; the fields are the keys of a config's [lsq] section.

    Frozen, so the check in __post_init__ is the only one: build a
    changed one with dataclasses.replace, which checks it again.
    """

    kappa: float = 0.0
    grad_tol: float = 1e-6
    max_iterations: int = 300
    bound_floor: float = 0.02
    bound_ceiling: float = 0.5

    def __post_init__(self):
        for name in ("kappa", "grad_tol", "bound_floor", "bound_ceiling"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"lsq {name} must be a real number, got {value!r}")
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValidationError("lsq kappa must be finite and nonnegative")
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ValidationError("lsq grad_tol must be finite and positive")
        if not (0.0 < self.bound_floor < self.bound_ceiling < math.inf):
            raise ValidationError("lsq bounds must satisfy 0 < floor < ceiling < inf")
        require_count(self.max_iterations, "lsq max_iterations")


@dataclass
class LsqReport:
    converged: bool = False
    objective_history: list = field(default_factory=list)
    grad_norm_history: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    reference_grad_norm: float = 0.0   # grad_tol times this is the stop threshold
    noise_misfit: float = 0.0          # Phi_noise of the noise stop; 0 when it is off
    message: str = ""

    @property
    def iterations(self) -> int:
        """The number of accepted steps."""
        return len(self.step_lengths)

    def save(self, path):
        """Per-iteration history; the last row also carries the run's status.

        ``converged`` (0/1) and ``message`` (the stop reason, empty on
        convergence) are left empty on every earlier row.
        """
        lines = ["iteration,objective,grad_norm,step_length,converged,message"]
        last = len(self.objective_history) - 1
        for k, (obj, gn) in enumerate(zip(self.objective_history, self.grad_norm_history)):
            st = f"{self.step_lengths[k - 1]:.17g}" if k > 0 else ""
            status = f"{int(self.converged)},{self.message}" if k == last else ","
            lines.append(f"{k},{obj:.17g},{gn:.17g},{st},{status}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")


class Evaluator:
    """Objective/gradient engine for fixed (op, Gamma, data, kappa).

    The forward operator op fixes the mesh and the known diffusion gamma.
    It keeps no state between calls: forward_states takes each source's
    Newton start, and objective and gradient the forward states they use.
    Forward solves stop at forward.RESIDUAL_TOL, with each Newton step's
    linear solve only as tight as its forcing term (solve_semilinear); the
    adjoint solves run to fem.DEFAULT_TOL, which keeps the gradient exact
    for the discrete objective to that tolerance. forward_states and
    gradient take other tolerances per call (run_lsq's noise-level rule),
    and gradient can continue resumable adjoint solves (adjoints) that an
    earlier call at the same point ran more loosely (run_lsq's two passes).
    The misfit weights W_j = 1 / H_j^2 (weights, one row per source) and
    the regularizer's unit-diffusion stiffness K1 are set up here, K1 only
    when kappa != 0; with kappa = 0 it is None and Phi is the misfit alone.
    """

    def __init__(self, op: ForwardOperator, gruneisen, data: DatumSet, kappa: float):
        self.op = op
        self.mesh = op.mesh
        self.gruneisen = positive_field(op.mesh, gruneisen, "gruneisen")
        self.data = data
        # W_j = 1 / H_j^2, the multiplicative noise's metric (module docstring)
        self.weights = 1.0 / np.square(np.stack(data.data))
        self.kappa = float(kappa)
        self.K1 = (fem.assemble_stiffness(op.mesh, np.ones(op.mesh.node_count))
                   if self.kappa != 0.0 else None)
        self.lumped = op.lumped

    def forward_states(self, sigma, mu, u0=None, residual_tols=None):
        """Solve the J forward problems; returns (us, zs).

        u0 holds one Newton start per source (None: cold starts), and
        residual_tols, when given, one interior residual tolerance per source
        in place of forward.RESIDUAL_TOL.
        """
        us, zs = [], []
        for j, (g, H) in enumerate(zip(self.data.sources, self.data.data)):
            try:
                u, _ = solve_semilinear(
                    self.op, sigma, mu, g,
                    RESIDUAL_TOL if residual_tols is None else residual_tols[j],
                    u0=None if u0 is None else u0[j])
            except SolverError as exc:
                raise SolverError(
                    f"forward solve failed for source {j}: {exc}",
                    residual=exc.residual, report=exc.report) from exc
            z = self.gruneisen * (sigma * u + mu * np.abs(u) * u) - H
            us.append(u)
            zs.append(z)
        return us, zs

    def objective(self, sigma, mu, states) -> float:
        """Phi at the nodal fields (sigma, mu), from the forward states (us, zs) there."""
        value = sum(0.5 * float((self.lumped * w * z * z).sum())
                    for w, z in zip(self.weights, states[1]))
        if self.K1 is not None:
            value += self.kappa * (0.5 * (float(sigma @ (self.K1 @ sigma))
                                          + float(mu @ (self.K1 @ mu))))
        return value

    def adjoint_source(self, sigma, mu, u, z) -> np.ndarray:
        """Interior source -(m z Gamma (sigma + 2 mu |u|)) of an adjoint solve.

        z is the weighted residual W_j z_j of one source, as gradient passes it.
        """
        fz = sigma + 2.0 * mu * np.abs(u)
        return -(self.lumped * z * self.gruneisen * fz)[self.op.interior]

    def solve_adjoint(self, sigma, mu, u, z, tol=fem.DEFAULT_TOL) -> np.ndarray:
        """Adjoint state v: linearized operator, source adjoint_source(sigma, mu, u, z).

        tol is the relative residual of the solve.
        """
        return self.op.solve_linearized(u, sigma, mu, self.adjoint_source(sigma, mu, u, z),
                                        tol=tol)

    def adjoints(self, sigma, mu, states) -> list:
        """One resumable adjoint solve per source (ForwardOperator.solver), none run yet.

        Solve j is the linearized operator at u_j with adjoint_source(sigma,
        mu, u_j, W_j z_j) as its right-hand side, from the forward states
        (us, zs); gradient runs them, each to the tolerance it is given.
        """
        return [self.op.solver(self.op.jacobian_diag(u, sigma, mu),
                               self.adjoint_source(sigma, mu, u, w * z))
                for u, z, w in zip(*states, self.weights)]

    def gradient(self, sigma, mu, states, adjoint_tol=fem.DEFAULT_TOL, adjoints=None):
        """(g_sigma, g_mu) from the forward states (us, zs) at the nodal fields (sigma, mu).

        g_sigma and g_mu are the Riesz representers of the derivative of Phi,
        g_sigma = sum_j (W_j z_j Gamma u_j + v_j u_j) + kappa * M^-1 K1 sigma
        and the mu analog with |u_j| u_j in place of u_j. The adjoint
        states v_j come from the resumable solves adjoints of
        Evaluator.adjoints at the same point (built here when None), each
        run on to the relative residual adjoint_tol, one tolerance for all
        sources or one per source. A gradient taken first loosely and then
        to adjoint_tol from the same solves is bitwise the one taken to
        adjoint_tol at once.
        """
        if adjoints is None:
            adjoints = self.adjoints(sigma, mu, states)
        tols = np.broadcast_to(adjoint_tol, (self.data.size,))
        g_sigma = np.zeros(self.mesh.node_count)
        g_mu = np.zeros(self.mesh.node_count)
        for u, z, w, solve, tol in zip(*states, self.weights, adjoints, tols):
            wz = w * z
            v = self.op.expand(solve.run(float(tol)), 0.0)
            g_sigma += wz * self.gruneisen * u + v * u
            g_mu += (wz * self.gruneisen + v) * np.abs(u) * u
        if self.K1 is not None:
            g_sigma += self.kappa * (self.K1 @ sigma) / self.lumped
            g_mu += self.kappa * (self.K1 @ mu) / self.lumped
        return g_sigma, g_mu


def gauss_newton_blocks(gruneisen, us, reg):
    """The pointwise Gauss-Newton matrices B_i = [[aa, ab], [ab, bb]] from the
    forward states us, as (aa, bb, ab) with one value per node each.

    gruneisen is Gamma, or one row per source of the whitened gains
    sqrt(W_j) Gamma, as run_lsq passes them. At node i, a_j = Gamma_i u_j,i
    and b_j = Gamma_i |u_j,i| u_j,i are the derivatives of the (whitened)
    residual with respect to sigma_i and mu_i with u frozen, and B_i =
    sum_j [a_j, b_j]^T [a_j, b_j] + reg_i I, with reg = kappa * diag(K1) / m.
    They depend on the states alone, so every step from one iterate shares
    them.
    """
    a = np.asarray(gruneisen) * np.asarray(us)
    b = a * np.abs(us)
    return (a * a).sum(axis=0) + reg, (b * b).sum(axis=0) + reg, (a * b).sum(axis=0)


def gauss_newton_step(blocks, g, held):
    """Projected pointwise Gauss-Newton step (d_sigma, d_mu) with the matrices
    blocks of gauss_newton_blocks.

    g = (g_sigma, g_mu) is the lumped-metric gradient, so the step -B_i^-1
    g_i is the Gauss-Newton step of the data term at node i. Where B_i is
    nearly rank one (det B_i <= 1e-12 (tr B_i)^2: one source with kappa = 0,
    equal |u_j| at the node, or Gamma_i = 0) the step is the pseudo-inverse
    one, -B_i g_i / (tr B_i)^2, exact for a rank-one B_i.

    held = (held_sigma, held_mu) marks the components the box holds
    (_Box.hold). A held component does not move, and the other one at its
    node steps by -g_f / B_ff, its own 1x1 block. A component whose block is
    zero does not move either.
    """
    (aa, bb, ab), (gs, gm), (held_s, held_m) = blocks, g, held
    det = aa * bb - ab * ab
    tr2 = (aa + bb) ** 2
    regular = det > 1e-12 * tr2
    # the step is -num / den: B_i^-1 g_i, B_i g_i / (tr B_i)^2, or g_f / B_ff
    # where the other component is held
    den = np.where(regular, det, tr2)
    num_s = np.where(held_m, gs, np.where(regular, bb * gs - ab * gm, aa * gs + ab * gm))
    num_m = np.where(held_s, gm, np.where(regular, aa * gm - ab * gs, ab * gs + bb * gm))
    den_s = np.where(held_m, aa, den)
    den_m = np.where(held_s, bb, den)
    d_s = np.divide(num_s, den_s, out=np.zeros_like(num_s), where=~held_s & (den_s > 0.0))
    d_m = np.divide(num_m, den_m, out=np.zeros_like(num_m), where=~held_m & (den_m > 0.0))
    return -d_s, -d_m


class _Box:
    """The box of run_lsq's stacked iterate x = (sigma, mu), with its metric.

    Built from the lumped mass m, the start x, the bounds of cfg and
    mu_only. A free component has the bounds lo = bound_floor and hi =
    bound_ceiling, the metric weight m, and the midpoint of the bounds as
    its value in the reference point mid. A pinned component (sigma, with
    mu_only) has lo = hi = its start, weight 0 and its start in mid: it is
    always held, no norm or inner product sees it, and project keeps it
    where it is, even outside [bound_floor, bound_ceiling]. A free component
    is held where it sits on a bound and its gradient points out of the box
    (the two-metric projection of Bertsekas 1982), and free everywhere else,
    a hair inside a bound included.
    """

    def __init__(self, lumped, x, cfg: LsqConfig, mu_only: bool):
        self.free = np.repeat([not mu_only, True], len(lumped))
        self.lo = np.where(self.free, cfg.bound_floor, x)
        self.hi = np.where(self.free, cfg.bound_ceiling, x)
        self.mid = np.where(self.free, 0.5 * (cfg.bound_floor + cfg.bound_ceiling), x)
        self.w = np.concatenate([lumped, lumped]) * self.free

    def project(self, x):
        return np.clip(x, self.lo, self.hi)

    def dot(self, a, b) -> float:
        """The lumped-mass inner product of the free components."""
        return float((self.w * a * b).sum())

    def hold(self, x, g):
        """The held components at x under the gradient g, and the norm of the
        reduced gradient, g with the held components set to 0."""
        held = ~self.free | ((x <= self.lo) & (g > 0.0)) | ((x >= self.hi) & (g < 0.0))
        reduced = np.where(held, 0.0, g)
        return held, np.sqrt(self.dot(reduced, reduced))


def run_lsq(op: ForwardOperator, gruneisen, data: DatumSet, init, cfg: LsqConfig, *,
            mu_only: bool = False, u0=None):
    """Projected pointwise Gauss-Newton minimization of Phi.

    op is the forward operator of the known diffusion gamma and gruneisen the
    known Gamma. The iterate is sigma and mu stacked in one _Box: with
    mu_only (II) sigma is pinned at sigma0 and only mu is fitted, otherwise
    (IV) both are. init = (sigma0, mu0) is any start; it is projected onto
    the box, as every line-search trial is. u0, when given, holds one nodal
    field per source, the Newton start of the first forward solves (None:
    cold); reconstruct passes the direct fit's densities u_j*. Every later
    solve starts from the states of the previous evaluation, a rejected
    line-search trial included.

    Each iteration takes the step of gauss_newton_step from the forward
    states of the current iterate (no extra solve) and backtracks along its
    projection onto the box until the Armijo test holds; the gradient at an
    accepted point reuses the forward states of its trial. The run stops by
    the module docstring's stop rule, at the iteration cap, or when the line
    search cannot make progress.

    Returns (sigma, mu, LsqReport). In the report:
    * converged and message: True with "" (the gradient test) or "noise
      level reached" (the noise test), possibly after 0 iterations; False
      with "iteration cap reached", or with "line search failed; returning
      best iterate", the best iterate being returned;
    * objective_history, strictly decreasing over accepted steps;
    * grad_norm_history, the reduced gradient norms, the start's first, each
      from the gradient its point's tests were decided on;
    * reference_grad_norm, grad_tol times which is the gradient test's
      threshold: the norm of the misfit part of the gradient, sum_j W_j z_j
      Gamma u_j and sum_j W_j z_j Gamma |u_j| u_j, at the box's mid, with
      u_j frozen at u0 when it is given and at the start's forward states
      otherwise. It costs no solve, and with u0 it does not depend on the
      start;
    * noise_misfit, Phi_noise, 0.0 on data with noise_level 0, which the
      noise test leaves alone.
    """
    ev = Evaluator(op, gruneisen, data, cfg.kappa)
    n = op.mesh.node_count
    x = np.concatenate([as_field(op.mesh, init[0]), as_field(op.mesh, init[1])])
    box = _Box(ev.lumped, x, cfg, mu_only)
    x = box.project(x)
    reg = 0.0 if ev.K1 is None else ev.kappa * ev.K1.diagonal() / ev.lumped
    gains = np.sqrt(ev.weights) * ev.gruneisen     # the whitened residuals' Gamma

    report = LsqReport()
    if u0 is not None and len(u0) != data.size:
        raise ValidationError(f"u0 needs one field per source ({data.size}), "
                              f"got {len(u0)}")

    # The noise-level tolerances of the module docstring; at noise level 0
    # they are the defaults.
    rel = NOISE_SAFETY * noise_std(data.noise_level)
    first_tols = [max(RESIDUAL_TOL, ARMIJO_SHARE * rel * float(
        np.linalg.norm((ev.lumped * H / ev.gruneisen)[op.interior]))) for H in data.data]

    states = ev.forward_states(x[:n], x[n:], u0=u0, residual_tols=first_tols)
    f = ev.objective(x[:n], x[n:], states)
    g_ref = np.zeros_like(x)
    for u, H, wv in zip(states[0] if u0 is None else u0, ev.data.data, ev.weights):
        a = ev.gruneisen * u
        b = a * np.abs(u)
        wz = wv * (box.mid[:n] * a + box.mid[n:] * b - H)
        g_ref += np.concatenate([wz * a, wz * b])
    report.reference_grad_norm = np.sqrt(box.dot(g_ref, g_ref))
    threshold = cfg.grad_tol * report.reference_grad_norm
    report.noise_misfit = (0.5 * noise_std(data.noise_level) ** 2 * data.size
                           * float(ev.lumped.sum()))
    noise_floor = NOISE_SHARE * report.noise_misfit

    # The first pass's error bounds (module docstring): its gradient is
    # within E_g = sum_j e_j rho_j of the exact one and its sqrt(2 q) within
    # E_n = sqrt(sum_j (h_j rho_j)^2), with rho_j adjoint j's residual norm;
    # the continued pass has e_j = h_j = 0. The maxima are over the interior
    # nodes, and 0 on a mesh with none, where every b_j = 0.
    root_m = math.sqrt(float(ev.lumped[op.interior].max(initial=0.0)))
    h_max = [float((H / ev.gruneisen)[op.interior].max(initial=0.0)) for H in data.data]
    noise_room = math.sqrt(2.0 * noise_floor)
    continued = (data.noise_tol, [0.0] * data.size, [0.0] * data.size)

    def first_pass(u, solve, hj):
        """Adjoint solve's first-pass tolerance and its factors e_j and h_j,
        with u its source's forward state and hj its max|H_j / Gamma|."""
        if solve.bnorm == 0.0:          # exact with no iteration: rho_j = 0
            return 1.0, 0.0, 0.0
        # lambda_j <= lambda_min(K_ii + diag(w_j)), w_j the solve's shift
        lam = op.spectral_floor + float(solve.shift.min())
        top = float(np.abs(u[op.interior]).max())
        e = root_m * top * math.sqrt(1.0 + top * top) / lam
        h = root_m * hj / lam
        # the residual norm that keeps this source's error within its share
        # of the looser budget
        budget = STOP_SHARE * max(threshold / e, noise_room / h)
        return (max(data.noise_tol, budget / solve.bnorm) if solve.bnorm > budget
                else 1.0), e, h

    for it in range(cfg.max_iterations + 1):
        # the stop rule at x, from the forward states of its evaluation: first
        # on adjoints solved only as far as it needs, then, unless that stops
        # the run, on the same solves continued to noise_tol with zero bounds
        adjoints = ev.adjoints(x[:n], x[n:], states)
        first = zip(*map(first_pass, states[0], adjoints, h_max))
        blocks = stop = None
        for last, (tols, e, h) in enumerate((first, continued)):
            g = np.concatenate(ev.gradient(x[:n], x[n:], states, tols, adjoints))
            held, g_norm = box.hold(x, g)
            rho = [solve.residual_norm for solve in adjoints]
            e_g = sum(ej * r for ej, r in zip(e, rho))
            if g_norm + e_g <= threshold:
                stop = ""
                break
            noise_test = g_norm - e_g > threshold and noise_floor > 0.0
            # the step, for the noise test, or for the line search after the
            # continued pass (none follows at the cap); x's blocks are built once
            if noise_test or (last and it < cfg.max_iterations):
                if blocks is None:
                    blocks = gauss_newton_blocks(gains, states[0], reg)
                d = np.concatenate(gauss_newton_step(blocks, (g[:n], g[n:]),
                                                     (held[:n], held[n:])))
            if noise_test:
                q = -0.5 * box.dot(g, d)
                e_n = math.sqrt(sum((hj * r) ** 2 for hj, r in zip(h, rho)))
                if q > 0.0 and math.sqrt(2.0 * q) + e_n <= noise_room:
                    stop = "noise level reached"
                    break
        report.objective_history.append(f)
        report.grad_norm_history.append(g_norm)
        if stop is not None:
            report.converged = True
            report.message = stop
            break
        if it == cfg.max_iterations:
            report.message = "iteration cap reached"
            break

        alpha = 1.0
        for _ in range(35):
            x_trial = box.project(x + alpha * d)
            slope = box.dot(g, x_trial - x)
            if slope >= 0.0:
                alpha *= 0.5
                continue
            # each solve starts from the last evaluation's, rejected or not
            states = ev.forward_states(x_trial[:n], x_trial[n:], u0=states[0])
            f_trial = ev.objective(x_trial[:n], x_trial[n:], states)
            if f_trial <= f + 1e-4 * slope:
                break
            alpha *= 0.5
        else:
            report.message = "line search failed; returning best iterate"
            break

        x, f = x_trial, f_trial
        report.step_lengths.append(alpha)

    return x[:n].copy(), x[n:].copy(), report
