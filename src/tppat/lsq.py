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
one 2x2 block per node (see gauss_newton_step), and the step solves these
blocks with the forward states of the current iterate (no extra solve).
Bounds are treated by the two-metric projection of Bertsekas (1982): a
component at a bound whose gradient points out of the box is held, the
other component at its node takes its own 1x1 step, and the trial point is
projected onto the bounds. Inner products use the lumped-mass metric, which
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


@dataclass
class LsqConfig:
    """Least-squares settings; the fields are the keys of a config's [lsq] section."""

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
    iterations: int = 0
    converged: bool = False
    objective_history: list = field(default_factory=list)
    grad_norm_history: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    reference_grad_norm: float = 0.0   # grad_tol times this is the stop threshold
    noise_misfit: float = 0.0          # Phi_noise of the noise stop; 0 when it is off
    message: str = ""

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
    gradient take other tolerances per call (run_lsq's noise-level rule).
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

    def solve_adjoint(self, sigma, mu, u, z, tol=fem.DEFAULT_TOL) -> np.ndarray:
        """Adjoint state v: linearized operator, source -z Gamma (sigma + 2 mu |u|).

        z is the weighted residual W_j z_j of one source, as gradient passes
        it; tol is the relative residual of the solve.
        """
        fz = sigma + 2.0 * mu * np.abs(u)
        rhs = -(self.lumped * z * self.gruneisen * fz)[self.op.interior]
        return self.op.solve_linearized(u, sigma, mu, rhs, tol=tol)

    def gradient(self, sigma, mu, states, adjoint_tol=fem.DEFAULT_TOL):
        """(g_sigma, g_mu) from the forward states (us, zs) at the nodal fields (sigma, mu).

        g_sigma and g_mu are the Riesz representers of the derivative of Phi,
        g_sigma = sum_j (W_j z_j Gamma u_j + v_j u_j) + kappa * M^-1 K1 sigma
        and the mu analog with |u_j| u_j in place of u_j. The adjoint
        states v_j are solved to the relative residual adjoint_tol.
        """
        g_sigma = np.zeros(self.mesh.node_count)
        g_mu = np.zeros(self.mesh.node_count)
        for u, z, w in zip(*states, self.weights):
            wz = w * z
            v = self.solve_adjoint(sigma, mu, u, wz, adjoint_tol)
            g_sigma += wz * self.gruneisen * u + v * u
            g_mu += (wz * self.gruneisen + v) * np.abs(u) * u
        if self.K1 is not None:
            g_sigma += self.kappa * (self.K1 @ sigma) / self.lumped
            g_mu += self.kappa * (self.K1 @ mu) / self.lumped
        return g_sigma, g_mu


def gauss_newton_step(gruneisen, us, reg, g, held):
    """Projected pointwise Gauss-Newton step (d_sigma, d_mu) from the forward states us.

    gruneisen is Gamma, or one row per source of the whitened gains
    sqrt(W_j) Gamma, as run_lsq passes them. At node i, a_j = Gamma_i u_j,i
    and b_j = Gamma_i |u_j,i| u_j,i are the derivatives of the (whitened)
    residual with respect to sigma_i and mu_i with u frozen, and B_i =
    sum_j [a_j, b_j]^T [a_j, b_j] + reg_i I, with reg = kappa * diag(K1) / m,
    is the pointwise Gauss-Newton matrix. g = (g_sigma, g_mu) is the
    lumped-metric gradient, so the step -B_i^-1 g_i is the Gauss-Newton step
    of the data term at node i. Where B_i is nearly rank
    one (det B_i <= 1e-12 (tr B_i)^2: one source with kappa = 0, equal |u_j|
    at the node, or Gamma_i = 0) the step is the pseudo-inverse one,
    -B_i g_i / (tr B_i)^2, exact for a rank-one B_i.

    held = (held_sigma, held_mu) marks the components the bounds hold (see
    run_lsq; a pinned component is held). A held component does not move, and
    the other one at its node steps by -g_f / B_ff, its own 1x1 block. A
    component whose block is zero does not move either.
    """
    a = np.asarray(gruneisen) * np.asarray(us)
    b = a * np.abs(us)
    aa = (a * a).sum(axis=0) + reg
    bb = (b * b).sum(axis=0) + reg
    ab = (a * b).sum(axis=0)
    (gs, gm), (held_s, held_m) = g, held
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


def run_lsq(op: ForwardOperator, gruneisen, data: DatumSet, init, cfg: LsqConfig, *,
            mu_only: bool = False, u0=None):
    """Projected pointwise Gauss-Newton minimization of Phi.

    op is the forward operator of the known diffusion gamma and gruneisen the
    known Gamma; init = (sigma0, mu0), any start: its fitted fields are
    projected onto the bounds. The iterate is sigma and mu stacked, with II
    and IV on one iteration: with mu_only, sigma is pinned by its own bounds
    lo = hi = sigma0 (which may lie outside [bound_floor, bound_ceiling])
    and always held, so only mu is fitted; sigma's metric weight is then 0,
    so no norm or inner product sees it. Returns (sigma, mu, LsqReport).
    Inner products use the lumped-mass metric. Each iteration takes the step of
    gauss_newton_step from the forward states of the current iterate (no
    extra solve) and backtracks along its projection onto the bounds until
    the Armijo test holds. A component is held when it sits at a bound and
    its gradient points out of the box; the reduced gradient is the gradient
    with the held components set to 0.

    Terminates when the lumped-L2 norm of the reduced gradient is at most
    grad_tol times the reference norm (converged, possibly after 0
    iterations), on noisy data when the step d predicts a decrease
    -1/2 <g, d> of at most NOISE_SHARE times the noise misfit (converged,
    message "noise level reached"; the module docstring), at the iteration
    cap, or when the line search cannot make progress (best iterate
    returned, converged=False). The report keeps the noise misfit as
    noise_misfit, 0.0 on data with noise_level 0, which the noise test
    leaves alone. The reference is taken at a fixed point, not at the
    start: it is the norm of the misfit part of the gradient, sum_j W_j z_j
    Gamma u_j and sum_j W_j z_j Gamma |u_j| u_j, at the
    midpoint of the bounds (with sigma0 for a pinned sigma), with u_j frozen at
    u0 when it is given and at the start's forward states otherwise. So it
    costs no solve, and with u0 it does not depend on the start. The report
    keeps it as reference_grad_norm; grad_norm_history holds the reduced
    gradient norms, the start's first. The objective history is strictly
    decreasing over accepted steps. The gradient at an accepted point reuses
    the forward states of its line-search trial.

    u0, when given, holds one nodal field per source, the Newton start of
    the first forward solves (None: cold); reconstruct passes the direct
    fit's densities u_j*. Every later solve starts from the states of the
    previous evaluation, a rejected line-search trial included. With noisy
    data the first states and every gradient are solved only to the noise
    level, and line-search trials to forward.RESIDUAL_TOL (the module
    docstring's rule).
    """
    mesh = op.mesh
    ev = Evaluator(op, gruneisen, data, cfg.kappa)
    n = mesh.node_count
    # the iterate x is sigma and mu stacked; with mu_only, sigma is not free:
    # its bounds lo = hi = sigma0 pin it, and it is always held
    x = np.concatenate([as_field(mesh, init[0]), as_field(mesh, init[1])])
    free = np.repeat([not mu_only, True], n)
    lo = np.where(free, cfg.bound_floor, x)
    hi = np.where(free, cfg.bound_ceiling, x)
    # the start is projected onto the box, as every line-search trial is
    x = np.clip(x, lo, hi)
    # metric weights; 0 on a pinned component, so that no norm sees it
    w = np.concatenate([ev.lumped, ev.lumped]) * free
    reg = 0.0 if ev.K1 is None else ev.kappa * ev.K1.diagonal() / ev.lumped
    gains = np.sqrt(ev.weights) * ev.gruneisen     # the whitened residuals' Gamma

    def dot(a, b):
        return float((w * a * b).sum())

    def hold(xv, gv):
        """The held components at xv and the norm of the reduced gradient."""
        held = ~free | ((xv <= lo) & (gv > 0.0)) | ((xv >= hi) & (gv < 0.0))
        reduced = np.where(held, 0.0, gv)
        return held, np.sqrt(dot(reduced, reduced))

    report = LsqReport()
    if u0 is not None and len(u0) != data.size:
        raise ValidationError(f"u0 needs one field per source ({data.size}), "
                              f"got {len(u0)}")

    # The noise-level tolerances of the module docstring; at noise level 0
    # they are the defaults.
    rel = NOISE_SAFETY * noise_std(data.noise_level)
    first_tols = [max(RESIDUAL_TOL, ARMIJO_SHARE * rel * float(
        np.linalg.norm((ev.lumped * H / ev.gruneisen)[op.interior]))) for H in data.data]

    def evaluate(xv, start, tols=None):
        """Objective value and forward states at xv, Newton started from start."""
        states = ev.forward_states(xv[:n], xv[n:], u0=start, residual_tols=tols)
        return ev.objective(xv[:n], xv[n:], states), states

    f, states = evaluate(x, u0, first_tols)
    ref = np.where(free, 0.5 * (cfg.bound_floor + cfg.bound_ceiling), x)
    g_ref = np.zeros_like(x)
    for u, H, wv in zip(states[0] if u0 is None else u0, ev.data.data, ev.weights):
        a = ev.gruneisen * u
        b = a * np.abs(u)
        wz = wv * (ref[:n] * a + ref[n:] * b - H)
        g_ref += np.concatenate([wz * a, wz * b])
    report.reference_grad_norm = np.sqrt(dot(g_ref, g_ref))
    threshold = cfg.grad_tol * report.reference_grad_norm
    report.noise_misfit = (0.5 * noise_std(data.noise_level) ** 2 * data.size
                           * float(ev.lumped.sum()))
    noise_floor = NOISE_SHARE * report.noise_misfit

    for it in range(cfg.max_iterations + 1):
        # the gradient at x, from the forward states of its evaluation
        gs, gm = ev.gradient(x[:n], x[n:], states, adjoint_tol=data.noise_tol)
        g = np.concatenate([gs, gm])
        held, g_norm = hold(x, g)
        report.objective_history.append(f)
        report.grad_norm_history.append(g_norm)
        if g_norm <= threshold:
            report.converged = True
            break

        d = np.concatenate(gauss_newton_step(gains, states[0], reg,
                                             (gs, gm), (held[:n], held[n:])))
        gd = dot(g, d)
        if 0.0 < -0.5 * gd <= noise_floor:
            report.converged = True
            report.message = "noise level reached"
            break
        if it == cfg.max_iterations:
            report.message = "iteration cap reached"
            break

        alpha = 1.0
        accepted = False
        for _ in range(35):
            x_trial = np.clip(x + alpha * d, lo, hi)
            step = x_trial - x
            slope = dot(g, step)
            if slope >= 0.0:
                alpha *= 0.5
                continue
            # each solve starts from the last evaluation's, rejected or not
            f_trial, states = evaluate(x_trial, states[0])
            if f_trial <= f + 1e-4 * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            report.message = "line search failed; returning best iterate"
            break

        x, f = x_trial, f_trial
        report.iterations += 1
        report.step_lengths.append(alpha)

    return x[:n].copy(), x[n:].copy(), report
