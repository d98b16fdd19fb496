"""Finite-difference verification of adjoint gradients.

Evaluates the least-squares objective as a pure function of the stacked
(sigma, mu) vector (one Evaluator, cold Newton starts at every point,
forward and adjoint solves to TIGHT_TOL) and compares its central finite
differences against the adjoint gradient in random directions
(_fd_directional_derivative, the package's one finite difference). The
gradient is Evaluator.gradient's, from the resumable adjoint solves of
Evaluator.adjoints that lsq.run_lsq also runs, here run to TIGHT_TOL at
once, so the check covers the path the fit takes. With the discretization
used here the adjoint gradient is exact, so disagreement should sit at the
solver-tolerance floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .config import ExperimentConfig
from .errors import ValidationError, require_count
from .experiments import prepare_data
from .lsq import Evaluator

# finite-difference step, relative to the largest coefficient value
STEP_SCALE = 1e-6
# Newton residual and adjoint relative residual of every solve of the check,
# below the defaults so that solver error stays under the FD truncation error
TIGHT_TOL = 1e-12


def _fd_directional_derivative(functional, point, direction, step: float) -> float:
    """Central difference (F(x + t d) - F(x - t d)) / (2 t)."""
    if step <= 0.0:
        raise ValidationError("finite-difference step must be positive")
    point = np.asarray(point, dtype=float)
    direction = np.asarray(direction, dtype=float)
    fp = functional(point + step * direction)
    fm = functional(point - step * direction)
    return (fp - fm) / (2.0 * step)


@dataclass(eq=False)
class GradCheckResult:
    relative_errors: np.ndarray
    adjoint_values: np.ndarray
    fd_values: np.ndarray
    step: float

    @property
    def max_relative_error(self) -> float:
        return float(self.relative_errors.max())

    def save(self, path):
        fem.write_columns(path, "direction,adjoint,fd,relative_error",
                          "%d,%.17g,%.17g,%.17g\n", range(len(self.relative_errors)),
                          self.adjoint_values.tolist(), self.fd_values.tolist(),
                          self.relative_errors.tolist())


def gradient_check(cfg: ExperimentConfig, directions: int = 20,
                   seed: int = 7) -> GradCheckResult:
    """Compare the adjoint gradient of Phi with central differences.

    The trial point is a random within-bounds perturbation of the true
    coefficients, so the misfit (and its gradient) is genuinely nonzero.
    The data are the clean data, the weight is cfg.lsq.kappa, so the check
    covers the objective the config minimizes, and the FD step is STEP_SCALE
    times the coefficient field scale. One Evaluator serves every value, each
    from cold Newton starts, with the forward and adjoint solves run to
    TIGHT_TOL. directions must be an integer >= 1.
    """
    require_count(directions, "directions")
    if cfg.data_mesh_n not in (None, cfg.mesh_n):
        raise ValidationError("gradient check expects data and reconstruction "
                              "on the same mesh; leave [mesh] data_n unset "
                              "or equal to n")
    bundle = prepare_data(cfg)
    mesh = bundle.mesh
    data = bundle.datum_set(0.0, seed)

    rng = np.random.default_rng(seed)
    n = mesh.node_count
    sigma = bundle.coeffs.single_photon * (1.0 + 0.3 * rng.uniform(-1, 1, n))
    mu = bundle.coeffs.two_photon * (1.0 + 0.3 * rng.uniform(-1, 1, n))
    x0 = np.concatenate([sigma, mu])
    scale = float(np.max(np.abs(x0)))
    step = STEP_SCALE * scale

    ev = Evaluator(bundle.operator, bundle.coeffs.gruneisen, data, cfg.lsq.kappa)
    tols = [TIGHT_TOL] * data.size

    def phi(x):
        s, m = x[:n], x[n:]
        return ev.objective(s, m, ev.forward_states(s, m, residual_tols=tols))

    states = ev.forward_states(sigma, mu, residual_tols=tols)
    g_sigma, g_mu = ev.gradient(sigma, mu, states, adjoint_tol=TIGHT_TOL)
    weights = np.concatenate([ev.lumped, ev.lumped])
    grad = np.concatenate([g_sigma, g_mu])

    adjoint_vals = np.empty(directions)
    fd_vals = np.empty(directions)
    rel = np.empty(directions)
    for k in range(directions):
        # exercise each coefficient alone as well as joint perturbations
        d = rng.uniform(-1.0, 1.0, 2 * n)
        if k % 3 == 0:
            d[n:] = 0.0
        elif k % 3 == 1:
            d[:n] = 0.0
        adjoint_vals[k] = float((weights * grad * d).sum())
        fd_vals[k] = _fd_directional_derivative(phi, x0, d, step)
        denom = max(abs(adjoint_vals[k]), abs(fd_vals[k]), 1e-300)
        rel[k] = abs(adjoint_vals[k] - fd_vals[k]) / denom
    return GradCheckResult(relative_errors=rel, adjoint_values=adjoint_vals,
                           fd_values=fd_vals, step=step)
