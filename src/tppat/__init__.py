"""Quantitative two-photon photoacoustic tomography.

Forward modeling of the semilinear photon-diffusion equation with single- and
two-photon absorption, synthetic internal-data generation, and reconstruction
of the absorption coefficient pair by a direct pointwise method and by
adjoint-state regularized least squares.
"""

__version__ = "0.1.0"

from .errors import MeshFormatError, SolverError, TppatError, ValidationError
from .fem import CoefficientSet
from .forward import BoundarySource, SolverReport
from .mesh import Mesh, build_square_mesh, load_mesh, save_mesh

__all__ = [
    "BoundarySource",
    "CoefficientSet",
    "Mesh",
    "MeshFormatError",
    "SolverError",
    "SolverReport",
    "TppatError",
    "ValidationError",
    "build_square_mesh",
    "load_mesh",
    "save_mesh",
    "__version__",
]
