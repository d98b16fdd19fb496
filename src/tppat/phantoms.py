"""Synthetic coefficient phantoms: smooth background plus inclusions.

A phantom field is a constant background overwritten by disk or square
inclusions, sampled at the mesh nodes. Inclusions later in the tuple win
where they overlap. Values are dimensionless coefficient magnitudes, checked
finite and positive when an Inclusion or PhantomField is made; every solve
checks the fields it takes again (fem.positive_field).

Inclusion, PhantomField and Phantom are frozen: each is checked when it is
made and cannot change afterwards. Build a changed one with
dataclasses.replace, which checks it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fem import CoefficientSet
from .mesh import Mesh

SHAPES = ("disk", "square")


@dataclass(frozen=True)
class Inclusion:
    shape: str
    center: tuple
    size: float          # radius of a disk, half-width of a square
    value: float

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValidationError(f"inclusion shape must be one of {SHAPES}, "
                                  f"got {self.shape!r}")
        if not 0.0 < self.size < math.inf:
            raise ValidationError("inclusion size must be finite and positive")
        if len(self.center) != 2 or not all(map(math.isfinite, self.center)):
            raise ValidationError("inclusion center must be finite (x, y)")
        if not 0.0 < self.value < math.inf:
            raise ValidationError("inclusion values must be finite and positive")
        object.__setattr__(self, "center", tuple(self.center))

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        cx, cy = self.center
        if self.shape == "disk":
            return (x - cx) ** 2 + (y - cy) ** 2 <= self.size ** 2
        return (np.abs(x - cx) <= self.size) & (np.abs(y - cy) <= self.size)


@dataclass(frozen=True)
class PhantomField:
    background: float
    inclusions: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "inclusions", tuple(self.inclusions))
        if not 0.0 < self.background < math.inf:
            raise ValidationError("phantom background must be finite and positive")

    def sample(self, mesh: Mesh) -> np.ndarray:
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        out = np.full(mesh.node_count, float(self.background))
        for inc in self.inclusions:
            out[inc.contains(x, y)] = inc.value
        return out


@dataclass(frozen=True)
class Phantom:
    """Coefficient phantom for all four fields."""

    gruneisen: PhantomField
    diffusion: PhantomField
    single_photon: PhantomField
    two_photon: PhantomField

    def coefficients(self, mesh: Mesh) -> CoefficientSet:
        return CoefficientSet(
            gruneisen=self.gruneisen.sample(mesh),
            diffusion=self.diffusion.sample(mesh),
            single_photon=self.single_photon.sample(mesh),
            two_photon=self.two_photon.sample(mesh),
        )
