"""The ReLU activation with the fixed subgradient choice at zero."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Activation:
    """ReLU, the activation whose z-update ``solvers.solve_z_relu`` solves
    in closed form."""

    def value(self, z: np.ndarray) -> np.ndarray:
        return np.maximum(z, 0.0)

    # The subgradient at 0 is taken as 0 so that gradients of the activation
    # penalty are deterministic at the kink.
    def deriv(self, z: np.ndarray) -> np.ndarray:
        return (z > 0.0).astype(np.float64)


RELU = Activation()
