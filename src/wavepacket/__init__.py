"""Gaussian wave-packet dynamics under at-most-quadratic Hamiltonians.

Three independent, cross-validating representations of the same dynamics:
analytic evolution of the complex width variable (Riccati/Ermakov picture),
explicit propagator kernels applied by quadrature, and Wigner phase-space
transport by the symplectic point map.  The split-operator grid propagator
serves as a brute-force oracle against all of them.
"""

from .core import Constants, ConstantOmega, InitialPacket, SystemSpec
from .errors import CapabilityError, ConfigError, DivergenceError, ValidationError
from .evolution import solve_lambda
from .invariants import matrix_from_state
from .kernels import apply_kernel, kernel_td
from .packet import moments_from_lambda, wavefunction

__version__ = "0.1.0"
