"""Gaussian wave-packet dynamics under at-most-quadratic Hamiltonians.

Three independent, cross-validating representations of the same dynamics:
analytic evolution of the complex width variable (Riccati/Ermakov picture),
explicit propagator kernels applied by quadrature, and Wigner phase-space
transport by the symplectic point map.  The split-operator grid propagator
serves as a brute-force oracle against all of them.
"""

from .core import (Constants, ConstantOmega, Free, InitialPacket, ModulatedOmega,
                   RampOmega, SystemSpec, TabulatedOmega, TransformMatrix)
from .errors import (CapabilityError, ConfigError, DeltaLimitError, DivergenceError,
                     GridMismatchError, ResolutionError, ValidationError)
from .evolution import Trajectory, ermakov_residual, solve_lambda
from .invariants import (UncertaintyCanonical, canonical_coordinates,
                         det_as_ermakov, energy_partition, ermakov_invariant,
                         euler_lagrange_residuals, frozen_width_matrix,
                         matrix_from_state, uncertainty_hamiltonian)
from .kernels import (ComplexGrid, apply_kernel, kernel_td, kernel_ti,
                      satisfies_kernel_odes)
from .oracle import GridState, compare_states, quadrature_moments, split_step
from .packet import (GaussianPacket, Moments, classical_action, evaluate_wavefunction,
                     moments_from_lambda, propagate_analytic)
from .wigner import PhaseSpaceGrid, wigner_gaussian, wigner_numeric, wigner_pointmap

__version__ = "0.1.0"
