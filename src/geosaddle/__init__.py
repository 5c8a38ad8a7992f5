"""Saddle-point optimization on Riemannian manifolds.

Geometry kernels (sphere, SPD, Euclidean, products), corrected-extragradient
and gradient descent-ascent solvers with the curvature comparison constants
and step-size schedules, benchmark problems, and a CLI experiment harness.

Each module's ``__all__`` is its public surface; the package re-exports those
of ``manifolds``, ``solvers`` and ``problems``, while ``harness`` and ``cli``
are imported by module.
"""

from .manifolds import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403
from .problems import *  # noqa: F401,F403

__version__ = "0.1.0"
