"""pettylab: projection-body calculus for convex bodies.

Zonotope formulas (support, volume, shadows, projection bodies), the affine
invariants P, M, m, Q, Steiner and Schwartz symmetrization, revolution-body
closed forms, and seeded verification/search harnesses for the sharp bounds
M <= 8 (zonoids) and m >= 6 (symmetric bodies) in three dimensions.
"""

from .bodies import Ball, body_from_dict, body_to_dict, load_body, save_body
from .errors import (BodyFileError, FlatBodyError, GeometryError, InputError,
                     LimitError, SymmetryError)
from .functionals import (InvariantReport, invariants, mixed_volume,
                          petty_value, polar_volume, q_direction, ratio,
                          s_term, sl_invariance_check, t_term, ts_sums)
from .geom import Polytope, chords, convex_hull, fibonacci_sphere, slice_area
from .revolution import (RevolutionBody, axis_ratio, ball_volume,
                         berwald_check, cone_bound, rev_second_proj_axis,
                         rev_volume)
from .search import SearchRun, optimize
from .symmetrize import (ChordProfile, chord_profile, schwartz, steiner,
                         steiner_projection_monotonicity)
from .zonotope import GeneratorSet, second_proj_support, z_shadow_area, z_volume

__version__ = "0.1.0"
