"""flipcheck: exact symbolic replay of the Grassmannian-flip SOD computations.

Mechanically reproduces the cohomology vanishing lemmas, Euler-sequence
mutations, and semiorthogonal-decomposition rearrangements on the blowup
roof X of the flip Tot_{Gr(2,N)}(U(-H)) -> Tot_{P^{N-1}}(Q(-2h)), for any
rank parameter N, reporting pass/fail/indeterminate per claim.
"""

from .weights import EObject, Weight
from .bwb import GradedDims, cohomology
from .flagx import ExtResult, e_ext, e_euler, x_ext
from .verify import (
    Claim,
    Report,
    verify_all,
    verify_chessboard,
    verify_even,
    verify_inductive_steps,
    verify_mut,
    verify_sod_odd,
    verify_suite,
    verify_van,
)

__version__ = "0.1.0"
