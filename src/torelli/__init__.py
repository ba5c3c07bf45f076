"""Exact computations with mapping classes on nilpotent quotients of a
surface group: Hall bases of free Lie algebras, truncated BCH group
arithmetic with integer normal forms, Chevalley-Eilenberg homology with
an extended differential, bar-chain bounding, and the Johnson/Morita
homomorphisms compared through symplectic duality.

Everything is exact: integers and fractions.Fraction throughout.
"""

from .bar import (
    BarChain,
    antisym_cycle,
    bar_boundary,
    bar_chain,
    bound_two_cycle,
    cap_d2,
    fox_derivatives,
    fundamental_two_chain,
    push,
    staircase,
)
from .ce import (
    BudgetExceeded,
    WedgeChain,
    act,
    c_mod_b_dim,
    ce_boundary,
    extended_differential,
    homology_dims,
    read_h_tensor_l,
    verify_d_squared,
)
from .hall import HallBasis, LieElement, get_basis, lie_generator
from .homs import (
    JohnsonValue,
    MoritaValue,
    Signs,
    calibrate_delta,
    calibrate_epsilon,
    johnson,
    johnson_act,
    morita,
    symplectic_dual,
    verify_morita_johnson,
)
from .malcev import (
    MalcevContext,
    NilElement,
    bch,
    get_context,
    induced_lie_auto,
    is_in_torelli,
    log_word,
)
from .words import (
    MappingClassRep,
    Word,
    apply_endo,
    boundary_word,
    catalog,
    commutator,
    compose,
    conjugate,
    format_word,
    generator,
    h_action,
    identity_mapping_class,
    parse_automorphism,
    parse_word,
    verify_mapping_class,
    word,
)

__version__ = "0.1.0"
