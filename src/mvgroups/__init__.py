"""Exact arithmetic for finite multivalued groups.

Build multivalued groups from automorphism actions on finite groups or
from strongly regular graph parameters, verify every defining axiom,
and decide for order-3 groups whether they arise (up to isomorphism)
from a coset construction.
"""

from types import ModuleType as _Module

from .algebra import (
    ActionGroup,
    Automorphism,
    FiniteField,
    FiniteGroup,
    OrbitPartition,
    additive_group,
    close_action,
    coset_group,
    cyclic_group,
    is_prime_power,
    make_elementary_abelian,
    make_field,
    mult_order,
    multiplier_automorphism,
    orbits,
)
from .classify import (
    FamilyDescriptor,
    Verdict,
    classify_order3,
    collisions,
    derive_params,
    enumerate_families,
    match_params,
)
from .core import (
    AxiomReport,
    Multiset,
    MultivaluedGroup,
    Signature,
    are_isomorphic,
    build_type1,
    build_type2,
    build_xk,
    check_reciprocity,
    scale,
    signature,
    validate,
    verify_all,
    verify_axioms,
    verify_involutive,
)
from .errors import AxiomError, CapError, InputError, InternalError, MvgError
from .srg import (
    DirectedGraph,
    Graph,
    IntersectionNumbers,
    SrgParams,
    affine_polar,
    affine_polar_plus_complement,
    alternating_forms_graph,
    bilinear_forms_graph,
    cayley_graph,
    clique_union,
    complement,
    complement_params,
    grid_graph,
    intersection_numbers,
    mvgroup_from_params,
    paley_graph,
    paley_tournament,
    srg_check,
    vanlint_schrijver,
)

__version__ = "0.1.0"

# The public names: every name imported above but the submodules.
__all__ = sorted(name for name, value in dict(globals()).items() if name[0] != "_" and not isinstance(value, _Module))
