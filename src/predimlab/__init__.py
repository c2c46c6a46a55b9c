"""Finite predimension calculus with exhaustive verification suites.

Everything here is ambient-relative: predimensions, closures, dimensions,
independence and multiplicities are computed inside a fixed finite
structure and claim nothing about infinite limits.
"""

__version__ = "0.1.0"

from .structures import (
    BIPARTITE,
    HYPERGRAPH,
    LINE,
    POINT,
    FiniteStructure,
    Relation,
    Signature,
    canonical_form,
    delta,
    delta_rel,
    dump_structure,
    free_amalgam,
    graph,
    graph_signature,
    hypergraph,
    hypergraph_signature,
    load_structure,
    path_graph,
    polygon_signature,
)
from .closures import ClosureResult, cl0, cld, dim, is_d_closed, self_sufficient
from .classes import ControlFunction, girth, in_C0, in_Cf, in_Kn, make_control
from .gadgets import (
    BeattySequence,
    GadgetPair,
    GadgetParams,
    beatty,
    build_double_cycle,
    build_fan_join,
    build_gadget,
    build_tower_amalgam,
    gadget_params,
    verify_gadget,
)
from .extensions import (
    MsaType,
    count_msa_copies,
    enumerate_msa_pairs,
    is_msa,
    is_simply_algebraic,
    msa_base,
)
from .builder import (
    BuildConfig,
    ExtensionTask,
    audit_extension_property,
    build_generic,
    enumerate_class,
)
from .independence import (
    axiom_suite,
    check_lemma43_characterization,
    d_independent,
    perp,
)
from .reports import VerificationReport, emit_report
from .suites import SUITE_NAMES, run_suite
from .errors import CapacityError, ContractError, InputError, InternalError, PredimlabError
