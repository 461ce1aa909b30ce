"""peakcheck: recognition of possibly single-peaked incomplete preferences.

Decides whether profiles of partial, local weak, weak, top or total orders
are possibly single-peaked (and the single-plateaued, Black and necessarily
single-peaked variants) via four recognition engines, a brute-force oracle,
hardness-gadget generators and a PrefLib-compatible command line.
"""

from .axis_check import (
    check_black_on_axis,
    check_necessary_on_axis,
    check_on_axis,
    check_plateaued_on_axis,
    extend_to_sp_total_order,
    has_plateau,
    has_u_valley,
    has_v_valley,
    is_possibly_sp_on_axis,
)
from .c1p import (
    C1Matrix,
    build_black_matrix,
    build_plateaued_matrix,
    build_psp_matrix,
    recognize_black,
    recognize_necessary,
    recognize_plateaued,
    recognize_psp_c1p,
    solve_c1p,
)
from .cli import applicable_engines, dispatch
from .errors import (
    AxisError,
    ClassError,
    CycleError,
    HardnessError,
    InternalError,
    NoTotalOrderError,
    ParseError,
    PeakcheckError,
    PinError,
    SizeError,
    UnknownCandidateError,
    WitnessError,
)
from .gadgets import (
    from_betweenness,
    from_set_splitting,
    random_profile,
    random_sp_profile,
    sample_sp_total_order,
)
from .guided import (
    enumerate_implicit_guiding_votes,
    find_implicit_guiding_vote,
    guided_recognize,
)
from .model import (
    Axis,
    Notion,
    OrderClass,
    PreferenceOrder,
    Profile,
    Refusal,
    ValleyWitness,
    Verdict,
    WitnessKind,
    all_axes,
    build_order,
    classify,
    maximal_elements,
    minimal_elements,
    restrict,
)
from .oracle import (
    extension_enumerate,
    majority_relation,
    oracle_recognize,
    weak_condorcet_winners,
)
from .preflib import (
    parse_any,
    parse_preflib,
    parse_preflib_full,
    parse_profile_json,
    write_preflib,
    write_profile_json,
    write_verdict_json,
)
from .twosat import TwoSatInstance, encode, recognize_lwo_with_total, solve_2sat
from .unguided import (
    IntersectionIndex,
    connected_components,
    intersecting_vote,
    oplus,
    unguided_recognize,
)

__version__ = "0.1.0"
