"""Quantum invariants of oriented Seifert fibered 3-manifolds.

Exact SL(2, Z) arithmetic, numeric modular category data, Seifert
presentations, and several independent evaluation routes for the level
r - 2 invariant that cross-validate each other.
"""

from .invariants import (
    ComplexityCap,
    InvariantResult,
    Unsupported,
    tau_cs11,
    tau_compact,
    tau_generic,
    tau_graph_sum,
    tau_lens_routes,
    tau_section5,
    verlinde_dim,
)
from .modular import (
    ModularDatum,
    check_axioms,
    datum_from_dict,
    datum_to_dict,
    g_matrix,
    load_datum,
    mirror_datum,
    r_rep_gauss,
    r_rep_generators,
    save_datum,
    sl2_datum,
    w_phase,
)
from .seifert import (
    LensSpace,
    SeifertData,
    euler_number,
    first_betti,
    normalize,
    parse_seifert,
    render_seifert,
    reverse_orientation,
    seifert_from_lens,
)
from .sl2z import (
    IDENTITY,
    XI,
    ConvergentTable,
    SL2Z,
    b_matrix,
    cf_expand,
    convergents,
    dedekind_sum,
    dedekind_sum_cotangent,
    ext_gcd,
    linking_matrix,
    rademacher_phi,
    sigma_closed_form,
    sign,
    signature_exact,
    theta_power,
)

__version__ = "0.1.0"
