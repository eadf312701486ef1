"""qgrain: granular qubit state space.

Exact rational state grids for qubits, the bit-string codec that carries
them, the signed-permutation realisation of complex units and Pauli
operators, capacity bounds for nested multi-qubit states, and the
gravitationally derived granularity scale.
"""

from .qubit import (
    Direction,
    DiscretisedQubit,
    NIVEN_COSINES,
    UncertaintyResult,
    coarsen,
    complementarity_conflict,
    niven_admissible,
    phi_of,
    quantise,
    round_half_down,
    theta_of,
    uncertainty_check,
)
from .bitstring import (
    BitString,
    Decoded,
    NotCodewordError,
    apply_permutation,
    born_frequency,
    concat,
    cyc,
    decode,
    encode,
    equivalent_mod_xi,
    from_text,
    iota,
    mean_std,
    mean_var_exact,
    negate,
    to_text,
)
from .signed_perm import (
    SignedPermutation,
    apply,
    compose,
    identity_op,
    make_i,
    make_ilittle,
    make_j,
    make_k,
    make_pauli_x,
    make_pauli_y,
    make_pauli_z,
    negation_op,
    self_similar_split,
    verify_quaternion,
    verify_spin_identities,
)
from .nested import (
    AngleTree,
    NestedState,
    SaturationRow,
    amplitudes,
    amplitudes_of_tree,
    capacity_deficient,
    decode_nested,
    dof_count,
    encode_nested,
    fidelity,
    n_max,
    random_angle_tree,
    saturation_experiment,
)
from .gravity import (
    CapacityReport,
    DEFAULT_CONSTANTS,
    PhysicalConstants,
    Scenario,
    dp_time,
    e_g_full,
    e_g_large_b,
    e_g_small_b,
    l_of_scenario,
    reduction_after,
    reduction_time,
    scenario_report,
    sn_radius,
)

__version__ = "0.1.0"
