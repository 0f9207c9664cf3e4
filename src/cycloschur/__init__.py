"""Exact combinatorics of Schur-element defects, weights and cores for
multipartitions: beta-numbers and abaci, charged hook lengths, residue
blocks, cyclotomic valuations, and the package-shift extensions."""

from .abacus import (
    BetaConfig,
    ChargedHooks,
    active_beads,
    beta_numbers,
    charged_hooks_abacus,
    charged_hooks_direct,
    count_divisible_hooks,
    count_zero_hooks,
    default_window,
    in_fundamental_domain,
    multi_beta,
    n_k,
    normalize_multicharge,
    partition_from_beta,
    render_abacus,
    zero_membership,
)
from .groups import (
    glpn_defect,
    orbit,
    packages,
    sigma,
    sigma_schur_invariance,
    yokonuma_block_key,
    yokonuma_defect,
)
from .partitions import (
    Multipartition,
    Partition,
    enumerate_multipartitions,
    format_multicharge,
    format_multipartition,
    generalized_hook,
    hooks_multiset,
    n_invariant,
    parse_multicharge,
    parse_multipartition,
    partitions_of,
)
from .schur import (
    BadSpecialisationError,
    CycloSpec,
    GenericSchurFactors,
    LaurentPoly,
    RootOfUnity,
    class_multicharge,
    cyclotomic_poly,
    defect_general,
    defect_integer,
    dipper_mathas_classes,
    nu_phi,
    q_integer,
    schur_factors,
    semisimple_check,
    specialize_integer,
)
from .weights import (
    CoreResult,
    bgo_check,
    core,
    ecore_abacus,
    ecore_classical,
    fayers_weight,
    normalized_instance,
    residue_vector,
    residue_weight,
    uglov_weight,
)

__version__ = "0.1.0"
