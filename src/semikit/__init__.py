"""semikit: finite semigroup structure theory as Cayley tables.

Green's relations, idempotent structure, kernels and minimal ideals, Rees
quotients, and Rees matrix decompositions of completely simple semigroups,
with a verification harness that replays the structure theorems over small
instances.
"""

from .core import (
    FiniteSemigroup,
    SemigroupMorphism,
    SubsetHandle,
    adjoin_identity,
    center,
    centralizer,
    closure,
    direct_product,
    dumps_sg,
    from_table,
    idempotents,
    is_cancellative,
    is_group,
    is_monoid,
    loads_sg,
    monogenic,
    read_sg,
    subsemigroup_table,
    write_sg,
)
from .errors import SemigroupError
from .greens import (
    GreensStructure,
    eggbox_dot,
    greens_restriction_check,
    greens_structure,
    h_class_is_group,
    is_regular,
    is_stable,
    principal_ideals,
)
from .ideals import (
    IdempotentPoset,
    KernelReport,
    idempotent_poset,
    kernel,
    minimal_ideal_equivalences,
    rees_quotient,
    swelling_check,
)
from .simple import (
    ReesDecomposition,
    ReesMatrixSemigroup,
    band_predicates,
    enumerate_subsemigroups,
    h_finiteness,
    is_completely_simple,
    is_simple,
    read_rms,
    rees_construct,
    rees_decompose,
    subsemigroup_decompose,
    subsemigroup_of_group_check,
    write_rms,
)
from .corpus import (
    VerificationReport,
    census,
    fingerprint,
    gen_random_rees,
    gen_standard,
    gen_transformation_closure,
    parse_descriptor,
    verify_suite,
)

__version__ = "0.1.0"
