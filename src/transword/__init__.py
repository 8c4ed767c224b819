"""transword: a decidable fragment of infinitary word calculus.

Finite blocks plus schematic letter streams present words in which every
letter occurs finitely often; the package computes canonical forms,
projections to finite-rank free groups, reduced normal forms, the
archipelago germ quotient, maximal-interval decompositions over
almost-disjoint families, and the substitution homomorphisms built on
all of it.
"""

from .freegroup import (
    EMPTY,
    AdjunctionSplit,
    FreeWord,
    Letter,
    adjunction_free_oracle,
    cyclic_reduce,
    reduce_free,
    split_for_adjunction,
)
from .setspec import EvPeriodic, Finite, PrefixCode, SetSpec
from .schema import Entry, IndexFn, Schema, affine
from .words import (
    EMPTY_WORD,
    CapError,
    FiniteBlock,
    SchematicWord,
    Stream,
    canonicalize,
    concat,
    equal_up_to,
    gamma_recode,
    heg_equal,
    invert,
    is_reduced,
    occurrences,
    project_finite,
    proj_rank,
    ra_retract,
    reduce,
    stream_word,
)
from .hag import Germ, HagClass, hag_equal, hag_normal, hag_product, pi
from .sigma import (
    Decomposition,
    Maximal,
    Piece,
    SigmaFamily,
    T,
    apply_Ff,
    decompose,
    make_family,
    phi_sigma,
    psi_f,
    separation_pattern,
    u_word,
)
from .endo import (
    SubstitutionMap,
    apply_endo,
    apply_projected,
    cantor_pair,
    cantor_row,
    cantor_unpair,
    check_admissible,
    doubling_map,
    embedding_check,
    identity_map,
    projector,
    tau_map,
    telescope_map,
    telescope_product,
)
from .abelian import IntSeq, distinct_homs_demo, mod_p, sum_functional
from .dsl import ParseError, parse_setspec, parse_sigma_map, parse_substitution, parse_word, render_word
