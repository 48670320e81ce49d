"""rdom: exact restrained domination on small graphs.

Bitset graph core, graph6 interchange, exact branch-and-bound solvers for
restrained domination and its near-RD relaxations, the ten-graph exception
catalog with its weight function, isomorph-free enumeration of cubic and
special subcubic corpora, and a verification harness that sweeps every
machine-checkable claim over exhaustively enumerated instances.

The records the library returns (``DegreeProfile``, ``FamilyMember``,
``WeightReport``, ``NerdQuery``, ``SolveOutcome``, ``Lemma1Trace`` and the
harness's ``Finding``) are NamedTuples: immutable, compared as tuples, and
copied with a changed field by ``._replace``. They are not dataclasses
because every check starts in a fresh interpreter, and ``dataclasses``
(which loads ``inspect``) and its code generator were a third of the
import time of ``rdom`` and ``rdom.harness``.
"""

from rdom.graph import (
    DegreeProfile,
    Graph,
    VertexSet,
    bits_of,
    components,
    is_cubic,
    is_degree_bipartite,
    is_special_subcubic,
    mask_of,
    open_twins,
    subdivide,
)
from rdom.graph6 import Graph6Error, parse_graph6, write_graph6
from rdom.iso import are_isomorphic, canonical_certificate
from rdom.family import FamilyMember, WeightReport, all_family_members, classify_brdom, family_member, weight
from rdom.solvers import (
    NERD_TYPE1,
    NERD_TYPE2,
    NerdQuery,
    SolveOutcome,
    gamma_r_exact,
    gamma_r_nerd_exact,
    is_restrained_dominating,
)

__version__ = "0.1.0"
