"""The ten-graph exception catalog and the weight function built on it.

The catalog members R1..R10 are the connected special subcubic graphs that
violate 10 * gamma_r <= 5*n2 + 4*n3; the weight function repairs the
inequality by charging each component its catalog class:

    omega(G) = sum over i of i * (number of components in class i)
    w(G)     = 5*n2(G) + 4*n3(G) + omega(G)

Reference edge lists below are fixed constants; the test suite gates the
transcription through the identity 10 * gamma_r(M) = w(M), the degree
profiles, and a full small-order sweep, so a mistranscription cannot pass.
A member is a ``FamilyMember`` and a weight a ``WeightReport``, both
NamedTuples, which pool workers pickle with their findings.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from rdom.graph import DegreeProfile, Graph, components
from rdom.iso import canonical_certificate

# id -> (order, edges, omega class, gamma_r); zero-based labels follow the reference drawings
_CATALOG: dict[str, tuple[int, list[tuple[int, int]], int, int]] = {
    # 5-cycle
    "R1": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], 5, 3),
    # 5-cycle 0..4 plus vertex 5 adjacent to 0 and 2
    "R2": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 2)], 2, 3),
    # 8-cycle plus one long chord
    "R3": (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4)], 2, 4),
    # 8-cycle plus two crossing long chords
    "R4": (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4), (2, 6)], 4, 4),
    # 8-cycle plus two parallel long chords
    "R5": (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4), (1, 5)], 4, 4),
    "R6": (11, [(0, 1), (2, 3), (3, 4), (6, 7), (7, 8), (9, 10), (0, 2), (2, 6), (6, 9),
                (1, 4), (4, 8), (8, 10), (3, 5), (5, 7)], 1, 5),
    "R7": (11, [(0, 1), (2, 3), (3, 4), (6, 10), (10, 7), (7, 8), (0, 2), (2, 6), (6, 9),
                (1, 4), (8, 9), (4, 5), (5, 8), (3, 7)], 1, 5),
    "R8": (11, [(0, 1), (2, 5), (3, 4), (6, 7), (0, 2), (2, 4), (4, 6), (6, 8), (8, 10),
                (1, 3), (3, 5), (5, 7), (7, 9), (9, 10)], 1, 5),
    "R9": (11, [(2, 3), (3, 4), (6, 10), (10, 7), (7, 8), (0, 2), (2, 6), (6, 9),
                (4, 5), (5, 8), (8, 9), (3, 7), (0, 1), (0, 5), (1, 9)], 3, 5),
    "R10": (7, [(0, 1), (1, 2), (4, 5), (5, 6), (0, 4), (2, 6), (1, 3), (3, 5), (2, 4), (0, 6)], 1, 3),
}

MEMBER_IDS = tuple(_CATALOG)


class FamilyMember(NamedTuple):
    id: str
    graph: Graph
    omega_class: int
    gamma_r: int
    profile: DegreeProfile


def family_member(member_id: str) -> FamilyMember:
    if member_id not in _CATALOG:
        raise ValueError(f"unknown member {member_id!r}")
    n, edges, omega_class, gamma_r = _CATALOG[member_id]
    g = Graph.from_edges(n, edges)
    return FamilyMember(member_id, g, omega_class, gamma_r, g.degree_profile())


@cache
def _members_by_certificate() -> dict[str, FamilyMember]:
    """R1..R10 in id order, keyed by canonical certificate: built and
    labeled together on the first call, so a process that holds the
    catalog holds its certificates too."""
    return {canonical_certificate(m.graph): m for m in map(family_member, MEMBER_IDS)}


def all_family_members() -> tuple[FamilyMember, ...]:
    """R1..R10, built on the first call and shared by every later one."""
    return tuple(_members_by_certificate().values())


def classify_brdom(g: Graph) -> tuple[str, int] | None:
    """Match a graph against the catalog, returning (id, omega class) or None.

    Order plus degree-2 count rule out every graph whose pair no member
    shares; the rest are labeled once and looked up by certificate, which
    also tells apart the {R4, R5} and {R6, R7, R8} signature collisions.
    """
    profile = g.degree_profile()
    signature = (g.n, profile.n2)
    if profile.other or all((m.graph.n, m.profile.n2) != signature for m in all_family_members()):
        return None
    member = _members_by_certificate().get(canonical_certificate(g))
    return None if member is None else (member.id, member.omega_class)


class WeightReport(NamedTuple):
    n2: int
    n3: int
    f: tuple[int, int, int, int, int]  # component counts per catalog class
    omega: int
    w: int
    members: tuple[str, ...]  # the catalog id of each member component


def weight(g: Graph) -> WeightReport:
    """Weight report for a special subcubic graph (omega summed over
    components). Raises on any vertex of degree other than 2 or 3; without
    one, every component is special subcubic."""
    profile = g.degree_profile()
    if profile.other:
        raise ValueError("weight is defined for special subcubic graphs only")
    hits = [hit for comp, _ in components(g) if (hit := classify_brdom(comp)) is not None]
    f = tuple(sum(cls == i for _, cls in hits) for i in range(1, 6))
    omega = sum(cls for _, cls in hits)
    return WeightReport(profile.n2, profile.n3, f, omega,
                        5 * profile.n2 + 4 * profile.n3 + omega, tuple(mid for mid, _ in hits))
