"""The ten-graph exception catalog and the weight function built on it.

The catalog members R1..R10 are the connected special subcubic graphs that
violate 10 * gamma_r <= 5*n2 + 4*n3; the weight function repairs the
inequality by charging each component its catalog class:

    omega(G) = sum over i of i * (number of components in class i)
    w(G)     = 5*n2(G) + 4*n3(G) + omega(G)

Reference edge lists below are fixed constants; the test suite gates the
transcription through the identity 10 * gamma_r(M) = w(M), the degree
profiles, and a full small-order sweep, so a mistranscription cannot pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from rdom.graph import DegreeProfile, Graph, components, is_special_subcubic
from rdom.iso import are_isomorphic

# id -> (order, edges); labels follow the reference drawings, zero-based
_MEMBER_EDGES: dict[str, tuple[int, list[tuple[int, int]]]] = {
    # 5-cycle
    "R1": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    # 5-cycle 0..4 plus vertex 5 adjacent to 0 and 2
    "R2": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 2)]),
    # 8-cycle plus one long chord
    "R3": (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4)]),
    # 8-cycle plus two crossing long chords
    "R4": (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4), (2, 6)]),
    # 8-cycle plus two parallel long chords
    "R5": (8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 0), (0, 4), (1, 5)]),
    "R6": (11, [(0, 1), (2, 3), (3, 4), (6, 7), (7, 8), (9, 10), (0, 2), (2, 6), (6, 9),
                (1, 4), (4, 8), (8, 10), (3, 5), (5, 7)]),
    "R7": (11, [(0, 1), (2, 3), (3, 4), (6, 10), (10, 7), (7, 8), (0, 2), (2, 6), (6, 9),
                (1, 4), (8, 9), (4, 5), (5, 8), (3, 7)]),
    "R8": (11, [(0, 1), (2, 5), (3, 4), (6, 7), (0, 2), (2, 4), (4, 6), (6, 8), (8, 10),
                (1, 3), (3, 5), (5, 7), (7, 9), (9, 10)]),
    "R9": (11, [(2, 3), (3, 4), (6, 10), (10, 7), (7, 8), (0, 2), (2, 6), (6, 9),
                (4, 5), (5, 8), (8, 9), (3, 7), (0, 1), (0, 5), (1, 9)]),
    "R10": (7, [(0, 1), (1, 2), (4, 5), (5, 6), (0, 4), (2, 6), (1, 3), (3, 5),
                (2, 4), (0, 6)]),
}

# class i of the weight penalty, and the known minimum RD-set sizes
_OMEGA_CLASS = {"R1": 5, "R2": 2, "R3": 2, "R4": 4, "R5": 4,
                "R6": 1, "R7": 1, "R8": 1, "R9": 3, "R10": 1}
_GAMMA_R = {"R1": 3, "R2": 3, "R3": 4, "R4": 4, "R5": 4,
            "R6": 5, "R7": 5, "R8": 5, "R9": 5, "R10": 3}

MEMBER_IDS = tuple(f"R{i}" for i in range(1, 11))


@dataclass(frozen=True)
class FamilyMember:
    id: str
    graph: Graph
    omega_class: int
    gamma_r: int
    profile: DegreeProfile


def family_member(member_id: str) -> FamilyMember:
    if member_id not in _MEMBER_EDGES:
        raise ValueError(f"unknown member {member_id!r}")
    n, edges = _MEMBER_EDGES[member_id]
    g = Graph.from_edges(n, edges)
    return FamilyMember(member_id, g, _OMEGA_CLASS[member_id], _GAMMA_R[member_id],
                        g.degree_profile())


@cache
def all_family_members() -> tuple[FamilyMember, ...]:
    """R1..R10, built on the first call and shared by every later one."""
    return tuple(family_member(mid) for mid in MEMBER_IDS)


def classify_brdom(g: Graph) -> tuple[str, int] | None:
    """Match a graph against the catalog, returning (id, omega class) or None.

    Order plus degree-2 count rule out everything except the {R4, R5} and
    {R6, R7, R8} signature collisions, which fall through to the full
    isomorphism test.
    """
    profile = g.degree_profile()
    if profile.other:
        return None
    signature = (g.n, profile.n2)
    for member in all_family_members():
        if (member.graph.n, member.profile.n2) != signature:
            continue
        if are_isomorphic(g, member.graph):
            return member.id, member.omega_class
    return None


@dataclass(frozen=True)
class WeightReport:
    n2: int
    n3: int
    f: tuple[int, int, int, int, int]  # component counts per catalog class
    omega: int
    w: int
    members: tuple[str, ...]  # the catalog id of each member component


def weight(g: Graph) -> WeightReport:
    """Weight report for a special subcubic graph (omega summed over
    components). Raises on any vertex of degree other than 2 or 3."""
    f = [0, 0, 0, 0, 0]
    members = []
    for comp, vmap in components(g):
        if not is_special_subcubic(comp):
            raise ValueError("weight is defined for special subcubic graphs only")
        hit = classify_brdom(comp)
        if hit is not None:
            f[hit[1] - 1] += 1
            members.append(hit[0])
    profile = g.degree_profile()
    omega = sum((i + 1) * f[i] for i in range(5))
    return WeightReport(profile.n2, profile.n3, tuple(f), omega,
                        5 * profile.n2 + 4 * profile.n3 + omega, tuple(members))
