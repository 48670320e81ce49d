"""The outputs that must not change when the code behind them is reworked.

Each case runs one command through ``cli.main`` (or one library call) and
pins the SHA-256 of what it prints, with the ``elapsed_s`` lines of the
``--json`` reports dropped, together with its exit code. A change that
alters any of these streams or reports on purpose updates the hash here
and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from rdom.cli import main
from rdom.enumeration import enumerate_graphs
from rdom.graph6 import write_graph6

PINNED = {
    "enumerate cubic 12": (
        ["enumerate", "--class", "cubic", "--n", "12"], 0,
        "af9b4a3636c0a120dd65da5154c5ce3dd503b11ac8643f5cd1ae34782a68fe60"),
    "enumerate cubic 12 connected": (
        ["enumerate", "--class", "cubic", "--n", "12", "--connected"], 0,
        "cde1ea2bd9c1e2b306d090862a43a74c598bd09ed69fffd86950f97ce3a7062a"),
    "enumerate special-subcubic 10 connected": (
        ["enumerate", "--class", "special-subcubic", "--n", "10", "--connected"], 0,
        "2db6aa130595f3070bc7412815c401e04dc2e95e55dadf5d775931a8f06df31b"),
    "enumerate degree-bipartite 10": (
        ["enumerate", "--class", "degree-bipartite", "--n", "10"], 0,
        "eb26518c7afb11c46b7b04c87e6cc8bba6593ff6405cd736cc74f5f685fe1a10"),
    "verify cubic-bound 12": (
        ["verify", "cubic-bound", "--max-n", "12", "--json"], 0,
        "120291aadc172a4b202a00459614dd8599d6fc16bd832627a98567ad915aecd1"),
    "verify key-theorem 9": (
        ["verify", "key-theorem", "--max-n", "9", "--json"], 1,
        "fd4f4366ad411c5760b0eb8f59c795016205aeac90eb468142e986fcf72d0824"),
    "verify known-bounds 7": (
        ["verify", "known-bounds", "--max-n", "7", "--json"], 0,
        "afcdc67f17d93514581400e2ed5d60966a13b0c0a5b20f842a50bb52900a76c9"),
    "verify lemma1": (
        ["verify", "lemma1", "--json"], 0,
        "347b40036b9c4025adeca38fb818264b6b736540b349b406dd0a9c60ee66d77c"),
    "verify observations": (
        ["verify", "observations", "--json"], 0,
        "e4b3b71b6c01c054ab71441e26edc28dd0ef7a1ad074b1bb324669f5963e2455"),
    "family": (
        ["family"], 0,
        "39be27f62164a0c81827550bc9da202f626815679a1d6acc7c3443595755b0f2"),
}

# a sweep prints the same report at any worker count
PINNED.update({
    f"{name} jobs 2": ([*PINNED[name][0], "--jobs", "2"], *PINNED[name][1:])
    for name in ("verify cubic-bound 12", "verify key-theorem 9", "verify known-bounds 7", "verify lemma1")
})

ALL_7 = "4315b3e4690f9422bc9fd344170b37633ce3f054beea8b690166309878605a64"


def _digest(text: str) -> str:
    kept = [line for line in text.splitlines(keepends=True) if '"elapsed_s"' not in line]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


@pytest.mark.parametrize("name", list(PINNED))
def test_cli_output_is_pinned(capsys, name):
    argv, code, digest = PINNED[name]
    assert main(argv) == code
    assert _digest(capsys.readouterr().out) == digest


def test_all_7_stream_is_pinned():
    lines = "".join(write_graph6(g) + "\n" for g in enumerate_graphs(7, "all", connected_only=False))
    assert _digest(lines) == ALL_7
