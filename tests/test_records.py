"""The library's records: immutable, picklable, validated where they must
be, and cheap to import."""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import rdom
from rdom import harness
from rdom.construct import lemma1_construct
from rdom.family import family_member, weight
from rdom.graph6 import parse_graph6
from rdom.solvers import NERD_TYPE1, NERD_TYPE2, NerdQuery, gamma_r_exact

from named_graphs import petersen_graph

SRC = Path(rdom.__file__).resolve().parents[1]


def records():
    """One instance of every record type the library returns."""
    r2 = family_member("R2")
    return [
        r2.profile,
        r2,
        weight(r2.graph),
        NerdQuery(1, NERD_TYPE2),
        gamma_r_exact(petersen_graph()),
        lemma1_construct(parse_graph6("DFw"))[1],
        harness.Finding(("details",), "note", "tag"),
    ]


@pytest.mark.parametrize("variant", ["bad", "", None])
def test_nerd_query_rejects_an_unknown_variant(variant):
    with pytest.raises(ValueError, match="variant"):
        NerdQuery(1, variant)
    with pytest.raises(ValueError, match="variant"):
        NerdQuery(1, NERD_TYPE1)._replace(variant=variant)


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_every_field_is_read_only(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_pickle_round_trip(record):
    # any record may cross a process pool; findings do on every pooled sweep
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record


def test_reports_never_share_their_lists():
    a = harness.VerificationReport("a", "scope")
    b = harness.VerificationReport("b", "scope")
    a.add_violation(petersen_graph(), "details")
    a.notes.append("note")
    assert (b.violations, b.notes) == ([], [])
    assert a.violations is not b.violations and a.notes is not b.notes
    assert b.passed and not a.passed


def test_harness_import_loads_no_record_codegen_and_no_pool():
    # -S: no site module, so what loads does not depend on the host's
    # site-packages; the modules named are what the records and the lazy
    # imports keep out of every fresh interpreter's start-up
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import rdom, rdom.harness\n"
        "print(sorted(set(sys.argv[1:]) & set(sys.modules)))\n"
    )
    unwanted = ["dataclasses", "inspect", "concurrent.futures", "rdom.construct"]
    done = subprocess.run([sys.executable, "-S", "-c", probe, *unwanted],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
