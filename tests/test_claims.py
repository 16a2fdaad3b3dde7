"""The paper's claims, one test per row of ``repro.experiments.claims.CLAIMS``.

Each harness runs once per session, however many rows read it;
``tools/claims.py`` writes the same measured values to ``results/CLAIMS.md``.
"""

import functools

import pytest

from repro.experiments.claims import CLAIMS, HARNESSES, Side


@functools.cache
def measured(harness):
    return HARNESSES[harness]()


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.id)
def test_claim(claim):
    left, right, holds = claim.check(measured(claim.harness))
    right_name = claim.right.name if isinstance(claim.right, Side) else "constant"
    assert holds, f"{claim.left.name} = {left!r} {claim.relation} {right_name} = {right!r}"


def test_the_table_has_80_distinct_rows():
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS) == 80


def test_every_harness_is_a_distinct_call():
    calls = {(h.func, h.args, tuple(sorted(h.keywords.items()))) for h in HARNESSES.values()}
    assert len(calls) == len(HARNESSES) == 11


def test_every_row_reads_a_harness_and_every_harness_is_read():
    assert {claim.harness for claim in CLAIMS} == set(HARNESSES)
