"""The paper's claims, one test per row of ``repro.experiments.claims.CLAIMS``.

Each harness runs once per session, however many rows read it;
``tools/claims.py`` writes the same measured values to ``results/CLAIMS.md``.
The rows of ``XFAIL`` run as strict xfails: each fails until the reproduction
agrees with the paper there, and then the test says so.
"""

import functools

import pytest

from repro.experiments.claims import CLAIMS, HARNESSES, XFAIL, Side


@functools.cache
def measured(harness):
    return HARNESSES[harness]()


def expected(claim):
    """``claim`` as a test parameter, marked strictly xfail if it is in ``XFAIL``."""
    if claim.id not in XFAIL:
        return pytest.param(claim, id=claim.id)
    reason = f"{claim.left.name} measured {XFAIL[claim.id]:g}"
    return pytest.param(claim, id=claim.id, marks=pytest.mark.xfail(strict=True, reason=reason))


@pytest.mark.parametrize("claim", [expected(claim) for claim in CLAIMS])
def test_claim(claim):
    left, right, holds = claim.check(measured(claim.harness))
    right_name = claim.right.name if isinstance(claim.right, Side) else "constant"
    assert holds, f"{claim.left.name} = {left!r} {claim.relation} {right_name} = {right!r}"


def test_the_table_has_63_distinct_rows():
    assert len({claim.id for claim in CLAIMS}) == len(CLAIMS) == 63


def test_every_xfail_names_a_row():
    assert set(XFAIL) <= {claim.id for claim in CLAIMS}


def test_no_row_compares_with_zero():
    # A ratio or a throughput compared with 0 cannot fail, so it shows nothing.
    assert [claim.id for claim in CLAIMS if claim.right == 0] == []


def test_every_harness_is_a_distinct_call():
    calls = {(h.func, h.args, tuple(sorted(h.keywords.items()))) for h in HARNESSES.values()}
    assert len(calls) == len(HARNESSES) == 11


def test_every_row_reads_a_harness_and_every_harness_is_read():
    assert {claim.harness for claim in CLAIMS} == set(HARNESSES)
