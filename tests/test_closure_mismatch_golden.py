"""A golden of what `verify closure` prints when the closure and the
walls disagree.

The two agree on every setting the tool checks, so the report's
`closure only:` and `walls only:` lines never run there.  This test
forces each by wrapping the closure `cli` calls: dropping one certified
vector per colour (the smallest, as a tuple) leaves a form that only the
walls give, printed with its first witness, and adding one vector per
colour that no wall gives (5 x at single index 1) leaves a form that
only the closure gives.  The exit code and a sha256 of the whole stdout
of each are pinned."""

import hashlib
import io

import pytest

import wallcrystal.cli as cli

SETTINGS = [
    ("D2", 3, "3,2,1", 6),
    ("C1", 3, "1,2,3", 5),
]

MISMATCH_GOLDEN = {
    ("D2 3 3,2,1", "dropped"):
        "73c0ad4ff1e0e404c5e48f700beb706752143868b2600d6d24f514be76f1442f",
    ("D2 3 3,2,1", "extra"):
        "0bef9ebd824f35e9bd07a68ae86c80867aca86d9b5b9d7446ddd342b9ffbed31",
    ("C1 3 1,2,3", "dropped"):
        "51d92117680c961fead00b6660f5180f27f07e5f556b3032eaf9a9caf781d641",
    ("C1 3 1,2,3", "extra"):
        "cc047433f951ddc4fa57a53709d4bde351225784637ba79dbdc39e486caa7e42",
}


def _dropped(vectors):
    smallest = min(vectors)
    return [v for v in vectors if v != smallest]


def _extra(vectors):
    width = len(vectors[0])
    return vectors + [(0, 5) + (0,) * (width - 2)]


@pytest.mark.parametrize("force", [_dropped, _extra],
                         ids=["dropped", "extra"])
@pytest.mark.parametrize("family,rank,order,periods", SETTINGS,
                         ids=[f"{f}{n}" for f, n, _, _ in SETTINGS])
def test_mismatch_report_golden(family, rank, order, periods, force,
                                monkeypatch):
    closure = cli.closure

    def forced(*args, **kwargs):
        vectors, frontier = closure(*args, **kwargs)
        return force(vectors), frontier

    monkeypatch.setattr(cli, "closure", forced)
    out = io.StringIO()
    code = cli.main(["verify", "closure", "--type", family, "--rank",
                     str(rank), "--order", order, "--periods", str(periods)],
                    out=out)
    text = out.getvalue()
    kind = force.__name__.strip("_")
    assert code == 2
    assert text.count("MISMATCH") == rank
    assert text.count("walls only:" if kind == "dropped"
                      else "closure only:") == rank
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == MISMATCH_GOLDEN[(f"{family} {rank} {order}", kind)], text
