"""The five query settings and the forced sigma-profile faults that the
`verify crystal` goldens and mutation checks share.  A fault edits the
profile's epsilon, first, last and weight lists in place; the failure
golden is keyed by the faults' function names."""

import wallcrystal.cli as cli
import wallcrystal.zcrystal as zcrystal

SETTINGS = {
    "D2": ("--type", "D2", "--rank", "3", "--order", "3,2,1"),
    "C1": ("--type", "C1", "--rank", "3", "--order", "3,2,1"),
    "B1": ("--type", "B1", "--rank", "4", "--order", "2,4,3,1"),
    "A2odd": ("--type", "A2odd", "--rank", "4", "--order", "2,4,3,1"),
    "D1": ("--type", "D1", "--rank", "6", "--order", "6,5,4,3,2,1"),
}


def _patch_profile(monkeypatch, change):
    """Replace the sigma profile `_profile`, wherever it is bound, by one
    that change edits in place (epsilon, first, last and the weight
    lists); the element is its sorted (index, value) tuple."""
    real = zcrystal._profile

    def profile(seq, items):
        eps, first, last, w = (list(v) for v in real(seq, items))
        change(items, eps, first, last, w)
        return eps, first, last, w

    for module in (zcrystal, cli):
        if hasattr(module, "_profile"):
            monkeypatch.setattr(module, "_profile", profile)


def _total(items):
    return sum(v for _, v in items)


def _last_one_up(items, eps, first, last, w):
    last[0] += 1  # e_tilde at colour 1 lowers the wrong position


def _epsilon_one_up(items, eps, first, last, w):
    if _total(items):
        eps[0] += 1  # epsilon at colour 1 is one too large off 0


def _weight_one_up(items, eps, first, last, w):
    if _total(items):
        w[0] += 1  # the weight at colour 1 is one off, off 0
