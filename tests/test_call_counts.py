"""The compiled loops are called once per stack, never once per row.

``loops.call`` is counted by function name, with the evaluation core
``adversary._price``, while small commands run through ``cli.main``: a ``run``
in each fee regime (T = 2,000, 20 replicates, one kernel block each) and a
``sweep`` of 100 fees in each regime, which evaluates its fees in three chunks.
Each ``_price`` call makes one gap scan, one optimum (the offline pass's walk,
or the DP), one walk per online rule (its replicates fit one block here) and
one fold per priced schedule stack: the optimum's, then each rule's. A loop
that slips back to one call per row or per slot shows as hundreds more calls.
"""

from collections import Counter

import pytest

from planswitch import bench, cli, loops

RUN = ["run", "--slots", "2000", "--mc-runs", "20"]
SWEEP = ["sweep", "--slots", "36", "--mc-runs", "20", "--from", "1", "--to", "100"]


@pytest.mark.parametrize("argv, want", [
    ([*RUN, "--algorithms", "ofa,gchase,gchase_r,cchase"],
     {"_price": 1, "scan": 1, "walk": 3, "sp": 3, "csp": 1}),
    # ofa and dp are one optimum, priced once
    ([*RUN, "--fee-regime", "linear", "--algorithms", "ofa,dp,gchase,gchase_r"],
     {"_price": 1, "scan": 1, "dp": 1, "walk": 2, "dsp": 3}),
    (SWEEP, {"_price": 3, "scan": 3, "walk": 9, "sp": 9}),
    ([*SWEEP, "--fee-regime", "linear"], {"_price": 3, "scan": 3, "dp": 3, "walk": 6, "dsp": 9}),
], ids=["run-constant", "run-linear", "sweep-constant", "sweep-linear"])
def test_one_loop_call_per_stack(monkeypatch, capsys, argv, want):
    counts, call, price = Counter(), loops.call, bench._price

    def counted_call(name, *args):
        counts[name] += 1
        return call(name, *args)

    def counted_price(*args, **kwargs):
        counts["_price"] += 1
        return price(*args, **kwargs)

    monkeypatch.setattr(loops, "call", counted_call)
    monkeypatch.setattr(bench, "_price", counted_price)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert dict(counts) == want
