"""Pinned bytes: the output of a few CLI commands, held to recorded digests.

Each command's stdout and stderr are compared by sha256 against the digests
of the bytes the program wrote when they were recorded, so any change to a
report, a CSV or a warning line fails here, not only where a test reads the
changed figure. The commands cover the sweep workload in both fee regimes,
a sweep in each regime whose 600 replicates of 120 months take two kernel
blocks per fee point, so each point is evaluated on its own and its draws
are made again, two decreasing-fee runs under the expiry guard, each in one block: 100
replicates of 600 months and 20 replicates of 2,000 months (their ids name
the paths they took when the guard had a lockstep and a per-row walk),
one constant-fee run of every constant-regime algorithm, whose report
holds the offline, deterministic and continuous schedules, one
decreasing-fee run of every linear-regime algorithm against the all-fixed
benchmark in the transition-only fee mode, whose report holds a ``dp``
entry, one constant-fee run with a fixed underusage rate, and every
verification suite at one seed.

A change that moves these bytes on purpose records the new digests here and
names the change in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys

import pytest

import planswitch

SWEEP = ("sweep", "--slots", "36", "--seed", "1", "--from", "1", "--to", "100", "--step", "1",
         "--algorithms", "ofa,gchase,gchase_r", "--mc-runs", "100")
BLOCKED_SWEEP = ("sweep", "--slots", "120", "--seed", "1", "--from", "1", "--to", "20", "--step", "1",
                 "--algorithms", "ofa,gchase,gchase_r", "--mc-runs", "600")
LINEAR_RUN = ("run", "--fee-regime", "linear", "--alpha", "10", "--algorithms", "ofa,gchase,gchase_r",
              "--seed", "1")
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# argv after ``planswitch``, then the sha256 of stdout and of stderr.
PINNED = [
    (SWEEP + ("--fee-regime", "constant"),
     "82d25954fec83cb1f1dfc504d48ac253b59a46094b11eb94c27de428d3d20268", EMPTY),
    (SWEEP + ("--fee-regime", "linear", "--contract-len", "12"),
     "71e66612304cd08f5166753f7d39679f91deb05f74ee5284dded72408064d1fc",
     "88a9037cda12527b1efc5bc187eb3155225956e97a558667884a7c2468189795"),
    (BLOCKED_SWEEP + ("--fee-regime", "constant"),
     "b098db7fcf999889908ee804361114e6a6ef9b821c582430f01aa5c1f5cb1b21", EMPTY),
    (BLOCKED_SWEEP + ("--fee-regime", "linear", "--contract-len", "12"),
     "2354cdb6c14e27f23d59a83fd3985cf90b741daa588f0b48456c95b5188fe6b4",
     "2742775a0e1268f520d47a51da570facbd19411983411490bad4f6eb76f3ceda"),
    (LINEAR_RUN + ("--slots", "600", "--contract-len", "12", "--mc-runs", "100"),
     "793f975143100a33a2d17a50a036a0526506f37e13d8adb2ad2526481281618d",
     "8bbb31b964e53c44fa16b4795511bb4cb7d94db618e8ac371363e417035e0867"),
    (LINEAR_RUN + ("--slots", "2000", "--contract-len", "24", "--mc-runs", "20"),
     "b0f044ce70a001e28e255c3a054b6a195583c627b786af72a4636ee42ff9c67c",
     "801387eaf71713980ef887393737698378a63cd93c87ea51262a2d707670f872"),
    (("run", "--slots", "2000", "--fee-regime", "constant", "--beta", "100",
      "--algorithms", "ofa,gchase,gchase_r,cchase", "--mc-runs", "20", "--seed", "1"),
     "560aa3902e9f55a975519820ab8be71fe22f720a36638d841f162daaf85412b8", EMPTY),
    (("run", "--fee-regime", "linear", "--algorithms", "ofa,dp,gchase,gchase_r", "--benchmark", "all-fixed",
      "--fee-mode", "transition-only"),
     "b4e77a0df5d23affb40f3022122b10d7a734454326c3eb92bf8d3b33b03188ab", EMPTY),
    (("run", "--h-rate", "0.02"),
     "8d3ae1d2979035824e2b50bc91f588846c15d0a18bed27f6e71dc50d7ecd4891", EMPTY),
    (("verify", "all", "--seed", "1"),
     "69c8d31022692040c0761f6a4f664376d2bd97f273b535d7f0e9a6636d00f89c", EMPTY),
]


@pytest.mark.parametrize("argv, stdout_sha, stderr_sha", PINNED,
                         ids=["sweep-constant", "sweep-linear", "sweep-blocked-constant",
                              "sweep-blocked-linear", "run-lockstep", "run-walk", "run-constant",
                              "run-linear-all-fixed", "run-h-rate", "verify-all"])
def test_output_bytes_are_pinned(argv, stdout_sha, stderr_sha):
    src = os.path.dirname(os.path.dirname(planswitch.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-m", "planswitch.cli", *argv], capture_output=True, env=env,
                         timeout=120)
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    assert hashlib.sha256(out.stdout).hexdigest() == stdout_sha
    assert hashlib.sha256(out.stderr).hexdigest() == stderr_sha
