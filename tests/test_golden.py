"""Byte-for-byte comparison with recorded CLI documents.

Each file under tests/golden/ is the stdout of one CLI command, named
<case>.<format> after the --format it was printed in.  Engine changes
must leave every printed invariant alone, so a difference here is a bug
unless the document itself was changed on purpose; only then regenerate
the file, with

    python -m fitlen <args> --format <format> > tests/golden/<case>.<format>
"""

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
EX32A = "W(C(2,1),W(C(3,1),C(5,1)))"
W4 = "W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))"
W5 = "W(W(C(2,1),C(3,1)),D(C(5,1),D(C(7,1),C(11,1))))"
W7 = ("D(W(C(2,1),C(3,1)),D(W(C(5,1),C(7,1)),"
      "D(W(C(11,1),C(2,1)),D(C(13,1),C(17,1)))))")

# case -> (format, *args); a "_<format>" suffix on a case name is not
# part of its golden's file name.  "table" is the default layout.
CASES = {
    "build_w2w35": ("kv", "build", EX32A),
    "fitting_w2w35": ("kv", "fitting", EX32A),
    "check_w2w35": ("kv", "check", EX32A),
    "hall_w2w35_s23": ("kv", "hall", EX32A, "--sigma", "2,3"),
    "frak_w2w35_size2": ("kv", "frak", EX32A, "--size", "2"),
    "covers_w2w35": ("kv", "covers", EX32A),
    "example_3.3": ("kv", "example", "3.3"),
    # four primes, 14 proper Hall subgroups: the benchmark's check-wide-w4
    "check_w4": ("kv", "check", W4),
    # five primes: the w > 4 size step with every cover enumerated
    "check_w5": ("kv", "check", W5),
    # seven primes, beyond cover enumeration: the complement-shaped bounds
    "check_w7": ("kv", "check", W7),
    # family 3.2a at ell = 2 (h-deep-450): degree 450, h = 5
    "fitting_h450": ("kv", "fitting", "W(C(2,1),IT(W(C(3,1),C(5,1)),2))"),
    # the two arithmetic-only paths: a family beyond its group-level
    # scale, and the four-prime example that has no group at all
    "example_3.2a_ell2": ("kv", "example", "3.2a", "--ell", "2"),
    "example_3.5-arith": ("kv", "example", "3.5-arith"),
    # the only command that runs the oracle: README's trifactorization
    # instance, and a triple product whose hypothesis holds
    "conjecture_trifactor_w32": (
        "kv", "conjecture", "W(C(3,1),C(2,1))", "--H", "(1 4)(2 5)(3 6)",
        "--K", "(1 2 3)", "--L", "(1 4)(2 5)(3 6);(1 2 3)(4 5 6)"),
    "conjecture_triple_d120": (
        "kv", "conjecture", "D(W(C(2,1),C(3,1)),C(5,1))",
        "--n1", "(1 2);(3 4);(5 6)", "--n2", "(1 3 5)(2 4 6)",
        "--n3", "(7 8 9 10 11)"),
    # the default layout: pairs, the aligned bound table, and notes
    "check_w2w35_table": ("table", "check", EX32A),
    "example_3.5-arith_table": ("table", "example", "3.5-arith"),
}


def _assert_matches_golden(name):
    fmt, *argv = CASES[name]
    args = [sys.executable, "-m", "fitlen", *argv, "--format", fmt]
    proc = subprocess.run(args, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden = name.removesuffix("_" + fmt) + "." + fmt
    assert proc.stdout == (GOLDEN / golden).read_bytes()


def _cases(fmt):
    return sorted(name for name, case in CASES.items() if case[0] == fmt)


@pytest.mark.parametrize("name", _cases("kv"))
def test_kv_document_matches_golden(name):
    _assert_matches_golden(name)


@pytest.mark.parametrize("name", _cases("table"))
def test_table_document_matches_golden(name):
    _assert_matches_golden(name)
