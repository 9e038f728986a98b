"""Byte-for-byte comparison with recorded --format kv documents.

Each file under tests/golden/ is the stdout of one CLI command.  Engine
changes must leave every printed invariant alone, so a difference here is
a bug unless the document itself was changed on purpose; only then
regenerate the file, with

    python -m fitlen <args> --format kv > tests/golden/<name>.kv
"""

import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
EX32A = "W(C(2,1),W(C(3,1),C(5,1)))"
W4 = "W(W(C(2,1),C(3,1)),W(C(5,1),C(7,1)))"
W7 = ("D(W(C(2,1),C(3,1)),D(W(C(5,1),C(7,1)),"
      "D(W(C(11,1),C(2,1)),D(C(13,1),C(17,1)))))")

CASES = {
    "build_w2w35": ("build", EX32A),
    "fitting_w2w35": ("fitting", EX32A),
    "check_w2w35": ("check", EX32A),
    "hall_w2w35_s23": ("hall", EX32A, "--sigma", "2,3"),
    "frak_w2w35_size2": ("frak", EX32A, "--size", "2"),
    "covers_w2w35": ("covers", EX32A),
    "example_3.3": ("example", "3.3"),
    # four primes, 14 proper Hall subgroups: the benchmark's check-wide-w4
    "check_w4": ("check", W4),
    # seven primes, beyond cover enumeration: the complement-shaped bounds
    "check_w7": ("check", W7),
    # the two arithmetic-only paths: a family beyond its group-level
    # scale, and the four-prime example that has no group at all
    "example_3.2a_ell2": ("example", "3.2a", "--ell", "2"),
    "example_3.5-arith": ("example", "3.5-arith"),
    # the only command that runs the oracle: README's trifactorization
    # instance, and a triple product whose hypothesis holds
    "conjecture_trifactor_w32": (
        "conjecture", "W(C(3,1),C(2,1))", "--H", "(1 4)(2 5)(3 6)",
        "--K", "(1 2 3)", "--L", "(1 4)(2 5)(3 6);(1 2 3)(4 5 6)"),
    "conjecture_triple_d120": (
        "conjecture", "D(W(C(2,1),C(3,1)),C(5,1))",
        "--n1", "(1 2);(3 4);(5 6)", "--n2", "(1 3 5)(2 4 6)",
        "--n3", "(7 8 9 10 11)"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kv_document_matches_golden(name):
    args = [sys.executable, "-m", "fitlen", *CASES[name], "--format", "kv"]
    proc = subprocess.run(args, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / (name + ".kv")).read_bytes()
