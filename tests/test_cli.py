import subprocess
import sys
import time

import numpy as np
import pytest

from fitlen.cli import main
from fitlen.construct import expr_order, parse_expr

PKG_ARGS = [sys.executable, "-m", "fitlen"]


def run_cli(*args):
    proc = subprocess.run(PKG_ARGS + list(args), capture_output=True,
                          text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_build_summary():
    code, out, _ = run_cli("build", "W(C(2,1),W(C(3,1),C(5,1)))")
    assert code == 0
    assert "degree          30" in out
    assert "order           39813120" in out
    assert "2^15 * 3^5 * 5" in out
    assert "primes          2,3,5" in out
    assert "w               3" in out
    assert "FAIL" not in out


def test_build_direct():
    code, out, _ = run_cli("build", "D(C(2,1),C(3,1))", "--format", "kv")
    assert code == 0
    assert "order = 6" in out
    assert "w = 2" in out


def test_exponent_tower_over_budget_exits_cleanly():
    # a regular-action top of order 2^896 * 896 under another regular
    # wreath: the exact degree is an exponent tower, so the budget check
    # must give up on it long before the address-space cap is reached
    import resource

    def cap_memory():
        limit = 1500 * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    expr = "W(C(2,1),WR(C(2,1),WR(C(2,1),WR(C(2,1),WR(C(2,1),C(7,1))))))"
    proc = subprocess.run(PKG_ARGS + ["build", expr], capture_output=True,
                          text=True, timeout=30, preexec_fn=cap_memory)
    assert proc.returncode == 1
    assert "degree budget exceeded" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_degree_budget_error_names_the_all_natural_degree():
    code, out, err = run_cli("build", "WR(C(2,1),W(C(3,1),C(5,1)))",
                             "--max-degree", "20")
    assert code == 1
    assert out == ""
    assert err == ("fitlen: degree budget exceeded: expression needs degree "
                   "2430 > 20 (involves the regular action; all-natural "
                   "would need degree 30)\n")


def test_out_of_memory_exits_cleanly():
    # family 3.2b at ell = 3 (degree 3377) needs more than 1 GB for its
    # chain, so under a 500 MB cap numpy runs out of memory part-way
    import resource

    def cap_memory():
        limit = 500 * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    expr = "D(C(2,1),IT(W(C(3,1),C(5,1)),3))"
    proc = subprocess.run(PKG_ARGS + ["build", expr], capture_output=True,
                          text=True, timeout=60, preexec_fn=cap_memory)
    assert proc.returncode == 1
    assert "out of memory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_iterated_zero_is_usage_error():
    code, _, err = run_cli("build", "IT(C(2,1),0)")
    assert code == 1
    assert "l >= 1" in err


def test_parse_error_position_and_exit():
    code, _, err = run_cli("build", "W(C(2,1)")
    assert code == 1
    assert "position" in err


@pytest.mark.parametrize("leaf,message", [
    ("C(1000000000000000003,1)", "degree budget exceeded"),  # a prime
    ("C(1000000016000000063,1)", "is not prime"),  # 1000000007 * 1000000009
    ("C(%s,1)" % ("9" * 5000), "parse error at position 2"),
], ids=["prime", "composite", "5000-digit"])
def test_large_leaf_integers_exit_cleanly(leaf, message, capsys):
    # the leaf checks run before any budget check, so they must be fast
    proc = subprocess.run(PKG_ARGS + ["build", leaf], capture_output=True,
                          text=True, timeout=10)
    assert proc.returncode == 1
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    start = time.monotonic()
    assert main(["build", leaf]) == 1
    assert time.monotonic() - start < 1
    assert message in capsys.readouterr().err


def test_unknown_subcommand_usage():
    code, _, _ = run_cli("frobnicate")
    assert code == 1


def test_fitting():
    code, out, _ = run_cli("fitting", "D(C(2,1),C(3,1))", "--format", "kv")
    assert code == 0 and "h = 1" in out


def test_hall_value():
    code, out, _ = run_cli("hall", "W(C(2,1),W(C(3,1),C(5,1)))",
                           "--sigma", "2,3", "--format", "kv")
    assert code == 0
    assert "hall-order = %d" % (2 ** 15 * 3 ** 5) in out
    assert "h = 2" in out


def test_frak_value():
    code, out, _ = run_cli("frak", "W(C(2,1),W(C(3,1),C(5,1)))",
                           "--size", "2", "--format", "kv")
    assert code == 0 and "frak-h = 2" in out


def test_covers_listing():
    code, out, _ = run_cli("covers", "D(D(C(2,1),C(3,1)),C(5,1))",
                           "--format", "kv")
    assert code == 0
    assert "covers = " in out
    assert "{2,3 | 2,5 | 3,5}" in out


def test_check_small_group_passes():
    code, out, _ = run_cli("check", "C(2,3)", "--format", "kv")
    assert code == 0
    assert "overall = pass" in out
    assert "lambda-sweep = pass" in out


def test_check_determinism_byte_identical():
    args = ["check", "D(W(C(2,1),C(3,1)),C(5,1))", "--format", "kv"]
    _, out1, _ = run_cli(*args)
    _, out2, _ = run_cli(*args)
    assert out1 == out2


def test_check_family_33_triangle_slack_one():
    code, out, _ = run_cli("check", "W(W(C(2,1),C(3,1)),W(C(5,1),C(3,1)))",
                           "--format", "kv")
    assert code == 0
    lines = out.splitlines()
    idx = next(i for i, line in enumerate(lines)
               if line.endswith("= t=3 {2,3 | 2,5 | 3,5} theta=7"))
    prefix = lines[idx].split(".inputs")[0]
    block = [line for line in lines if line.startswith(prefix + ".")]
    assert any(line.endswith(".value = 5") for line in block)
    assert any(line.endswith(".bounded = 4") for line in block)
    assert any(line.endswith(".slack = 1") for line in block)


def test_example_group_mode_exit_zero():
    code, out, _ = run_cli("example", "3.2b", "--format", "kv")
    assert code == 0
    assert "mode = group" in out
    assert "MISMATCH" not in out


def test_example_32a_group_mode_values():
    code, out, _ = run_cli("example", "3.2a", "--format", "kv")
    assert code == 0
    assert "mode = group" in out
    assert "entry.1.quantity = h" in out
    assert "entry.1.claimed = 3" in out
    assert "entry.1.measured = 3" in out
    assert "bounds-overall = pass" in out


def test_example_arithmetic_downgrade():
    code, out, _ = run_cli("example", "3.2a", "--ell", "2", "--format", "kv")
    assert code == 0
    assert "mode = arithmetic-only" in out
    assert "not feasible at this scale" in out


def test_example_35_arith():
    code, out, _ = run_cli("example", "3.5-arith", "--format", "kv")
    assert code == 0
    assert "mode = arithmetic-only" in out
    assert "12*ell+5" in out and "12*ell+2" in out


def test_conjecture_s3_instance():
    code, out, _ = run_cli("conjecture", "W(C(3,1),C(2,1))",
                           "--H", "(1 4)(2 5)(3 6)",
                           "--K", "(1 2 3)",
                           "--L", "(1 4)(2 5)(3 6);(1 2 3)(4 5 6)",
                           "--format", "kv")
    assert code == 0
    assert "hypothesis-met" in out


def test_conjecture_with_all_three_factors_the_whole_group():
    # |G| = 9604: the product sets of G with itself stay within the oracle cap
    gens = ("(1 2 3 4 5 6 7);(1 8 15 22)(2 9 16 23)(3 10 17 24)"
            "(4 11 18 25)(5 12 19 26)(6 13 20 27)(7 14 21 28)")
    code, out, _ = run_cli("conjecture", "W(C(7,1),C(2,2))",
                           "--H", gens, "--K", gens, "--L", gens,
                           "--format", "kv")
    assert code == 0
    assert "hypothesis-met = True" in out
    assert "h-values = 2,2,2,2" in out


def test_example_claim_mismatch_exits_2(monkeypatch, capsys):
    from fitlen import cli

    claims = cli._family_claims
    monkeypatch.setattr(cli, "_family_claims",
                        lambda key, ell: dict(claims(key, ell), h=99))
    code = main(["example", "3.2b", "--format", "kv"])
    out = capsys.readouterr().out
    assert code == 2
    assert "entry.1.status = MISMATCH" in out
    assert "entry.2.status = ok" in out
    assert "bounds-overall = pass" in out


def test_parallel_flag_is_a_usage_error():
    code, out, err = run_cli("check", "D(D(C(2,1),C(3,1)),C(5,1))",
                             "--parallel", "2")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --parallel 2" in err


def test_timings_go_to_stderr_only():
    _, out, err = run_cli("fitting", "C(2,1)")
    assert "timings:" in err
    assert "timings" not in out


def test_main_in_process_usage_error():
    assert main(["build", "C(4,1)"]) == 1


@pytest.mark.parametrize("miswiring", ["lift", "embed"])
def test_failed_certificate_exits_2_with_empty_stdout(monkeypatch, capsys,
                                                      miswiring):
    # lift: top elements are lifted with block size m - 1, so the group
    # is not the one its expression describes; embed: every base
    # generator lands in block 0, which keeps the group and its order but
    # leaves the Sylow 2-list generating C2.  Both are invariant
    # breaches, not usage errors.
    from fitlen import construct

    if miswiring == "lift":
        lift = construct._lift_block_perm

        def miswired(block_perm, m):
            out = np.arange(block_perm.size * m)
            out[:block_perm.size * (m - 1)] = lift(block_perm, m - 1)
            return out

        monkeypatch.setattr(construct, "_lift_block_perm", miswired)
    else:
        # no direct product here, so _shift only embeds base generators
        shift = construct._shift
        monkeypatch.setattr(construct, "_shift",
                            lambda arr, offset, total: shift(arr, 0, total))
    code = main(["build", "W(C(2,1),C(3,1))", "--format", "kv"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("fitlen: W(C(2,1),C(3,1)): ")


def test_build_certifies_the_degree_900_group():
    # family 3.4 at ell=1: every Sylow and pair chain proves its order
    expr = "W(W(W(C(2,1),C(3,1)),W(C(5,1),C(2,1))),W(C(3,1),C(5,1)))"
    code, out, _ = run_cli("build", expr, "--format", "kv")
    assert code == 0
    kv = dict(line.split(" = ", 1) for line in out.splitlines())
    assert kv["degree"] == "900"
    assert kv["order"] == str(expr_order(parse_expr(expr)))
    rows = sorted({key.split(".")[1] for key in kv if key.startswith("entry.")})
    assert len(rows) == 6
    for i in rows:
        assert kv["entry.%s.status" % i] == "ok"
        assert kv["entry.%s.actual" % i] == kv["entry.%s.expected" % i]


@pytest.mark.parametrize("command", ["check", "covers"])
def test_oversized_t_max_is_clamped(command):
    # no cover has more than w + 1 members, so larger t are never tried
    expr = "D(C(2,1),C(3,1))"
    _, default, _ = run_cli(command, expr, "--format", "kv")
    start = time.monotonic()
    code, out, _ = run_cli(command, expr, "--t-max", "1000000000",
                           "--format", "kv")
    assert time.monotonic() - start < 2
    assert code == 0
    assert out == default


def test_expression_whitespace_keeps_the_document_parseable():
    code, out, _ = run_cli("fitting", "D(C(2,1),\nC(3, 1))", "--format", "kv")
    assert code == 0
    pairs = [line.split(" = ", 1) for line in out.splitlines()]
    assert all(len(pair) == 2 for pair in pairs), out
    assert dict(pairs)["expression"] == "D(C(2,1),C(3,1))"


@pytest.mark.parametrize("command,extra", [("check", []),
                                           ("frak", ["--size", "2"])])
def test_ell_is_an_example_only_flag(command, extra):
    code, out, err = run_cli(command, "W(C(2,1),W(C(3,1),C(5,1)))",
                             *extra, "--ell", "2")
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --ell 2" in err


def test_frak_needs_a_size():
    code, out, err = run_cli("frak", "D(C(2,1),C(3,1))")
    assert code == 1
    assert out == ""
    assert "--size" in err
