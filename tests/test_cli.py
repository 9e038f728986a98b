import subprocess
import sys

from fitlen.cli import main

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


def test_iterated_zero_is_usage_error():
    code, _, err = run_cli("build", "IT(C(2,1),0)")
    assert code == 1
    assert "l >= 1" in err


def test_parse_error_position_and_exit():
    code, _, err = run_cli("build", "W(C(2,1)")
    assert code == 1
    assert "position" in err


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
