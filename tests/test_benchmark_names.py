"""The names the benchmark reaches by name must exist.

perfbench/tracer.py wraps fitlen's functions by name and
perfbench/worker.py calls some directly, so deleting or renaming one of
them breaks the benchmark without breaking any engine test.  The lists
are read from those files, not copied here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fitlen(layer):
    return importlib.import_module("fitlen." + layer)


def test_tracer_targets_resolve():
    tracer = _tracer()
    missing = []
    for layer, attr, _, _ in tracer.TARGETS:
        mod = _fitlen(layer)
        if "." in attr:
            owner, method = attr.split(".")
            # install() reads the method from the class's own __dict__
            ok = method in vars(getattr(mod, owner, object))
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append("%s.%s" % (layer, attr))
    cli = _fitlen("cli")
    missing += ["cli." + name for name in tracer.CLI_COMMANDS
                if not callable(getattr(cli, name, None))]
    assert missing == []


def test_names_install_rebinds_exist():
    assert callable(_fitlen("hall").fitting_length)
    assert callable(_fitlen("chain").build_chain)
    assert isinstance(vars(_fitlen("group").PermGroup)["chain"], property)


def test_worker_calls_resolve():
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "fitlen"
               for alias in node.names}
    called = {(node.value.id, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in modules}
    assert called, "worker.py no longer imports fitlen modules by name"
    missing = ["%s.%s" % name for name in sorted(called)
               if not callable(getattr(_fitlen(name[0]), name[1], None))]
    assert missing == []
