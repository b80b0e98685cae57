"""Disable each refusal check of the broker in turn and see whether tier-1 notices.

    python3 tools/mutants.py

The checks are read from ``src/fedbridge/broker.py``: in ``Broker._open``,
``_close``, ``_registered_sp``, ``check_relayable`` and the four
``handle_*`` methods, every ``if ...: raise`` (one mutant per operand of an
``or``; the subject check is one), every ``except`` that turns an error into
a refusal, and every call made only for the error it may raise: the two
replay guards, the ``verify_issuer`` call in ``check_relayable``, and the
two ``check_relayable`` call sites in the return handlers. Each mutant makes
its check never fire, in a temporary copy of ``src/`` and ``tests/``, and
runs tier-1 there without C11 (fifty sign-ons over HTTP) and without
``tests/test_perfbench_output.py`` (it runs the benchmark). The suite
failing means the mutant is KILLED; the suite passing means SURVIVED: no
test pins that check. The unmutated copy runs first and must pass. The exit
status is 0 when every mutant is killed. Standard library only. Each mutant
costs one such tier-1 run, which stops at the first failure: 18 mutants
took 72 s on a 2-vCPU VM.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BROKER = Path("src/fedbridge/broker.py")
CHECKED = {"_open", "_close", "_registered_sp", "check_relayable", "handle_saml_sso",
           "handle_wsfed_return", "handle_wsfed_signin", "handle_saml_acs"}
SUITE = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests",
         "--deselect", "tests/test_acceptance.py::test_c11_concurrency",
         "--ignore", "tests/test_perfbench_output.py"]


def mutants(source: str) -> list[tuple[str, ast.AST, str]]:
    """(description, node to replace, replacement text), in source order."""
    tree = ast.parse(source)
    broker = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Broker")
    found = []
    for method in broker.body:
        if not isinstance(method, ast.FunctionDef) or method.name not in CHECKED:
            continue
        for node in ast.walk(method):
            where = f"{method.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise):
                test = node.test
                operands = (test.values if isinstance(test, ast.BoolOp)
                            and isinstance(test.op, ast.Or) else [test])
                found += [(f"{where} `{ast.unparse(operand)}` never holds", operand, "False")
                          for operand in operands]
            elif isinstance(node, ast.ExceptHandler) and isinstance(node.body[0], ast.Raise):
                found.append((f"{where} `except {ast.unparse(node.type)}` lets the error through",
                              node.body[0], "raise"))
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                found.append((f"{where} `{ast.unparse(node.value)}` is not called", node, "pass"))
    return sorted(found, key=lambda m: (m[1].lineno, m[1].col_offset))


def replace(source: str, node: ast.AST, text: str) -> str:
    """The source with the node's own text replaced (offsets are UTF-8 bytes)."""
    data = source.encode("utf-8")
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    start = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return (data[:start] + text.encode("utf-8") + data[end:]).decode("utf-8")


def suite_passes(root: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *SUITE], cwd=root, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    source = (ROOT / BROKER).read_text(encoding="utf-8")
    found = mutants(source)
    with tempfile.TemporaryDirectory(prefix="fedbridge-mutants-") as scratch:
        root = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", root)
        if not suite_passes(root):
            print("the unmutated copy fails tier-1; no mutant can be judged")
            return 2
        survived = 0
        for description, node, text in found:
            (root / BROKER).write_text(replace(source, node, text), encoding="utf-8")
            killed = not suite_passes(root)
            survived += not killed
            print(f"{'KILLED' if killed else 'SURVIVED':9} {description}", flush=True)
    print(f"{len(found) - survived} of {len(found)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
