"""Disable each refusal check of the trust chain in turn and see whether tier-1 notices.

    python3 tools/mutants.py

The checks are read from the functions named in ``CHECKED``: the broker's
shared paths, relay decision and four ``handle_*`` methods, its request
plan (``compile`` and the ``route`` lookup), its two expiring stores
(``SeenRequestIds.observe``, ``CorrelationStore.put`` and ``consume``),
configuration load, key loading, the SAML response POST decoder and both
request decoders with the size cap they share (``_cap``), the XML parser
with its five document readers and the required-child lookup (``_child``),
the trust topology's validation and pair check, and the mock service
providers' relying-party path (``accept``, ``_consume`` and both handlers)
with the mock authorities' ``authenticate``: the oracle of what a final
provider accepts.
In each:

- every ``if ...: raise`` gives one mutant per operand of an ``or`` (that
  operand never holds), or else one that makes it never fire and, for an
  ``and``, one more per operand (that operand always holds);
- every ``except`` that turns an error into a refusal lets the error through;
- every call made as a statement of its own, for the error it may raise or
  for what it drops, is not made;
- a replay guard whose instant is kept (``x = ....observe(...)``) reads the
  clock instead of guarding.

Each mutant runs in a temporary copy of ``src/`` and ``tests/``: first the
mutated module's own test file, then, if that passes, tier-1 without C11
(fifty sign-ons over HTTP) and without ``tests/test_perfbench_output.py``
(it runs the benchmark). A failing run means the mutant is KILLED; the suite
passing means SURVIVED: no test pins that check. The unmutated copy runs
first and must pass. The exit status is 0 when every mutant is killed.
Standard library only; each run stops at its first failure.
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
# Module -> {class name, or None for module-level functions: function names}.
CHECKED = {
    "broker": {
        "Broker": {"_open", "_close", "_registered_sp", "check_relayable", "handle_saml_sso",
                   "handle_wsfed_return", "handle_wsfed_signin", "handle_saml_acs"},
        "RequestPlan": {"compile", "route"},
        "SeenRequestIds": {"observe"},
        "CorrelationStore": {"put", "consume"},
    },
    "config": {None: {"config_from_dict"}},
    "signing": {None: {"load_key_pem"}},
    "bindings": {None: {"decode_saml_redirect", "decode_wsfed_signin", "decode_saml_response_post",
                        "_cap"}},
    "messages": {None: {"parse", "_parse_authn_request", "_parse_assertion", "_parse_response",
                        "_parse_rst", "_parse_rstr", "_child"}},
    "trust": {"TrustTopology": {"__init__"}, None: {"_require_pair"}},
    "mocks": {
        "_MockSpBase": {"accept", "_consume"},
        "MockSamlSp": {"handle_acs"},
        "MockWsfedSp": {"handle_return"},
        "MockAuthority": {"authenticate"},
    },
}
SUITE = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--deselect", "tests/test_acceptance.py::test_c11_concurrency",
         "--ignore", "tests/test_perfbench_output.py"]


def functions(tree: ast.Module, table: dict) -> list[ast.FunctionDef]:
    found = []
    for owner, names in table.items():
        body = tree.body if owner is None else next(
            n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == owner).body
        found += [n for n in body if isinstance(n, ast.FunctionDef) and n.name in names]
    return found


def mutants(source: str, table: dict) -> list[tuple[str, ast.AST, str]]:
    """(description, node to replace, replacement text), in source order."""
    found = []
    for function in functions(ast.parse(source), table):
        for node in ast.walk(function):
            where = f"{function.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise):
                test = node.test
                if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or):
                    found += [(f"{where} `{ast.unparse(operand)}` never holds", operand, "False")
                              for operand in test.values]
                    continue
                found.append((f"{where} `{ast.unparse(test)}` never holds", test, "False"))
                if isinstance(test, ast.BoolOp):
                    found += [(f"{where} `{ast.unparse(operand)}` always holds", operand, "True")
                              for operand in test.values]
            elif isinstance(node, ast.ExceptHandler) and isinstance(node.body[0], ast.Raise):
                found.append((f"{where} `except {ast.unparse(node.type)}` lets the error through",
                              node.body[0], "raise"))
            elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                found.append((f"{where} `{ast.unparse(node.value)}` is not called", node, "pass"))
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                  and isinstance(node.value.func, ast.Attribute)
                  and node.value.func.attr == "observe"):
                found.append((f"{where} `{ast.unparse(node.value)}` reads the clock instead",
                              node.value, "time.time()"))
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


def suite_passes(root: Path, first: str | None = None) -> bool:
    """The module's own test file, if any, then tier-1; False at the first failure."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    runs = [first, "tests"] if first and (root / first).exists() else ["tests"]
    for path in runs:
        done = subprocess.run([sys.executable, *SUITE, path], cwd=root, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if done.returncode != 0:
            return False
    return True


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="fedbridge-mutants-") as scratch:
        root = Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", root)
        if not suite_passes(root):
            print("the unmutated copy fails tier-1; no mutant can be judged")
            return 2
        total = survived = 0
        for module, table in CHECKED.items():
            path = root / "src" / "fedbridge" / f"{module}.py"
            source = path.read_text(encoding="utf-8")
            for description, node, text in mutants(source, table):
                path.write_text(replace(source, node, text), encoding="utf-8")
                killed = not suite_passes(root, f"tests/test_{module}.py")
                total += 1
                survived += not killed
                print(f"{'KILLED' if killed else 'SURVIVED':9} {module}.{description}",
                      flush=True)
            path.write_text(source, encoding="utf-8")
    print(f"{total - survived} of {total} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
