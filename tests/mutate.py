"""Mutation audit of the package against tier-1.

    python tests/mutate.py [MODULE ...]

Every site of four operators in src/newtonmaps/*.py (or in the named
modules) becomes one mutant: a comparison flipped, an integer constant
raised by 1, `and` and `or` swapped, or a `not` dropped.  Each mutant
runs tier-1 with -x in a temporary copy of src/, tests/ and fixtures/,
so the checkout is never edited, under a cap on each process's memory
and under a wall of three times the unmutated run's seconds, after
which the run's whole process group is killed (tier-1 starts process
pools).  One mutant runs per CPU, and each prints one JSON line:

    killed       tier-1 failed, or a process passed the memory cap
    timeout      tier-1 hit the wall, which counts as killed
    equivalent   tier-1 passed, and EQUIVALENT lists the mutant
    survived     tier-1 passed, and nothing says why it may

The run exits 1 if a mutant survived, and 2 if tier-1 fails unmutated.
A mutant that survives is either a missing test or code that cannot
matter (DeMillo, Lipton and Sayward, "Hints on test data selection",
IEEE Computer 11(4), 1978): add the test or delete the code, and list
a mutant as equivalent only when no input can tell it from the source.
"""

from __future__ import annotations

import ast
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, as_completed
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "newtonmaps"
MEMORY_BYTES = 512 << 20  # address space of each process of a run
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]

_FLIP = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
         ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
_SYMBOL = {ast.Lt: "<", ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=",
           ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
           ast.In: "in", ast.NotIn: "not in", ast.And: "and", ast.Or: "or"}

# Mutants that no input can tell from the source, keyed by module, the
# stripped source line and the operator; nth counts the module's earlier
# sites of that operator on a line of that text.
EQUIVALENT = {
    ("canon", "MAX_DARTS = 256", "256 -> 257", 0):
        "dart counts are even, so no map has 257 darts",
    ("canon", "_require_text_width(max(self.trace, default=-1) + 1)", "1 -> 2", 0):
        "an empty trace passes the width check at -1 + 1 and at -2 + 1 alike",
    ("embedded_map", "return (2 - euler_characteristic(m)) // 2", "2 -> 3", 0):
        "a valid map's characteristic is even",
    ("newton", "@lru_cache(maxsize=1024)", "1024 -> 1025", 0):
        "the cache size changes only speed",
    ("enumeration", "rotations = [[tuple(n for _, n in sorted(zip(c, c[1:] + c[:1]))) "
     "for c in cs]", "1 -> 2", 1):
        "zip stops at the shorter list, c[1:] + c[:1] or c[1:] + c[:2]",
}


class Site(NamedTuple):
    module: str
    line: int
    source: str    # the stripped source line
    operator: str  # e.g. "< -> >=", "1 -> 2", "and -> or", "drop not"
    nth: int       # earlier sites of this operator on a line of this text
    index: int     # position in the module's walk order


def _walk(tree: ast.AST):
    """Each site's node, operator and comparison index, in walk order."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                yield node, f"{_SYMBOL[type(op)]} -> {_SYMBOL[_FLIP[type(op)]]}", i
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, f"{node.value} -> {node.value + 1}", None
        elif isinstance(node, ast.BoolOp):
            other = ast.Or if isinstance(node.op, ast.And) else ast.And
            yield node, f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[other]}", None
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, "drop not", None


def _parse(module: str) -> tuple[str, ast.Module]:
    text = (PACKAGE / f"{module}.py").read_text()
    return text, ast.parse(text)


def sites(module: str) -> list[Site]:
    text, tree = _parse(module)
    lines = text.splitlines()
    found = sorted((node.lineno, node.col_offset, index, operator)
                   for index, (node, operator, _) in enumerate(_walk(tree)))
    out, seen = [], {}
    for line, _, index, operator in found:
        source = lines[line - 1].strip()
        nth = seen.get((source, operator), 0)
        seen[source, operator] = nth + 1
        out.append(Site(module, line, source, operator, nth, index))
    return out


def mutant_source(site: Site) -> str:
    """The module's source with this one site mutated."""
    _, tree = _parse(site.module)
    node, _, i = list(_walk(tree))[site.index]
    if isinstance(node, ast.Compare):
        node.ops[i] = _FLIP[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value += 1
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    else:  # drop not: the operand takes the UnaryOp's place in its parent
        for parent in ast.walk(tree):
            for name, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, name, node.operand)
                elif isinstance(value, list) and node in value:
                    value[value.index(node)] = node.operand
    return ast.unparse(tree) + "\n"


def modules() -> list[str]:
    return sorted(p.stem for p in PACKAGE.glob("*.py"))


def _tier1(mutant: Site | None, wall: float | None) -> tuple[str, float]:
    """Runs tier-1 in a fresh copy, with mutant's module replaced, for at
    most wall seconds (no limit if None)."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        # test_mutate.py reads the package's source text, which every
        # mutant changes, so it has no place in a mutant's run
        for part in ("src", "tests", "fixtures"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=shutil.ignore_patterns(
                "__pycache__", "test_mutate.py"))
        if mutant is not None:
            Path(tmp, "src", "newtonmaps", f"{mutant.module}.py").write_text(
                mutant_source(mutant))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")),
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.Popen(TIER1, cwd=tmp, env=env, start_new_session=True,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=wall)
            status = "survived" if code == 0 else "killed"
        except subprocess.TimeoutExpired:
            status = "timeout"
        finally:  # a pool's workers may outlive the run, or hang with it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    return status, round(time.monotonic() - start, 1)


def _key(site: Site) -> tuple:
    return site.module, site.source, site.operator, site.nth


def main(argv: list[str]) -> int:
    names = argv or modules()
    unknown = sorted(set(names) - set(modules()))
    if unknown:
        print(f"no module {unknown[0]!r} in {PACKAGE}", file=sys.stderr)
        return 2
    # every run inherits the cap, so a mutant that allocates without end
    # fails, and is killed, instead of exhausting the machine's memory
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, hard))
    status, seconds = _tier1(None, None)
    if status != "survived":
        print("tier-1 fails on the unmutated package", file=sys.stderr)
        return 2
    wall = 3 * seconds
    print(f"unmutated tier-1: {seconds} s; each mutant's wall: {wall:.1f} s",
          file=sys.stderr, flush=True)
    todo = [s for name in names for s in sites(name)]
    tally = Counter()
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        futures = {pool.submit(_tier1, s, wall): s for s in todo}
        for future in as_completed(futures):
            site, (status, seconds) = futures[future], future.result()
            if _key(site) in EQUIVALENT:
                if status == "survived":
                    status = "equivalent"
                else:
                    print(f"listed as equivalent, but {status}: {site}",
                          file=sys.stderr)
            tally[status] += 1
            print(json.dumps({"module": site.module, "line": site.line,
                              "source": site.source, "operator": site.operator,
                              "nth": site.nth, "status": status,
                              "seconds": seconds}), flush=True)
    print(f"{len(todo)} mutants: " + ", ".join(
        f"{tally[k]} {k}" for k in sorted(tally)), file=sys.stderr)
    return 1 if tally["survived"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
