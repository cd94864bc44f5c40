"""Reachability probe: which functions in ``src/repro`` no entrypoint calls.

Runs every entrypoint below with a ``sys.setprofile`` recorder installed
in each Python process it starts (a generated ``sitecustomize`` on
``PYTHONPATH``: main thread, later threads, spawned and forked workers),
then prints the functions none of them entered, grouped by file. Dunder
methods and abstract methods (``@abstractmethod``, or a body that only
raises ``NotImplementedError``) are not findings. Not collected by pytest;
run it from the repo root:

    python tests/reachability.py
"""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
LEDGER = ["benchmarks/ledger/run.py", "--seed", "7", "--seconds", "1", "--scale", "smoke"]
ENTRYPOINTS = (
    [["examples/" + p.name, "3000"] for p in sorted((ROOT / "examples").glob("*.py"))]
    + [["-m", "repro.bench", "--figure", "all", "--scale", "smoke"]]
    + [[*LEDGER, "--workload", w, "--trace", t]
       for w in ("miss_uniform", "hot_zipf", "flash_rw", "sharded_rw") for t in "01"]
)  # fmt: skip

RECORDER = """\
import atexit, multiprocessing.process as mp, os, sys, threading
seen = set()
def hook(frame, event, arg):
    if event == "call":
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
def dump():
    sys.setprofile(None)
    with open(os.path.join(OUT, str(os.getpid())), "a") as f:
        f.writelines(f"{name}\\t{line}\\n" for name, line in list(seen))
boot = mp.BaseProcess._bootstrap
def bootstrap(self, *args, **kwargs):  # a forked worker leaves by os._exit
    try:
        return boot(self, *args, **kwargs)
    finally:
        dump()
mp.BaseProcess._bootstrap = bootstrap
atexit.register(dump)
threading.setprofile(hook)
sys.setprofile(hook)
"""


def functions() -> list[tuple[str, int, int, str]]:
    """``(file, first line, last line, name)`` of every finding candidate;
    the first line is the first decorator's, as in ``co_firstlineno``."""
    out = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            decorators = [ast.unparse(d) for d in node.decorator_list]
            body = [ast.unparse(s) for s in node.body if not isinstance(s, ast.Expr)]
            abstract = any("abstractmethod" in d for d in decorators) or body == [
                "raise NotImplementedError"
            ]
            if node.name.startswith("__") or abstract:
                continue
            first = min([d.lineno for d in node.decorator_list] + [node.lineno])
            out.append((str(path), first, node.end_lineno, node.name))
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "seen")
        out.mkdir()
        Path(tmp, "sitecustomize.py").write_text(f"OUT = {str(out)!r}\n" + RECORDER)
        path = os.pathsep.join([tmp, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        for argv in ENTRYPOINTS:
            print("running", " ".join(argv), file=sys.stderr)
            subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, check=True,
                           stdout=subprocess.DEVNULL)  # fmt: skip
        seen = {tuple(line.rsplit("\t", 1)) for f in out.iterdir()
                for line in f.read_text().splitlines()}  # fmt: skip
    seen = {(os.path.realpath(name), line) for name, line in seen}
    every = functions()
    dead = sorted(f for f in every if (f[0], str(f[1])) not in seen)
    lines, end = 0, ("", 0)
    for path, first, last, _ in dead:  # a nested function counts once
        if (path, first) > end:
            lines, end = lines + last - first + 1, (path, last)
    for path in sorted({f[0] for f in dead}):
        print(Path(path).relative_to(ROOT))
        print("".join(f"  {line:5d} {name}\n" for p, line, _, name in dead if p == path), end="")
    print(f"{len(every)} functions, {len(dead)} never called, {lines} lines")


if __name__ == "__main__":
    main()
