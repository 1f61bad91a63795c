"""Golden CLI outputs: the exit code, stdout and stderr of a fixed list of
`sutor` commands, run through `cli.main` from the repository root with
SUTOR_COLOR=0 and repo-relative paths.

    python tests/golden_cli.py --write tests/golden_cli.json   # record
    python tests/golden_cli.py                                  # replay

Both import `sutor` from PYTHONPATH, so recording from the root of a
checkout of an earlier commit with PYTHONPATH=src gives the outputs that
commit printed.  tests/test_golden_cli.py replays the file under pytest; this
script replays it without pytest (exit 1 and one line per differing command).
"""
import contextlib
import io
import json
import os
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")


def commands():
    """compute, compute --json, check --eval --aug, check --disk 10 and
    polytope --diff on every file in fixtures/, then batch on the manifest."""
    argvs = []
    for name in sorted(os.listdir("fixtures")):
        path = f"fixtures/{name}"
        argvs += [["compute", path], ["compute", "--json", path],
                  ["check", "--eval", "--aug", path], ["check", "--disk", "10", path],
                  ["polytope", "--diff", path]]
    return argvs + [["batch", "fixtures/manifest.json"]]


def run(argv):
    """The record of one command: its argv, exit code, stdout and stderr."""
    from sutor.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(args):
    os.environ["SUTOR_COLOR"] = "0"
    if args[:1] == ["--write"]:
        records = [run(argv) for argv in commands()]
        Path(args[1]).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
        return 0
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    bad = [r["argv"] for r in records if run(r["argv"]) != r]
    if [r["argv"] for r in records] != commands():
        bad.append("the recorded commands are not the current command list")
    for b in bad:
        print(f"differs: {b}")
    print(f"{len(records) - len(bad)}/{len(records)} golden commands replayed identically")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
