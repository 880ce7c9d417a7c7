"""Apply each checked-in mutant to a temporary copy of the repo and see whether its tests kill it.

Run from anywhere, with the Python that runs the tests::

    python3 mutants/run.py                 # every mutant in mutants.json
    python3 mutants/run.py tr-period-is-z  # only the named ones

Each entry of ``mutants.json`` names a file, an exact text that occurs once in it,
the text that replaces it, what that breaks, the test files to run, the test
expected to kill it and, for a known survivor, ``"survives"`` with the note that
explains it. A mutant runs ``pytest -x -q`` on its test files in a fresh copy. The runner prints one
line per mutant, killed or survived with the first failing test id, and exits 1
when an outcome differs from the one recorded.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "perfbench_out", "*.egg-info")


def run(mutant, work):
    """Killed or survived, and the first failing test id, for one mutant in a fresh copy under ``work``."""
    tree = Path(work) / mutant["id"]
    shutil.copytree(ROOT, tree, ignore=SKIP)
    target = tree / mutant["file"]
    text = target.read_text()
    if text.count(mutant["old"]) != 1:
        raise SystemExit("%s: its old text does not occur exactly once in %s" % (mutant["id"], mutant["file"]))
    target.write_text(text.replace(mutant["old"], mutant["new"]))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *mutant["tests"]],
        cwd=tree, env=env, capture_output=True, text=True, check=False,
    )
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    if proc.returncode not in (0, 1):
        raise SystemExit("%s: pytest exited %d\n%s" % (mutant["id"], proc.returncode, proc.stdout[-2000:]))
    return ("killed", failed.group(1) if failed else "?") if proc.returncode else ("survived", None)


def main(argv):
    mutants = json.loads(MUTANTS.read_text())
    names = set(argv)
    unknown = names - {m["id"] for m in mutants}
    if unknown:
        raise SystemExit("no such mutant: %s" % ", ".join(sorted(unknown)))
    unexpected = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as work:
        for mutant in mutants:
            if names and mutant["id"] not in names:
                continue
            outcome, by = run(mutant, work)
            expected = "survived" if "survives" in mutant else "killed"
            note = "" if outcome == expected else "  UNEXPECTED, recorded as %s" % expected
            if outcome == "killed" and by != mutant["killed_by"]:
                note += "  (recorded killer %s)" % mutant["killed_by"]
            if outcome == "survived" and "survives" in mutant:
                note += "  (known: %s)" % mutant["survives"]
            print("%-32s %-8s %s%s" % (mutant["id"], outcome, by or "-", note), flush=True)
            unexpected += outcome != expected
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
