"""The checks in ``tools/``: ``same_outputs.py``, the byte-identity check
between checkouts, ``uncovered.py``, the statements a test run misses, and
``hostile_inputs.py``, the exit-code contract under mutated configs."""

import re
import subprocess
import sys

from helpers import CONFIGS, REPO


def test_a_checkout_writes_the_same_outputs_as_itself():
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "same_outputs.py"), str(REPO),
         str(REPO)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.fullmatch(r"(\d+) of \1 runs identical\n", done.stdout)


def test_uncovered_lists_missed_statements_and_counts_per_module():
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "uncovered.py"), "-q",
         "-p", "no:cacheprovider", "tests/test_rng.py"],
        cwd=REPO, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    modules = sorted(p.name for p in (REPO / "src" / "transferopt").glob("*.py"))
    counts = re.findall(r"^src/transferopt/(\w+\.py): (\d+) of (\d+) "
                        r"statements missed$", done.stdout, re.M)
    assert [name for name, _, _ in counts] == modules
    missed = {name: int(m) for name, m, _ in counts}
    assert missed["rng.py"] == 0
    assert all(0 <= int(m) <= int(n) for _, m, n in counts)
    listed = re.findall(r"^src/transferopt/(\w+\.py):\d+: \S", done.stdout,
                        re.M)
    assert {name: listed.count(name) for name in modules} == missed


def test_hostile_inputs_keep_the_exit_code_contract():
    # one bundled config per command, chosen by name alone
    picked = {}
    for path in sorted(CONFIGS.glob("*.json")):
        picked.setdefault(path.stem.split("_")[0], path.name)
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "hostile_inputs.py"),
         "--config", *picked.values()],
        capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    match = re.fullmatch(r"runs per exit code: 0: (\d+), 2: (\d+), "
                         r"3: (\d+), 4: (\d+)\n(\d+) of \5 runs kept the "
                         r"contract\n", done.stdout)
    assert match, done.stdout
    *per_code, runs = map(int, match.groups())
    assert sum(per_code) == runs
