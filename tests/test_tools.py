"""``tools/same_outputs.py``, the byte-identity check between checkouts."""

import re
import subprocess
import sys

from helpers import REPO


def test_a_checkout_writes_the_same_outputs_as_itself():
    done = subprocess.run(
        [sys.executable, str(REPO / "tools" / "same_outputs.py"), str(REPO),
         str(REPO)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.fullmatch(r"(\d+) of \1 runs identical\n", done.stdout)
