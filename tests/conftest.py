"""Keep the test run from writing bytecode into the checkout.

Set before any package import: a `src/multitopic/__pycache__` left behind
would let later CLI runs, benchmark children among them, start from
compiled bytecode where a fresh checkout compiles. The environment
variable reaches every child process started with a copy of
`os.environ`, such as `tests/test_golden.py`'s CLI runs.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")
