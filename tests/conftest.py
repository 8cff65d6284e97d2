"""Test-run settings shared by every test module.

No bytecode cache is written next to the sources, so a test run never leaves
a ``src/contextprob/__pycache__`` behind for a later benchmark run to pick
up. The environment variable carries the setting into the interpreters the
tests start (the demos and the thread checks).
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
