"""Set-up probe: import the rzeta command line, then report ready.

``run.py`` starts this in a fresh interpreter and times it from process
start to the ``ready`` line; that is the set-up a user pays before the
first ``rzeta`` command can do any work.
"""

import os
import sys

sys.path.insert(0, os.path.join(sys.argv[1], "src"))

import rzeta.cli  # noqa: E402,F401

print("ready", flush=True)
