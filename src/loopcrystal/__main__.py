"""``python -m loopcrystal``: the command-line interface without an installed
entry point, e.g. ``PYTHONPATH=src python -m loopcrystal curve info``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
