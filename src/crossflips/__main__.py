"""``python -m crossflips``: the command-line interface of ``crossflips.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
