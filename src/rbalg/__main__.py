"""``python -m rbalg``: the command-line interface of ``rbalg.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
