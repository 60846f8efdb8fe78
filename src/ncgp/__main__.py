"""`python -m ncgp`: the same entry point as the `ncgp` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
