"""`python -m rigid_refine`: the `rigid-refine` command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
