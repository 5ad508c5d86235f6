"""`python -m apexsim`: the same command line as `apexsim`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
