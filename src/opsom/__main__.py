"""`python -m opsom ...` runs the command-line harness (`opsom.harness.main`)."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
