"""`python -m gridest`: the same command line as the `gridest` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
