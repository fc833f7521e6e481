"""``python -m qoverlap``: the same command line as the ``qoverlap`` script."""
from qoverlap.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
