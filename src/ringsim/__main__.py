"""The command line: ``python -m ringsim`` and the ``ringsim`` script."""

import sys


def main() -> int:
    """Run `ringsim.cli.main`.  A Ctrl-C while it still loads, numpy
    above all, ends in one line too."""
    try:
        from .cli import main as run
    except KeyboardInterrupt:
        sys.stderr.write("ringsim: interrupted\n")
        return 130  # cli.EXIT_INTERRUPTED, not loaded yet
    return run()


if __name__ == "__main__":
    sys.exit(main())
