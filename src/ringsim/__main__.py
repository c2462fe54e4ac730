"""The command line: ``python -m ringsim`` and the ``ringsim`` script."""

import gc
import sys


def main() -> int:
    """Run `ringsim.cli.main`.  A Ctrl-C while it still loads, numpy
    above all, ends in one line too.

    Once the command line has loaded, everything loaded so far is frozen
    (`gc.freeze`): numpy's import graph lives as long as the process, yet
    the collection at interpreter exit would walk all of it, a tenth of a
    quick sweep's run.  Forked ``entropy-grid`` workers then leave those
    pages shared, as no collection in them touches the frozen objects.  The
    freeze is here, not in `cli.main`, because a program or test that calls
    `cli.main` in process keeps its own collector settings.
    """
    try:
        from .cli import main as run
    except KeyboardInterrupt:
        sys.stderr.write("ringsim: interrupted\n")
        return 130  # cli.EXIT_INTERRUPTED, not loaded yet
    gc.freeze()
    return run()


if __name__ == "__main__":
    sys.exit(main())
