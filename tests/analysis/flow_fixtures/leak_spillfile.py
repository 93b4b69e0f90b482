"""Resource leaks: a spill handle that leaks when a later call raises,
and one that is discarded outright.  Expected: FLOW001 twice —
``SpillFile:handle`` in ``spill_rows`` and ``SpillFile:discarded`` in
``spill_and_forget``.
"""

from storage import SpillFile


def spill_rows(rows):
    handle = SpillFile()
    handle.write_chunk(rows)
    handle.close()


def spill_and_forget(rows):
    SpillFile()
    return len(rows)
