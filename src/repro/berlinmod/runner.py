"""The three BerlinMOD-Hanoi scenarios of the paper's Figure 12.

``mobilityduck`` (columnar engine + extension), ``mobilitydb`` (row
baseline, no indexes) and ``mobilitydb_idx`` (row baseline + GiST/B-tree
indexes): :func:`prepare_scenario` loads a dataset into one of them.
The benchmark that times them is ``perfbench/run_all.py``.
"""

from __future__ import annotations

from .. import core
from .generator import Dataset
from .schema import create_baseline_indexes, load_dataset

SCENARIOS = ("mobilityduck", "mobilitydb", "mobilitydb_idx")


def prepare_scenario(name: str, dataset: Dataset):
    """Load a dataset into one scenario's engine; returns a connection."""
    if name == "mobilityduck":
        con = core.connect()
        load_dataset(con, dataset)
    elif name == "mobilitydb":
        con = core.connect_baseline()
        load_dataset(con, dataset)
    elif name == "mobilitydb_idx":
        con = core.connect_baseline()
        load_dataset(con, dataset)
        create_baseline_indexes(con)
    else:
        raise ValueError(f"unknown scenario {name!r}")
    return con
