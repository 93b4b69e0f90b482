"""Shared test configuration.

Setting ``REPRO_VERIFICATION=1`` runs the whole suite with the
verification layer enabled (chunk checks, rewrite checks, kernel
cross-checks) — the slow CI job; the default run leaves it off.
"""

import contextlib
import os

import pytest

from repro.analysis import set_verification_enabled
from repro.quack import Database
from repro.quack.optimizer import _JoinSearch

if os.environ.get("REPRO_VERIFICATION") == "1":
    set_verification_enabled(True)


@pytest.fixture
def verification():
    """Enable verification mode for one test, restoring the prior setting
    afterwards (on under ``REPRO_VERIFICATION=1``, off otherwise)."""
    previous = set_verification_enabled(True)
    yield
    set_verification_enabled(previous)


@pytest.fixture
def unverified():
    """Pin verification off for one test, restoring the prior setting:
    for tests that count calls or counters the cross-checks repeat."""
    previous = set_verification_enabled(False)
    yield
    set_verification_enabled(previous)


def _left_deep(search):
    """The join tree that joins the leaves in FROM order, left-deep, each
    join's method still picked by cost."""
    tree, mask = 0, 1
    for leaf in range(1, search.n):
        tree = (tree, leaf, search.join_cost(mask, 1 << leaf)[1])
        mask |= 1 << leaf
    return tree


@contextlib.contextmanager
def _from_order():
    saved = _JoinSearch.dynamic_programming, _JoinSearch.greedy
    _JoinSearch.dynamic_programming = _JoinSearch.greedy = _left_deep
    try:
        yield
    finally:
        _JoinSearch.dynamic_programming, _JoinSearch.greedy = saved


@pytest.fixture
def from_order():
    """A context manager inside which the join search returns the FROM
    order: for tests that pin which table a join builds or probes, or
    that compare a reordered plan's rows with the written order's."""
    return _from_order


#: ``SET memory_limit`` in MB of about one byte: past it every sort,
#: hash-join build and aggregation takes its disk-backed path
_SPILL_EVERYTHING_MB = 0.000001


@pytest.fixture(scope="session")
def configure_quack(tmp_path_factory):
    """Put a loaded ``quack`` connection into one executor configuration.

    ``configure_quack(con, config, connect)`` returns the connection to
    query; ``config`` joins any of these with ``-``:

    * ``memory``: ``con`` as loaded;
    * ``attached``: ``con``'s tables CHECKPOINTed to a file that a fresh
      connection from ``connect()`` ATTACHes, so every scan decodes
      stored segments;
    * ``spill``: a memory limit of about one byte, so every sort,
      hash-join build and aggregation spills.
    """
    def configure(con, config, connect=None):
        parts = set(config.split("-"))
        unknown = parts - {"memory", "attached", "spill"}
        assert not unknown, f"unknown configuration {config!r}"
        if "attached" in parts:
            path = tmp_path_factory.mktemp("attached") / "db.quackdb"
            con.execute(f"CHECKPOINT '{path}'")
            con = connect() if connect else Database().connect()
            con.execute(f"ATTACH '{path}'")
        if "spill" in parts:
            con.execute(f"SET memory_limit = {_SPILL_EVERYTHING_MB}")
        return con

    return configure
