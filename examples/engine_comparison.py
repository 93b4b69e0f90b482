#!/usr/bin/env python3
"""Engine comparison: MobilityDuck (columnar) vs the MobilityDB baseline.

Loads one BerlinMOD-Hanoi city into the three scenarios of the paper's
Figure 12 — MobilityDuck, MobilityDB without indexes, MobilityDB with
GiST/B-tree indexes — checks that each selected query returns the same
rows on all three, and prints one warm run's time per query and scenario.
The benchmark proper is ``perfbench/run_all.py``.

Run with::

    python examples/engine_comparison.py [scale_factor] [q1,q2,...]
"""

import sys
import time

from repro.berlinmod import SCENARIOS, generate, get_query, prepare_scenario


def comparable(row: tuple) -> tuple:
    """A row as the engines can agree on it: temporal and geometry values
    as text, doubles rounded to 6 places (join orders differ between the
    plans, so a sum may differ in its last bits)."""
    return tuple(
        round(v, 6) if isinstance(v, float)
        else v if isinstance(v, (int, str, type(None))) else str(v)
        for v in row
    )


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.001
    if len(sys.argv) > 2:
        numbers = [int(n) for n in sys.argv[2].split(",")]
    else:
        numbers = [1, 2, 3, 4, 8, 13, 15]

    print(f"Loading SF {scale} into {', '.join(SCENARIOS)} ...")
    city = generate(scale)
    connections = {name: prepare_scenario(name, city) for name in SCENARIOS}
    print(f"\n{'query':>5} " + " ".join(f"{name:>15}" for name in SCENARIOS))
    wins = 0
    for number in numbers:
        sql = get_query(number).sql
        seconds = {}
        answers = set()
        for name, con in connections.items():
            rows = con.execute(sql).fetchall()  # warm-up, and the answer
            answers.add(repr(sorted(repr(comparable(r)) for r in rows)))
            start = time.perf_counter()
            con.execute(sql).fetchall()
            seconds[name] = time.perf_counter() - start
        if len(answers) != 1:
            raise AssertionError(f"Q{number}: the scenarios disagree")
        wins += seconds["mobilityduck"] < seconds["mobilitydb_idx"]
        print(f"{'Q' + str(number):>5} "
              + " ".join(f"{seconds[name] * 1000:13.1f}ms"
                         for name in SCENARIOS))
    print(f"\nmobilityduck wins vs indexed baseline: {wins / len(numbers):.0%}")


if __name__ == "__main__":
    main()
