"""Counter drift: one undeclared exact name, one undeclared f-string
prefix, one undeclared gauge, and one declared-but-never-emitted entry
back in the registry.
Expected: FLOW002 for ``scan.rows_out`` (bump_undeclared), ``custom.``
(bump_custom), ``bogus.gauge`` (gauge_undeclared) and
``cache.unused_counter`` (registry module) — while ``scan.rows_in``, the
``optimizer.rule.`` prefix, the ``scan.peak_rows`` gauge, both arms of a
conditional name, a fully dynamic name (left to the runtime check) and
a *method* named ``_count`` (not the ambient helper) stay clean.
"""


def bump_undeclared(stats):
    stats.bump("scan.rows_out")


def bump_custom(stats, name):
    stats.bump(f"custom.{name}")


def bump_declared(stats):
    stats.bump("scan.rows_in")


def bump_declared_prefix(stats, rule):
    stats.bump(f"optimizer.rule.{rule}")


def bump_dynamic(stats, name):
    stats.bump(name)


def bump_either(stats, hit):
    stats.bump("cache.hits" if hit else "cache.misses")


def gauge_declared(stats):
    stats.gauge_max("scan.peak_rows", 5)


def gauge_undeclared(stats):
    stats.gauge_max("bogus.gauge", 1)


class Planner:
    def __init__(self, stats):
        self.stats = stats

    def _count(self, rule):
        self.stats.bump(f"optimizer.rule.{rule}")

    def plan(self):
        self._count("dp_plans")
