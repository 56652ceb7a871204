"""Comparator implementations and literature reference numbers."""

from .evolution import AgingEvolution, EvolutionSearch
from .jasq import JASQSearch
from .micronas import MicroNASSearch, constrained_score
from .reference import (TABLE2_BOMP_PAPER, TABLE2_REFERENCES,
                        TABLE3_BOMP_PAPER, TABLE3_REFERENCES, TABLE4_PAPER,
                        SearchCostEntry, SotaEntry, table2_rows)
from .sequential import SequentialSearch

__all__ = [
    "AgingEvolution", "EvolutionSearch", "JASQSearch", "MicroNASSearch",
    "constrained_score",
    "SequentialSearch",
    "SotaEntry", "SearchCostEntry", "table2_rows",
    "TABLE2_REFERENCES", "TABLE2_BOMP_PAPER",
    "TABLE3_REFERENCES", "TABLE3_BOMP_PAPER", "TABLE4_PAPER",
]
