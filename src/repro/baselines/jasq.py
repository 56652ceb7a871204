"""JASQ reproduction: evolutionary joint architecture + quantization search.

Chen et al., "Joint neural architecture search and quantization" (2018)
combine an evolutionary search over architectures with heterogeneous
quantization of the candidates.  The paper reproduces JASQ *on its own
search space* to get a like-for-like comparator (Table II, "JASQ (repr.)"),
which is what this module does: aging evolution over the joint
(architecture, policy) genome, with candidates early-trained and evaluated
under mixed-precision PTQ, scored by the same Eq. (1) scalarization.

The key structural differences from BOMP-NAS, per Section II:

- the search engine only sees a small population rather than every
  previously trained network, so it is "likely to get stuck in a bad local
  minimum";
- no QAFT inside the loop.
"""

from __future__ import annotations

from dataclasses import replace

from ..data.datasets import Dataset
from ..nas.config import SearchConfig, get_mode
from .evolution import EvolutionSearch


class JASQSearch(EvolutionSearch):
    """Evolutionary joint arch+quant search on the BOMP-NAS search space.

    Reuses the BOMP-NAS candidate evaluation pipeline (early training,
    MP PTQ, Eq. 1 scoring) so the only difference from BOMP-NAS is the
    search strategy — exactly the comparison the paper makes.
    """

    def __init__(self, config: SearchConfig, dataset: Dataset) -> None:
        # JASQ quantizes in the loop but never fine-tunes quantization-aware
        super().__init__(replace(config, mode=get_mode("mp_ptq")), dataset)
