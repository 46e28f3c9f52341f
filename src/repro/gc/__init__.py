"""Garbage-collection victim selection: greedy, the paper's one policy.

The paper holds the GC policy fixed (greedy; per §3.1 its effect is
"beyond the scope") while varying the FTL's caching.  The FTLs select
greedy victims off the flash array's counting index
(:meth:`~repro.ftl.BaseFTL._select_victim`); :class:`GreedyPolicy` is the
full candidate scan that index is checked against.
"""

from .greedy import GreedyPolicy

__all__ = ["GreedyPolicy"]
