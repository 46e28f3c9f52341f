"""A small fixed-point framework over the project call graph.

The TP1xx rules are all instances of one scheme: seed a set of *facts*
at some functions, propagate them along call edges (forwards for
"reachable from the run path", backwards for "may reach a flash
mutation") until nothing changes, then report where a fact meets a
syntactic pattern.  :class:`FlowEngine` owns the propagation so each
rule stays a few lines of seeding plus a few lines of reporting.

The solver is a classic worklist **may-analysis**: node facts are
sets, the join is union, and every node passes on all it holds.  The
fact powerset is finite and facts only grow, so the solver
terminates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

from .callgraph import CallSite, Project

__all__ = ["FlowEngine", "fixed_point"]


def fixed_point(edges: Mapping[str, Iterable[str]],
                seeds: Mapping[str, FrozenSet[str]]
                ) -> Dict[str, FrozenSet[str]]:
    """Solve a union-join dataflow problem to a fixed point.

    ``edges[n]`` lists the nodes facts flow *to* from ``n``;
    ``seeds[n]`` are the facts generated at ``n`` regardless of flow.
    Returns the stable fact set per node.
    """
    facts: Dict[str, FrozenSet[str]] = {n: frozenset(s)
                                        for n, s in seeds.items()}
    worklist: List[str] = list(facts)
    while worklist:
        node = worklist.pop()
        outgoing = facts[node]
        if not outgoing:
            continue
        for successor in edges.get(node, ()):
            have = facts.get(successor, frozenset())
            merged = have | outgoing
            if merged != have:
                facts[successor] = merged
                worklist.append(successor)
    return facts


class FlowEngine:
    """Directional closures over one project's call graph."""

    def __init__(self, project: Project) -> None:
        self.project = project
        #: caller -> {(callee qname, call site)}
        self.edges: Dict[str, Set[Tuple[str, CallSite]]] = (
            project.call_edges())
        self._forward: Dict[str, Set[str]] = {
            caller: {callee for callee, _ in sites}
            for caller, sites in self.edges.items()}
        self._backward: Dict[str, Set[str]] = {}
        for caller, callees in self._forward.items():
            for callee in callees:
                self._backward.setdefault(callee, set()).add(caller)

    # ------------------------------------------------------------------
    # Closures
    # ------------------------------------------------------------------
    def reachable_from(self, roots: Iterable[str]) -> Set[str]:
        """All functions reachable from ``roots`` along call edges
        (roots included): the "is on the run path" closure."""
        seeds = {root: frozenset({"R"}) for root in roots
                 if root in self.project.functions}
        solved = fixed_point(self._forward, seeds)
        return {node for node, facts in solved.items() if facts}

    def reaching(self, targets: Iterable[str]) -> Set[str]:
        """All functions that may transitively *call into* ``targets``
        (targets included): the taint closure used by TP102."""
        seeds = {t: frozenset({"T"}) for t in targets
                 if t in self.project.functions}
        solved = fixed_point(self._backward, seeds)
        return {node for node, facts in solved.items() if facts}

    def callers_of(self, qname: str) -> Set[str]:
        """Direct callers of ``qname`` (the reverse call-graph edge),
        used by the domain pass to requeue callers when a function's
        inferred return domain changes."""
        return set(self._backward.get(qname, ()))

    # ------------------------------------------------------------------
    # Call-site queries
    # ------------------------------------------------------------------
    def sites_into(self, caller: str,
                   callees: Set[str]) -> List[Tuple[str, CallSite]]:
        """Call sites in ``caller`` whose resolved callee is in
        ``callees``, sorted by position."""
        hits = [(callee, site) for callee, site
                in self.edges.get(caller, set()) if callee in callees]
        return sorted(hits, key=lambda pair: (pair[1].line,
                                              pair[1].col, pair[0]))
