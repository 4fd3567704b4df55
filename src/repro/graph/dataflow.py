"""The data-path view of a circuit graph, compiled once to integer lists.

Logical levels (:func:`repro.graph.levels.compute_levels`) and rail cones
(:func:`repro.graph.symmetry.rail_cone`) walk the same edges: the *data*
edges of the circuit graph, i.e. every edge except the acknowledge and
reset wires, whose net names mark them (``ack``, ``reset`` or ``rst``, in
any case).  :func:`data_graph` compiles that view once per graph — vertex
indices in graph order, data successors in adjacency order, gate data
predecessors in predecessor order — so the analyses run over plain lists
instead of re-reading networkx views and re-testing net names per edge.

The compiled view is cached in the graph's ``__networkx_cache__``, which
networkx clears on every structural edit (adding or removing a node or an
edge, including ``add_edge`` on an existing edge).  In-place edits of an
attribute dict (``graph.nodes[n]["kind"] = ...``) bypass that; clear
``graph.__networkx_cache__`` after such an edit.  Frozen graphs and views
are compiled afresh on every call, since their base graph may change under
them.
"""

from __future__ import annotations

from typing import Container, Dict, Iterable, List, Optional, Tuple

import networkx as nx

from .build import EDGE_NET, NODE_CELL, NODE_KIND

#: Key of the compiled view in ``graph.__networkx_cache__``.
_CACHE_KEY = "repro.graph.dataflow"

#: Net-name fragments marking acknowledge / reset (non-data) wires.
_CONTROL_MARKS = ("ack", "reset", "rst")


def _is_control_net(net: Optional[str]) -> bool:
    """True for an acknowledge or reset net, judged by its name."""
    name = (net or "").lower()
    return any(mark in name for mark in _CONTROL_MARKS)


class DataGraph:
    """Integer-indexed data edges of one circuit graph.

    ``names[k]`` is the ``k``-th vertex in graph order; ``succ[k]`` its data
    successors in adjacency order with ``succ_nets[k]`` the net of each of
    those edges; ``gate_preds[k]`` its data predecessors that are gates, in
    predecessor order.
    """

    def __init__(self, graph: nx.DiGraph):
        self.names: List[str] = list(graph)
        self.index: Dict[str, int] = {name: k
                                      for k, name in enumerate(self.names)}
        self.is_gate: List[bool] = []
        self.cell_of: Dict[str, str] = {}
        for name, data in graph.nodes(data=True):
            self.is_gate.append(data.get(NODE_KIND) == "gate")
            self.cell_of[name] = data.get(NODE_CELL, "?")
        control: Dict[Optional[str], bool] = {}

        def is_data(net: Optional[str]) -> bool:
            flag = control.get(net)
            if flag is None:
                flag = control[net] = _is_control_net(net)
            return not flag

        index, is_gate = self.index, self.is_gate
        self.succ: List[List[int]] = []
        self.succ_nets: List[List[Optional[str]]] = []
        for _, targets in graph.adjacency():
            heads, nets = [], []
            for target, data in targets.items():
                net = data.get(EDGE_NET)
                if is_data(net):
                    heads.append(index[target])
                    nets.append(net)
            self.succ.append(heads)
            self.succ_nets.append(nets)
        self.gate_preds: List[List[int]] = []
        for _, sources in graph.pred.items():
            preds = []
            for source, data in sources.items():
                k = index[source]
                if is_gate[k] and is_data(data.get(EDGE_NET)):
                    preds.append(k)
            self.gate_preds.append(preds)

    # ------------------------------------------------------------ levels
    def acyclic_successors(self, ignore_nets: Optional[Iterable[str]] = None
                           ) -> List[List[int]]:
        """Data successor lists without ``ignore_nets``, cycles broken."""
        if ignore_nets:
            ignore = set(ignore_nets)
            succ = [[head for head, net in zip(heads, nets)
                     if net not in ignore]
                    for heads, nets in zip(self.succ, self.succ_nets)]
        else:
            succ = [list(heads) for heads in self.succ]
        break_cycles(succ)
        return succ

    def levels(self, ignore_nets: Optional[Iterable[str]] = None
               ) -> Dict[str, int]:
        """Logical level of every gate, in networkx topological order.

        Data edges on ``ignore_nets`` are dropped too; the remaining cycles
        are broken as repeated ``networkx.find_cycle`` calls would
        (:func:`break_cycles`), then levels are assigned along the
        topological generations of ``networkx.topological_sort``.
        """
        succ = self.acyclic_successors(ignore_nets)
        indegree = [0] * len(succ)
        for heads in succ:
            for head in heads:
                indegree[head] += 1
        feeding = [0] * len(succ)
        names, is_gate = self.names, self.is_gate
        levels: Dict[str, int] = {}
        generation = [k for k, degree in enumerate(indegree) if degree == 0]
        while generation:
            following = []
            for node in generation:
                level = 0
                if is_gate[node]:
                    level = levels[names[node]] = feeding[node] + 1
                for head in succ[node]:
                    if feeding[head] < level:
                        feeding[head] = level
                    indegree[head] -= 1
                    if indegree[head] == 0:
                        following.append(head)
            generation = following
        return levels

    # ------------------------------------------------------------- cones
    def cone(self, instance: str, stop_at: Container[str] = ()) -> List[str]:
        """Gates of the data fan-in cone of ``instance``, in walk order."""
        start = self.index.get(instance)
        if start is None:
            return []
        names, gate_preds = self.names, self.gate_preds
        seen = bytearray(len(names))
        cone: List[str] = []
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if seen[node]:
                continue
            seen[node] = 1
            name = names[node]
            cone.append(name)
            if name not in stop_at:
                frontier.extend(gate_preds[node])
        return cone


def data_graph(graph: nx.DiGraph) -> DataGraph:
    """The compiled data-path view of ``graph``, cached with the graph."""
    cache = getattr(graph, "__networkx_cache__", None)
    if cache is None or nx.is_frozen(graph):
        return DataGraph(graph)
    compiled = cache.get(_CACHE_KEY)
    if compiled is None:
        compiled = cache[_CACHE_KEY] = DataGraph(graph)
    return compiled


def break_cycles(succ: List[List[int]]) -> List[Tuple[int, int]]:
    """Remove one edge per cycle from ``succ`` and return them in order.

    The edges are those of ``while True: G.remove_edge(*nx.find_cycle(G)[0])``
    — networkx's cycle search without source or orientation, over vertices
    ``0..n-1`` with successors in list order.  Instead of restarting from
    vertex 0 after each removal, the search resumes at the vertex whose
    search found the cycle: the earlier searches found no cycle and could
    not reach the removed edge (its tail was unexplored), so networkx
    would repeat them unchanged.
    """
    explored = bytearray(len(succ))
    removed: List[Tuple[int, int]] = []
    for start in range(len(succ)):
        while not explored[start]:
            edge = _cycle_edge_from(succ, start, explored)
            if edge is None:
                break
            succ[edge[0]].remove(edge[1])
            removed.append(edge)
    return removed


def _cycle_edge_from(succ: List[List[int]], start: int,
                     explored: bytearray) -> Optional[Tuple[int, int]]:
    """One ``find_cycle`` search from ``start``: its first cycle edge.

    A port of the body of networkx's ``find_cycle`` loop: the same edge
    depth-first search, the same active-path bookkeeping, the same trimming
    of the returned cycle.  A search that finds no cycle marks what it saw
    as explored and returns None.  One shortcut: edges into explored
    vertices are not followed — networkx follows them but skips everything
    they lead to, which is explored too.
    """
    path: List[Tuple[int, int]] = []
    seen = [start]
    active = {start}
    previous_head = None
    iterators = {}
    stack = [start]
    while stack:
        tail = stack[-1]
        edges = iterators.get(tail)
        if edges is None:
            edges = iterators[tail] = iter(succ[tail])
        head = next(edges, None)
        if head is None:
            stack.pop()
            continue
        if explored[head]:
            continue
        stack.append(head)
        if previous_head is not None and tail != previous_head:
            # Backtracking: pop the path back to the edge ending at tail.
            while True:
                if not path:
                    active = {tail}
                    break
                active.remove(path.pop()[1])
                if path and path[-1][1] == tail:
                    break
        path.append((tail, head))
        if head in active:
            for edge in path:
                if edge[0] == head:
                    return edge
            return path[-1]
        seen.append(head)
        active.add(head)
        previous_head = head
    for node in seen:
        explored[node] = 1
    return None
