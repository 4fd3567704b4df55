"""Oracle tests of the array-backed DRC rules and graph walks.

``PLC002``/``PLC003`` sweep cell extents held as arrays, and levels and
rail cones (``SEC001``) walk a compiled integer view of the circuit graph.
Their former implementations are kept here as oracles: the O(n²) sweep
over x-sorted extents, networkx cycle breaking plus topological sort, and
the cone walk over networkx edge views.  Generated placements and graphs,
and the reference designs, must give exactly the oracles' results — same
pairs, counts, levels, key orders, cones and diagnostics.
"""

import dataclasses
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.channels import ChannelNets, ChannelSpec
from repro.drc import RuleRegistry, default_registry, run_drc
from repro.drc import rules_placement
from repro.drc.registry import finding
from repro.graph import (
    build_circuit_graph,
    compare_channel_symmetry,
    compute_levels,
    cone_profile,
    rail_cone,
)
from repro.graph.dataflow import break_cycles, data_graph
from repro.pnr.cells import PlacedCell
from repro.pnr.floorplan import Floorplan, Rect, Region
from repro.pnr.placement import Placement, legality_violations


# ---------------------------------------------------------------- oracles
def reference_overlap_pairs(cells, tolerance):
    """Every overlapping pair, by a sweep over (x0, name)-sorted extents."""
    ordered = sorted(cells.values(), key=lambda c: c.name)
    spans = []
    for cell in ordered:
        half_w = cell.width_um / 2.0
        half_h = cell.height_um / 2.0
        spans.append((cell.x_um - half_w, cell.x_um + half_w,
                      cell.y_um - half_h, cell.y_um + half_h, cell.name))
    spans.sort(key=lambda s: (s[0], s[4]))
    pairs = []
    for index, (x0, x1, y0, y1, name) in enumerate(spans):
        for other in spans[index + 1:]:
            if other[0] >= x1 - tolerance:
                break
            dx = min(x1, other[1]) - max(x0, other[0])
            dy = min(y1, other[3]) - max(y0, other[2])
            if dx > tolerance and dy > tolerance:
                first, second = sorted((name, other[4]))
                pairs.append((first, second, dx * dy))
    pairs.sort()
    return pairs


def _is_control(data):
    net = (data.get("net") or "").lower()
    return "ack" in net or "reset" in net or "rst" in net


def reference_cycle_edges(graph, ignore_nets=None):
    """The data subgraph and the edges networkx cycle breaking removes."""
    ignore = set(ignore_nets) if ignore_nets is not None else set()
    sub = graph.copy()
    sub.remove_edges_from([
        (source, target) for source, target, data in sub.edges(data=True)
        if data.get("net") in ignore or _is_control(data)])
    removed = []
    while True:
        try:
            cycle = nx.find_cycle(sub)
        except nx.NetworkXNoCycle:
            break
        removed.append(tuple(cycle[0][:2]))
        sub.remove_edge(*cycle[0][:2])
    return sub, removed


def reference_levels(graph, ignore_nets=None):
    sub, _ = reference_cycle_edges(graph, ignore_nets)
    levels = {}
    for node in nx.topological_sort(sub):
        if sub.nodes[node].get("kind") != "gate":
            continue
        feeding = [levels[p] for p in sub.predecessors(node)
                   if sub.nodes[p].get("kind") == "gate"]
        levels[node] = (max(feeding) + 1) if feeding else 1
    return levels


def reference_rail_cone(netlist, graph, rail_net, stop_at=None):
    net = netlist.net(rail_net)
    if net.driver is None:
        return []
    stop = stop_at if stop_at is not None else set()
    cone, seen = [], set()
    frontier = [net.driver.instance]
    while frontier:
        instance = frontier.pop()
        if instance in seen or instance not in graph:
            continue
        seen.add(instance)
        cone.append(instance)
        if instance in stop:
            continue
        for predecessor in graph.predecessors(instance):
            if graph.nodes[predecessor].get("kind") == "gate":
                if not _is_control(graph.edges[predecessor, instance]):
                    frontier.append(predecessor)
    return cone


def reference_profile(graph, cone, levels):
    gates_per_level, cells_per_level = {}, {}
    for instance in cone:
        level = levels.get(instance, 0)
        gates_per_level[level] = gates_per_level.get(level, 0) + 1
        cells_per_level.setdefault(level, Counter())[
            graph.nodes[instance].get("cell", "?")] += 1
    return gates_per_level, cells_per_level


def reference_mismatches(netlist, graph, channel, levels,
                         require_same_cells=True):
    profiles = [(rail, *reference_profile(
        graph, reference_rail_cone(netlist, graph, rail), levels))
        for rail in channel.rails]
    mismatches = []
    ref_rail, ref_gates, ref_cells = profiles[0]
    for rail, gates, cells in profiles[1:]:
        if set(gates) != set(ref_gates):
            mismatches.append(
                f"rails {ref_rail!r} and {rail!r} span different levels: "
                f"{sorted(ref_gates)} vs {sorted(gates)}")
            continue
        for level in sorted(ref_gates):
            if gates[level] != ref_gates[level]:
                mismatches.append(
                    f"level {level}: {ref_gates[level]} gate(s) on "
                    f"{ref_rail!r} vs {gates[level]} on {rail!r}")
            elif require_same_cells and cells[level] != ref_cells[level]:
                mismatches.append(
                    f"level {level}: cell types differ between {ref_rail!r} "
                    f"({dict(ref_cells[level])}) and {rail!r} "
                    f"({dict(cells[level])})")
    return mismatches


# ------------------------------------------------------- oracle-backed rules
def oracle_check_overlaps(context):
    pairs = reference_overlap_pairs(context.placement.cells,
                                    context.tolerance)
    hits = [finding(f"overlaps cell {second!r} by {area:.2f} um^2",
                    "cell", first, detail=f"with {second}",
                    hint="rows are over-filled; enlarge the region or "
                         "reduce utilization")
            for first, second, area in pairs[:10]]
    if len(pairs) > 10:
        hits.append(finding(
            f"{len(pairs) - 10} further overlapping pair(s) suppressed "
            f"({len(pairs)} total)", "design", "placement",
            hint="fix the densest region first; the pair list is "
                 "deterministic, re-run after each fix"))
    return hits


def oracle_check_fixed_cells(context):
    placement = context.placement
    fixed = {name: cell for name, cell in placement.cells.items()
             if cell.fixed}
    if not fixed:
        return []
    hits = [finding(f"fixed {violation.describe()}", "cell", violation.cell,
                    detail=f"fence {violation.fence}",
                    hint="a fixed cell can never be legalized by the "
                         "annealer; move it inside the fence or unfix it")
            for violation in legality_violations(
                fixed, placement.floorplan, tolerance=context.tolerance)]
    for first, second, area in reference_overlap_pairs(fixed,
                                                       context.tolerance):
        hits.append(finding(
            f"fixed cells {first!r} and {second!r} overlap by "
            f"{area:.2f} um^2", "cell", first, detail=f"with {second}",
            hint="two fixed cells can never be pulled apart; revisit "
                 "the fixed positions"))
    return hits


def oracle_check_cone_symmetry(context):
    netlist = context.netlist
    hits, graph, levels = [], None, None
    for channel_name, rails in sorted(netlist.channels().items()):
        if len(rails) < 2 or any(net.driver is None for net in rails) \
                or any(net.rail is None for net in rails):
            continue
        if graph is None:
            graph = build_circuit_graph(netlist)
            levels = reference_levels(graph)
        nets = ChannelNets(
            spec=ChannelSpec(name=channel_name, radix=len(rails)),
            rails=tuple(net.name for net in rails),
            ack=f"{channel_name}_ack")
        for mismatch in reference_mismatches(
                netlist, graph, nets, levels,
                require_same_cells=context.require_same_cells):
            hits.append(finding(
                f"rail cones are not symmetric: {mismatch}",
                "channel", channel_name,
                hint="restructure the cone so every rail sees the same "
                     "gate count and cell mix per level"))
    return hits


ORACLE_CHECKS = {"PLC002": oracle_check_overlaps,
                 "PLC003": oracle_check_fixed_cells,
                 "SEC001": oracle_check_cone_symmetry}


def oracle_registry():
    """The default catalog with PLC002, PLC003 and SEC001 on the oracles."""
    return RuleRegistry(
        dataclasses.replace(rule, check=ORACLE_CHECKS.get(rule.id, rule.check))
        for rule in default_registry().rules())


# --------------------------------------------------------------- overlaps
#: Centres and sizes on a 0.25 um grid: edges coincide, touch at exactly
#: the tolerance, and tie in x0 / y0; plus arbitrary floats for rounding.
_COORDS = st.one_of(st.integers(0, 16).map(lambda k: k * 0.25),
                    st.floats(0.0, 4.0, allow_nan=False))
_SIZES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
_TOLERANCES = st.sampled_from([0.0, 1e-6, 0.25, 0.5, -0.25])


@st.composite
def placements(draw):
    specs = draw(st.lists(st.tuples(_COORDS, _COORDS, _SIZES, _SIZES,
                                    st.booleans()), max_size=40))
    # Keys are unique; a few cells share a name, which ties pairs on
    # (first, second) and leaves their order to the area.
    names = [draw(st.sampled_from([f"c{index}", f"c{index}", "dup"]))
             for index in range(len(specs))]
    cells = {f"k{index}": PlacedCell(name, width, height, x_um=x, y_um=y,
                                     fixed=fixed)
             for index, (name, (x, y, width, height, fixed))
             in enumerate(zip(names, specs))}
    floorplan = Floorplan(
        die=Rect(0.0, 0.0, 4.0, 4.0),
        regions={"blk": Region(block="blk", rect=Rect(0.0, 0.0, 2.0, 2.0))})
    return Placement(cells=cells, floorplan=floorplan)


class TestOverlapSweep:
    @given(placements(), _TOLERANCES)
    @settings(max_examples=150, deadline=None)
    def test_pairs_and_count_match_the_quadratic_sweep(self, placement,
                                                       tolerance):
        expected = reference_overlap_pairs(placement.cells, tolerance)
        limited = rules_placement._overlap_pairs(placement.cells, tolerance,
                                                 limit=10)
        assert limited == (len(expected), expected[:10])
        assert rules_placement._overlap_pairs(placement.cells, tolerance) \
            == (len(expected), expected)
        # Many small blocks: the running first-k merge across blocks.
        with mock.patch.object(rules_placement, "_SWEEP_BLOCK", 3):
            assert rules_placement._overlap_pairs(
                placement.cells, tolerance, limit=10) == limited

    @given(placements(), _TOLERANCES)
    @settings(max_examples=60, deadline=None)
    def test_placement_rules_match_oracle_rules(self, placement, tolerance):
        layers = ("placement",)
        new = run_drc(placement=placement, layers=layers,
                      tolerance=tolerance)
        old = run_drc(placement=placement, layers=layers,
                      tolerance=tolerance, registry=oracle_registry())
        assert new.events() == old.events()

    def test_left_edge_order_bounds_pairs_at_the_rounding_edge(self):
        # The right cell starts at the float just above the left cell's
        # right edge minus the tolerance, yet the rounded x overlap
        # exceeds the tolerance: the (x0, name) sweep stops before it, and
        # so must the array sweep.
        cells = {"a": PlacedCell("a", 2.0, 1.0, x_um=5.212743781782104,
                                 y_um=0.5),
                 "b": PlacedCell("b", 1.0, 1.0, x_um=6.7127427817821035,
                                 y_um=0.5)}
        assert reference_overlap_pairs(cells, 1e-6) == []
        assert rules_placement._overlap_pairs(cells, 1e-6) == (0, [])

    def test_dense_block_reports_ten_pairs_and_a_summary(self):
        cells = {f"c{k}": PlacedCell(f"c{k}", 2.0, 1.0, x_um=0.5 * k,
                                     y_um=0.5, fixed=k % 2 == 0)
                 for k in range(12)}
        placement = Placement(cells=cells, floorplan=Floorplan(
            die=Rect(0.0, 0.0, 10.0, 10.0), regions={}))
        new = run_drc(placement=placement, layers=("placement",))
        old = run_drc(placement=placement, layers=("placement",),
                      registry=oracle_registry())
        assert new.events() == old.events()
        plc002 = new.by_rule("PLC002")
        assert len(plc002) == 11
        assert "suppressed (" in plc002[-1].message
        assert new.by_rule("PLC003")

    def test_working_memory_does_not_grow_with_candidates(self):
        import tracemalloc

        def sweep_one_row(count):
            # Every cell overlaps every other: count * (count - 1) / 2
            # candidate pairs along either axis, all of them hits.
            cells = {f"c{k:04d}": PlacedCell(f"c{k:04d}", 1000.0, 1.0,
                                             x_um=0.1 * k, y_um=0.5)
                     for k in range(count)}
            tracemalloc.start()
            try:
                result = rules_placement._overlap_pairs(cells, 1e-6,
                                                        limit=10)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return cells, result, peak

        cells, (total, first), small_peak = sweep_one_row(400)
        assert (total, first) == (79_800,
                                  reference_overlap_pairs(cells, 1e-6)[:10])
        _, (total, _), large_peak = sweep_one_row(1600)
        assert total == 1_279_200
        # 16x the candidates, the same block-sized working set.
        assert large_peak < 1.5 * small_peak


# ------------------------------------------------------- levels and cones
_NETS = st.sampled_from(["d", "n1", "n2", "x_ack", "ACKin", "rst_n",
                         "Reset", "data", None])


@st.composite
def circuit_graphs(draw):
    """Small circuit-shaped digraphs: gates, I/O pseudo-nodes, cycles,
    acknowledge / reset nets, shuffled insertion orders."""
    gates = [f"g{k}" for k in range(draw(st.integers(1, 10)))]
    inputs = [f"IN:i{k}" for k in range(draw(st.integers(0, 3)))]
    outputs = [f"OUT:o{k}" for k in range(draw(st.integers(0, 3)))]
    nodes = draw(st.permutations(gates + inputs + outputs))
    graph = nx.DiGraph()
    for node in nodes:
        if node in gates:
            graph.add_node(node, kind="gate",
                           cell=draw(st.sampled_from(["AND2", "OR2", "INV"])))
        else:
            graph.add_node(node, kind="input" if node in inputs
                           else "output")
    sources = st.sampled_from(gates + inputs)
    targets = st.sampled_from(gates + outputs)
    for source, target, net in draw(st.lists(
            st.tuples(sources, targets, _NETS), max_size=30)):
        graph.add_edge(source, target, net=net)
    return graph


def _stub_netlist(drivers):
    """The one netlist call ``rail_cone`` makes: ``net(name).driver``."""
    nets = {rail: SimpleNamespace(driver=None if gate is None
                                  else SimpleNamespace(instance=gate))
            for rail, gate in drivers.items()}
    return SimpleNamespace(net=nets.__getitem__)


class TestLevelsAndCones:
    @given(circuit_graphs(), st.lists(_NETS, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_levels_match_networkx(self, graph, ignore):
        for ignore_nets in (None, ignore):
            levels = compute_levels(graph, ignore_nets=ignore_nets)
            expected = reference_levels(graph, ignore_nets)
            assert list(levels.items()) == list(expected.items())

    @given(circuit_graphs())
    @settings(max_examples=200, deadline=None)
    def test_cycle_breaker_removes_find_cycle_edges_in_order(self, graph):
        compiled = data_graph(graph)
        succ = [list(heads) for heads in compiled.succ]
        removed = [(compiled.names[tail], compiled.names[head])
                   for tail, head in break_cycles(succ)]
        assert removed == reference_cycle_edges(graph)[1]

    @given(circuit_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_cones_and_profiles_match_networkx(self, graph, data):
        gates = [n for n, kind in graph.nodes(data="kind") if kind == "gate"]
        drivers = {f"r{k}": gate for k, gate in enumerate(gates)}
        drivers["undriven"] = None
        drivers["outside"] = "not-in-graph"
        netlist = _stub_netlist(drivers)
        stop_at = set(data.draw(st.lists(st.sampled_from(gates),
                                         max_size=2)))
        levels = reference_levels(graph)
        for rail in drivers:
            for stop in (None, stop_at):
                cone = rail_cone(netlist, graph, rail, stop_at=stop)
                assert cone == reference_rail_cone(netlist, graph, rail,
                                                   stop)
            profile = cone_profile(graph, rail, cone, levels=levels)
            gates_per_level, cells_per_level = reference_profile(
                graph, cone, levels)
            assert list(profile.gates_per_level.items()) \
                == list(gates_per_level.items())
            assert [(level, list(cells.items())) for level, cells
                    in profile.cells_per_level.items()] \
                == [(level, list(cells.items())) for level, cells
                    in cells_per_level.items()]
            assert all(type(cells) is Counter
                       for cells in profile.cells_per_level.values())
        channel = ChannelNets(spec=ChannelSpec(name="c", radix=len(drivers)),
                              rails=tuple(drivers), ack="c_ack")
        for same_cells in (True, False):
            report = compare_channel_symmetry(
                netlist, graph, channel, levels=levels,
                require_same_cells=same_cells)
            assert report.mismatches == reference_mismatches(
                netlist, graph, channel, levels, same_cells)

    def test_structural_edits_recompile_the_data_view(self):
        graph = nx.DiGraph()
        graph.add_node("a", kind="gate", cell="INV")
        graph.add_node("b", kind="gate", cell="INV")
        graph.add_edge("a", "b", net="n")
        assert compute_levels(graph) == {"a": 1, "b": 2}
        graph.add_node("c", kind="gate", cell="BUF")
        graph.add_edge("b", "c", net="m")
        assert compute_levels(graph) == reference_levels(graph)
        graph.add_edge("b", "c", net="m_ack")   # re-labelled: now control
        assert compute_levels(graph) == {"a": 1, "b": 2, "c": 1}
        graph.remove_edge("a", "b")
        assert compute_levels(graph) == reference_levels(graph)


# ------------------------------------------------------- reference designs
def test_tiny_reference_designs_match_oracle_rules():
    """Flat and hardened AES at the benchmark's smallest sizes: every
    netlist, security and placement diagnostic equals the oracle rules'.

    The cones are symmetric at this size (SEC001 runs clean); generated
    graphs above cover the mismatch text.
    """
    from repro.asyncaes import AesArchitecture, AesNetlistGenerator
    from repro.harden import harden_design
    from repro.pnr import extract_capacitances, run_flat_flow

    architecture = AesArchitecture(word_width=8, detail=0.05)
    flat_netlist = AesNetlistGenerator(architecture, name="flat").build()
    hard_netlist = AesNetlistGenerator(architecture, name="hardened").build()
    flat = run_flat_flow(flat_netlist, seed=3, effort=0.05)
    hardened = harden_design(hard_netlist, base="hierarchical", bound=0.15,
                             seed=3, effort=0.05).design
    fired = set()
    for design in (flat, hardened):
        extract_capacitances(design.netlist, design.placement)
        new = run_drc(design.netlist, placement=design.placement,
                      cap_bound=0.15)
        old = run_drc(design.netlist, placement=design.placement,
                      cap_bound=0.15, registry=oracle_registry())
        assert new.events() == old.events()
        fired.update(diagnostic.rule for diagnostic in new.diagnostics)
    assert {"PLC002", "SEC002"} <= fired
