"""Kernelization rules for the induced-weight hypergraph problem.

Four reduction rules shrink an instance or certify a yes:

1. delete vertices in no edge;
2. delete zero-weight edges;
3. if the vertex count reaches 2*alpha*d^3*Delta^2, a greedy self-induced
   packing yields a witness directly (degree rule);
4. if some subedge c has a large link while every strict superset has a small
   one, a sunflower with core c yields a witness (subedge rule).

``kernelize`` runs them in ascending order, restarting after every firing, in
one of three modes: ``degree`` (rules 1-3), ``subedge`` (rules 1-4), and
``edgecount`` (rules 1-2 plus a global edge-count certificate).  Every
trivial-yes witness is re-verified before being returned; a verification
failure raises, since the extraction arguments admit none.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ContractViolationError, InternalGuaranteeError
from .model import (
    VertexSet,
    WeightedHypergraph,
    induced_weight,
    iter_subsets_lex,
    link,
    max_degree,
)

MODE_DEGREE = "degree"
MODE_SUBEDGE = "subedge"
MODE_EDGECOUNT = "edgecount"
MODES = (MODE_DEGREE, MODE_SUBEDGE, MODE_EDGECOUNT)

STATUS_TRIVIAL_YES = "trivial-yes"
STATUS_REDUCED = "reduced"


def g(i: int, alpha: int, d: int) -> int:
    """Link-count threshold for cores missing i vertices; g(0) = 1.

    Grows doubly exponentially: g(i) = (i^i * 2*alpha * 2^(2^d))^(2^i - 1).
    """
    if i < 0:
        raise ContractViolationError(f"threshold index must be non-negative, got {i}")
    if alpha < 1 or d < 1:
        raise ContractViolationError("thresholds need alpha >= 1 and d >= 1")
    if i == 0:
        return 1
    return (i**i * 2 * alpha * 2 ** (2**d)) ** (2**i - 1)


def _links_below_g(edge_count: int, d: int) -> bool:
    """True when edge_count < 2^(2^d + 1), so no link reaches any g(i), i >= 1.

    For alpha >= 1, g(i) >= 2*alpha*2^(2^d) >= 2^(2^d + 1) whenever i >= 1,
    and a link never holds more edges than the instance.  Only bit lengths
    are compared, with d capped where the bound already passes 2^129, so no
    integer of size 2^d is built.
    """
    return edge_count.bit_length() <= (1 << min(d, 7)) + 1


@dataclass(frozen=True)
class KernelOutcome:
    """Result of kernelization: a verified trivial yes or a reduced instance.

    ``instance`` is the hypergraph as it stood when a rule certified yes (its
    witness embeds into the original, deletions being value-neutral), or the
    fully reduced instance.
    """

    status: str
    instance: WeightedHypergraph
    witness: VertexSet | None
    transcript: tuple[str, ...]


def _edge_key(e: VertexSet) -> tuple[int, ...]:
    return tuple(sorted(e))


def _fmt_edge(e: VertexSet) -> str:
    return "{" + ",".join(map(str, sorted(e))) + "}"


def rule1_isolated(h: WeightedHypergraph) -> tuple[WeightedHypergraph, VertexSet] | None:
    """Delete every vertex incident to no edge; None when there are none."""
    covered: set[int] = set()
    for e, _ in h.edges:
        covered |= e
    isolated = h.vertices - covered
    if not isolated:
        return None
    return (
        WeightedHypergraph._trusted(h.vertices - isolated, h.edges, h.alpha, h.d),
        frozenset(isolated),
    )


def rule2_zero_weight(h: WeightedHypergraph) -> tuple[WeightedHypergraph, tuple[VertexSet, ...]] | None:
    """Delete every edge of weight zero; None when there are none."""
    removed = tuple(e for e, wt in h.edges if wt == 0)
    if not removed:
        return None
    kept = tuple((e, wt) for e, wt in h.edges if wt != 0)
    return WeightedHypergraph._trusted(h.vertices, kept, h.alpha, h.d), removed


def extract_witness_packing(h: WeightedHypergraph) -> VertexSet:
    """Witness from a greedy self-induced packing of pairwise disjoint edges.

    Scans the nonempty edges once in lexicographic order and picks each one
    that strictly contains no other nonempty edge and meets no covered vertex,
    then covers the union of the not-yet-covered edges it meets.  Whatever
    covers a subedge also covers every edge containing it, so an edge that is
    not minimal at the start never becomes pickable, and a minimal edge once
    passed over stays covered: the scan picks exactly what repeatedly taking
    the smallest minimal uncovered edge would.  Subedges and met edges all
    pass through the edge's own vertices, found in a vertex index built once.

    The picked edges are pairwise disjoint and induce only themselves (plus
    possibly the empty edge).  Splitting them by weight sign, the union of one
    of the two sides reaches |w[X]| >= alpha whenever the packing has at least
    2*alpha members: the two unions' values differ by at least |M|, which the
    empty edge's weight cannot cancel.  Both sides are tried, larger first,
    ties preferring the positive side.
    """
    edges = sorted((e for e, _ in h.edges if e), key=_edge_key)
    weight = dict(h.edges)
    incident: dict[int, list[VertexSet]] = {}
    for e in edges:
        for v in e:
            incident.setdefault(v, []).append(e)
    covered: set[int] = set()
    m_plus: list[VertexSet] = []
    m_minus: list[VertexSet] = []
    for e in edges:
        if not covered.isdisjoint(e):
            continue
        met = [f for v in e for f in incident[v] if covered.isdisjoint(f)]
        if any(f < e for f in met):
            continue
        if weight[e] > 0:
            m_plus.append(e)
        elif weight[e] < 0:
            m_minus.append(e)
        for f in met:
            covered |= f
    sides = [m_plus, m_minus]
    if len(m_minus) > len(m_plus):
        sides = [m_minus, m_plus]
    for side in sides:
        x: set[int] = set()
        for e in side:
            x |= e
        if abs(induced_weight(h, x)) >= h.alpha:
            return frozenset(x)
    raise InternalGuaranteeError("packing extraction produced no verifying side")


def rule3_degree(h: WeightedHypergraph) -> tuple[VertexSet, str] | None:
    """Certify yes when |V| >= 2*alpha*d^3*Delta^2 (V nonempty).

    With rules 1-2 exhausted, every vertex has degree >= 1, so the greedy
    packing reaches 2*alpha members and a witness exists.  The vacuous case
    V = empty is excluded: the threshold degenerates to 0 there while no
    packing member can be picked.  Returns the witness and its transcript
    line, or None.
    """
    if h.alpha < 1 or not h.vertices:
        return None
    delta = max_degree(h)
    threshold = 2 * h.alpha * h.d**3 * delta**2
    if h.num_vertices < threshold:
        return None
    return extract_witness_packing(h), f"rule3 |V|={h.num_vertices} threshold={threshold}"


def rule4_subedge(h: WeightedHypergraph) -> VertexSet | None:
    """Find a subedge c with |link(c)| >= g(d-|c|) and all strict supersets small.

    Scans core sizes from d-1 down and returns the lexicographically first
    core of the first size with a link meeting its threshold; it satisfies
    the superset condition, every larger subedge having been rejected and
    non-subedge supersets having empty links.  A link holds at most |E|
    edges and g(i) grows with i, so the scan stops at the first size whose
    threshold exceeds |E|, before counting any link of it.  Returns the core
    or None.  Size-d candidates are skipped: nothing strictly contains them.
    """
    if h.alpha < 1 or h.d < 1 or _links_below_g(len(h.edges), h.d):
        return None
    for size in range(h.d - 1, -1, -1):
        threshold = g(h.d - size, h.alpha, h.d)
        if threshold > len(h.edges):
            return None
        # An edge strictly contains exactly its subsets of smaller size.
        link_count: dict[tuple[int, ...], int] = {}
        for e, _ in h.edges:
            if len(e) > size:
                for c in combinations(sorted(e), size):
                    link_count[c] = link_count.get(c, 0) + 1
        hits = [c for c, count in link_count.items() if count >= threshold]
        if hits:
            return frozenset(min(hits))
    return None


def extract_witness_sunflower(h: WeightedHypergraph, core: VertexSet) -> VertexSet:
    """Witness from a sunflower with the given core.

    Scans the core's link (the edges strictly containing it) once in
    lexicographic order and picks each edge that (a) strictly contains no
    other link edge, (b) meets every picked edge in exactly the core, and (c)
    keeps the picked set self-induced among the link: the picked union grown
    by the edge contains no unpicked link edge.  Before each pick the union
    holds no unpicked link edge, so the three hold together exactly when no
    other link edge through the candidate's petal (the candidate minus the
    core) lies inside the union grown by the candidate: such an edge is
    inside the candidate for (a), picked for (b), newly enclosed for (c).
    One test over the link edges through the petal's vertices, indexed once,
    decides all three.

    The candidates are every core subset joined with nothing, with the
    positive petals, or with the negative petals; at least one verifies when
    the rule's thresholds fired.
    """
    core = frozenset(core)
    e_c = sorted(link(h, core), key=_edge_key)
    through: dict[int, list[VertexSet]] = {}
    for e in e_c:
        for v in e - core:
            through.setdefault(v, []).append(e)
    weight = dict(h.edges)
    union: set[int] = set()
    plus: set[int] = set()
    minus: set[int] = set()
    for e in e_c:
        if any(f != e and f - e <= union for v in e - core for f in through[v]):
            continue
        union |= e
        if weight[e] > 0:
            plus |= e
        elif weight[e] < 0:
            minus |= e
    petals = (frozenset(), frozenset(plus - core), frozenset(minus - core))
    for c_sub in iter_subsets_lex(core):
        for s in petals:
            x = c_sub | s
            if abs(induced_weight(h, x)) >= h.alpha:
                return frozenset(x)
    raise InternalGuaranteeError("sunflower extraction produced no verifying candidate")


def kernelize(h: WeightedHypergraph, mode: str = MODE_SUBEDGE) -> KernelOutcome:
    """Exhaustively apply the mode's rules, smallest rule first after any firing.

    Returns a verified trivial yes or the reduced instance; reduction never
    changes the answer, and deleting isolated vertices or zero-weight edges
    never changes any subset's induced weight.
    """
    if mode not in MODES:
        raise ContractViolationError(f"unknown kernelization mode {mode!r}")
    transcript: list[str] = []
    if h.alpha == 0:
        # The empty set attains |w[X]| = 0 >= 0; no rule needs to run.
        return KernelOutcome(STATUS_TRIVIAL_YES, h, frozenset(), ("alpha0",))
    while True:
        r1 = rule1_isolated(h)
        if r1 is not None:
            h, removed = r1
            transcript.append("rule1 " + " ".join(map(str, sorted(removed))))
            continue
        r2 = rule2_zero_weight(h)
        if r2 is not None:
            h, removed_edges = r2
            transcript.append("rule2 " + " ".join(_fmt_edge(e) for e in removed_edges))
            continue
        if mode in (MODE_DEGREE, MODE_SUBEDGE):
            r3 = rule3_degree(h)
            if r3 is not None:
                witness, line = r3
                transcript.append(line)
                return KernelOutcome(STATUS_TRIVIAL_YES, h, witness, tuple(transcript))
        if mode == MODE_SUBEDGE:
            core = rule4_subedge(h)
            if core is not None:
                witness = extract_witness_sunflower(h, core)
                transcript.append(
                    f"rule4 core={_fmt_edge(core)} link={len(link(h, core))}"
                )
                return KernelOutcome(STATUS_TRIVIAL_YES, h, witness, tuple(transcript))
        if mode == MODE_EDGECOUNT and h.d >= 1 and not _links_below_g(len(h.edges), h.d):
            threshold = g(h.d, h.alpha, h.d)
            if len(h.edges) >= threshold:
                transcript.append(f"edgecount |E|={len(h.edges)} threshold={threshold}")
                core = rule4_subedge(h)
                if core is not None:
                    witness = extract_witness_sunflower(h, core)
                else:
                    # Off-by-one corner: the empty edge keeps every link one
                    # short of its threshold; the packing argument still holds.
                    witness = extract_witness_packing(h)
                return KernelOutcome(STATUS_TRIVIAL_YES, h, witness, tuple(transcript))
        return KernelOutcome(STATUS_REDUCED, h, None, tuple(transcript))
