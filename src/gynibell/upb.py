"""Orthogonal product-vector sets and the Bell inequalities they generate.

A set S of mutually orthogonal fully product vectors over C^{d_1} x ... x
C^{d_N} induces, at each site, a collection of distinct local vectors; when
those split unambiguously into groups of mutually orthogonal vectors (the
orthogonality graph is a disjoint union of cliques), the groups become
measurement settings, positions inside a group become outcomes, and the sum
of the corresponding conditional probabilities is bounded by 1 for
classical and quantum strategies alike.  Unextendibility of S (no product
vector orthogonal to its span) is decided by an exhaustive assignment
search; weak unextendibility restricts the candidates to products of the
local vectors themselves.

The named generators (Shifts, Generalized Shifts, the minimal families of
size N(d-1)+1, a weak-UPB example on 2x2x3) attach their canonical subset
structure, which fixes the setting/outcome labels of the emitted
inequalities; sets loaded from raw vectors get subsets derived by
first-appearance order instead, and sets whose per-site orthogonality is
not a clique union (the two-qutrit TILES vectors, the qutrit cycle
realizations) either raise or carry no subsets at all.

All vector arithmetic is floating point with the package tolerance.  The
checks read per-site tables of overlaps |<u|v>|, each one matrix product;
every verdict that matters (extension witnesses, orthogonality) is
re-verified by direct inner products, so false positives are
self-detecting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .core import BellExpression, Scenario

_SQ2 = 1.0 / math.sqrt(2.0)


class AmbiguousSubsetsError(ValueError):
    """Local vectors cannot be grouped: the orthogonality graph is not a
    disjoint union of cliques.  Carries the first conflicting triple (u
    orthogonal to w, v orthogonal to w, but u not orthogonal to v)."""

    def __init__(self, site: int, triple):
        self.site = site
        self.triple = triple
        super().__init__(
            f"ambiguous local subsets at site {site}: vectors {triple[0]} and "
            f"{triple[1]} share orthogonal partner {triple[2]} but are not "
            f"mutually orthogonal"
        )


# ---------------------------------------------------------------------------
# small vector helpers


def ket(*amps) -> np.ndarray:
    v = np.asarray(amps, dtype=complex)
    return v / np.linalg.norm(v)


def basis_ket(dim: int, k: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def hadamard_pair() -> tuple[np.ndarray, np.ndarray]:
    e = ket(_SQ2, _SQ2)
    return e, qubit_orthogonal(e)


def qubit_orthogonal(e: np.ndarray) -> np.ndarray:
    """Deterministic orthogonal partner of a qubit state."""
    return np.array([-np.conj(e[1]), np.conj(e[0])], dtype=complex)


def fourier_basis(dim: int) -> list[np.ndarray]:
    """Columns of the discrete Fourier matrix; every overlap with the
    standard basis is 1/sqrt(dim), so the basis is as generic as needed."""
    omega = np.exp(2j * np.pi / dim)
    return [
        np.array([omega ** (r * c) for r in range(dim)], dtype=complex) / np.sqrt(dim)
        for c in range(dim)
    ]


def product_inner(u_sites, v_sites) -> complex:
    return complex(math.prod(np.vdot(u, v) for u, v in zip(u_sites, v_sites)))


def _overlaps(us, vs, dim: int) -> np.ndarray:
    """The inner products <u|v> of two stacks of ``dim``-vectors, one row per
    u and one column per v; either stack may be empty."""
    return np.conj(np.reshape(us, (-1, dim))) @ np.reshape(vs, (-1, dim)).T


# ---------------------------------------------------------------------------
# product vector sets


@dataclass(frozen=True)
class ProductVectorSet:
    """Orthogonal product vectors, optionally with per-site local subsets.

    ``vectors[m][i]`` is the site-i factor of the m-th vector.
    ``local_sets[i]`` lists the distinct local vectors at site i;
    ``local_subsets[i]`` partitions their indices into mutually orthogonal
    groups (the measurement settings); ``vector_local_index[m][i]`` points
    each vector factor at its local-set entry.  ``local_subsets`` is None
    for sets whose per-site orthogonality structure is not a disjoint union
    of cliques; such sets still support the unextendibility checks but
    cannot be turned into Bell inequalities.
    """

    dims: tuple
    vectors: tuple
    local_sets: tuple
    local_subsets: tuple | None
    vector_local_index: tuple
    label: str = ""

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def labels(self, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(settings, outcomes) of vector m: subset index and position."""
        if self.local_subsets is None:
            raise ValueError("set carries no local subset structure")
        xs, aa = [], []
        for i, (li, subsets) in enumerate(zip(self.vector_local_index[m], self.local_subsets)):
            k = next((k for k, subset in enumerate(subsets) if li in subset), None)
            if k is None:
                raise ValueError(f"vector {m} site {i} not covered by subsets")
            xs.append(k)
            aa.append(subsets[k].index(li))
        return tuple(xs), tuple(aa)

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "vectors": [
                [[[float(z.real), float(z.imag)] for z in site] for site in vec]
                for vec in self.vectors
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "ProductVectorSet":
        """The set of a :meth:`to_json` document, with the local subsets
        :func:`build_local_subsets` derives."""
        return build_local_subsets(*vectors_from_json(obj))


def vectors_from_json(obj: dict) -> tuple[list, tuple]:
    """The raw product vectors and the site dimensions of a
    :meth:`ProductVectorSet.to_json` document."""
    vectors = [
        tuple(np.array([complex(re, im) for re, im in site]) for site in vec)
        for vec in obj["vectors"]
    ]
    return vectors, tuple(obj["dims"])


def _check_unit_norm(vectors, dims, eps) -> None:
    for m, vec in enumerate(vectors):
        if len(vec) != len(dims):
            raise ValueError(f"vector {m} has wrong site count")
        for i, v in enumerate(vec):
            if len(v) != dims[i]:
                raise ValueError(f"vector {m} site {i} has wrong dimension")
            if abs(np.linalg.norm(v) - 1.0) > eps:
                raise ValueError(f"vector {m} site {i} is not normalized")


def _product_set(vectors, dims, local_sets, local_subsets, label: str) -> ProductVectorSet:
    """The one constructor behind every :class:`ProductVectorSet`.

    Checks unit norms, global orthogonality and, per site, that each subset
    (a tuple of indices into ``local_sets[i]``) has at most ``dims[i]``
    members, all mutually orthogonal; then points each vector factor at the
    first local vector equal to it up to a phase.  ``local_subsets`` is
    None for sets without subset structure.  Every check reads one overlap
    table per site: the local vectors, then the members' factors, all
    against all.
    """
    eps = config.TOLERANCE
    dims = tuple(dims)
    vectors = tuple(tuple(np.asarray(v, dtype=complex) for v in vec) for vec in vectors)
    _check_unit_norm(vectors, dims, eps)
    local_sets = tuple([np.asarray(v, dtype=complex) for v in site] for site in local_sets)
    tables = []
    for i, (local, d) in enumerate(zip(local_sets, dims)):
        stack = local + [vec[i] for vec in vectors]
        tables.append(np.abs(_overlaps(stack, stack, d)))
    # two members overlap by the product over sites of their factors' overlaps
    overlap = np.ones((len(vectors), len(vectors)))
    for table, local in zip(tables, local_sets):
        overlap = overlap * table[len(local) :, len(local) :]
    pairs = np.argwhere(np.triu(overlap > eps, 1))
    if len(pairs):
        raise ValueError(f"vectors {pairs[0][0]} and {pairs[0][1]} are not orthogonal")
    if local_subsets is not None:
        local_subsets = tuple(tuple(tuple(subset) for subset in site) for site in local_subsets)
        for i, (site, table) in enumerate(zip(local_subsets, tables)):
            for subset in site:
                if len(subset) > dims[i]:
                    raise ValueError(f"site {i}: subset larger than the local dimension {dims[i]}")
                if np.any(np.triu(table[np.ix_(subset, subset)] > eps, 1)):
                    raise ValueError(f"site {i}: subset members not orthogonal")
    # each factor points at the first local vector equal to it up to a phase
    same = [t[: len(local), len(local) :] > 1.0 - eps for t, local in zip(tables, local_sets)]
    missing = np.argwhere(~np.array([s.any(axis=0) for s in same]).T)
    if len(missing):
        m, i = missing[0]
        raise ValueError(f"vector {m} site {i} is not among the local vectors")
    index = tuple(zip(*(s.argmax(axis=0).tolist() for s in same))) if vectors else ()
    return ProductVectorSet(dims, vectors, local_sets, local_subsets, index, label=label)


def _local_classes(vectors, dims):
    """The vectors as complex arrays, checked for unit norm, and per site the
    factors, their overlap table and the first factor of each class of
    factors equal modulo a global phase, in first-appearance order (the
    extension witness's SVD depends on it)."""
    eps = config.TOLERANCE
    vectors = tuple(tuple(np.asarray(v, dtype=complex) for v in vec) for vec in vectors)
    _check_unit_norm(vectors, dims, eps)  # the per-site tables need the shapes
    sites = []
    for i, d in enumerate(dims):
        factors = [vec[i] for vec in vectors]
        table = np.abs(_overlaps(factors, factors, d))
        reps = []
        for m in range(len(factors)):
            if not np.any(table[m, reps] > 1.0 - eps):
                reps.append(m)
        sites.append((factors, table, reps))
    return vectors, sites


def build_local_subsets(vectors, dims, label: str = "") -> ProductVectorSet:
    """Derive local sets and subsets from raw orthogonal product vectors.

    Per site: deduplicate local vectors modulo a global phase and take their
    orthogonality graph.  It is a disjoint union of cliques exactly when no
    two non-adjacent vectors share an orthogonal partner, and then each
    vector's subset is itself with its partners.  Otherwise the grouping is
    ambiguous (the TILES situation) and :class:`AmbiguousSubsetsError` is
    raised with the first such pair and their first common partner.  Local
    sets keep first-appearance order, and so do subset order and positions.
    """
    eps = config.TOLERANCE
    vectors, sites = _local_classes(vectors, dims)
    local_sets = []
    local_subsets = []
    for i, (factors, table, reps) in enumerate(sites):
        adj = table[np.ix_(reps, reps)] <= eps
        # non-adjacent pairs with a common partner
        conflicts = np.argwhere(np.triu((adj @ adj) & ~adj, 1))
        if len(conflicts):
            u, w = conflicts[0].tolist()
            raise AmbiguousSubsetsError(i, (u, w, int(np.argmax(adj[u] & adj[w]))))
        closed = adj | np.eye(len(reps), dtype=bool)
        cliques = [tuple(np.flatnonzero(row).tolist()) for row in closed]
        local_sets.append([factors[m] for m in reps])
        local_subsets.append(list(dict.fromkeys(cliques)))  # first appearance
    return _product_set(vectors, dims, local_sets, local_subsets, label)


def build_local_sets(vectors, dims, label: str) -> ProductVectorSet:
    """Raw orthogonal product vectors with their local sets alone, each
    deduplicated modulo a global phase as :func:`build_local_subsets` does,
    and no local subsets: the form of a set whose subsets are ambiguous for
    the unextendibility verdicts, which need none."""
    vectors, sites = _local_classes(vectors, dims)
    local_sets = [[factors[m] for m in reps] for factors, _, reps in sites]
    return _product_set(vectors, dims, local_sets, None, label)


def _from_explicit_subsets(vectors, dims, site_subsets, label: str) -> ProductVectorSet:
    """Build a set whose subset structure (and hence inequality labels) is
    supplied by a family generator rather than derived: each site's local
    set is its subsets concatenated."""
    local_sets, local_subsets = [], []
    for subsets in site_subsets:
        site, indices = [], []
        for subset in subsets:
            indices.append(range(len(site), len(site) + len(subset)))
            site += subset
        local_sets.append(site)
        local_subsets.append(indices)
    return _product_set(vectors, dims, local_sets, local_subsets, label)


# ---------------------------------------------------------------------------
# checks


def check_local_independence(pvs: ProductVectorSet) -> bool:
    """True iff no two local vectors from different subsets at the same site
    are orthogonal (every cross-subset overlap exceeds the tolerance)."""
    eps = config.TOLERANCE
    if pvs.local_subsets is None:
        raise ValueError("set carries no local subset structure")
    for subsets, local, d in zip(pvs.local_subsets, pvs.local_sets, pvs.dims):
        members = [local[u] for subset in subsets for u in subset]
        setting = np.repeat(np.arange(len(subsets)), [len(subset) for subset in subsets])
        cross = setting[:, None] != setting
        if np.any(np.abs(_overlaps(members, members, d))[cross] <= eps):
            return False
    return True


@dataclass(frozen=True)
class UpbVerdict:
    is_upb: bool
    extension_witness: tuple | None  # per-site vectors, or None
    nodes: int  # assignment-search nodes visited


def _null_vector(vectors, dim: int, eps) -> np.ndarray | None:
    """A unit vector orthogonal (Hermitian inner product) to all the given
    local vectors, or None when they span the site."""
    mat = np.conj(np.array(vectors))
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > eps))
    return vh[rank].conj() if rank < dim else None


def is_upb(pvs: ProductVectorSet, cap: int | None = None) -> UpbVerdict:
    """Decide unextendibility by exhaustive assignment search.

    A product vector orthogonal to every member of S must, for each member,
    be orthogonal at some site; scanning all assignments of members to
    sites, S is extendible iff some assignment leaves every site's assigned
    local vectors short of full rank.  The first extension found (lowest
    assignment in lexicographic site order) is returned and re-verified by
    direct inner products.  The search raises once it has visited more than
    ``cap`` nodes (partial assignments that keep every site short of full
    rank).
    """
    eps = config.TOLERANCE
    cap = config.ASSIGNMENT_CAP if cap is None else cap
    n_sites = len(pvs.dims)
    size = len(pvs)
    if size >= pvs.total_dim:
        raise ValueError("set must span a proper subspace (|S| < dim H)")

    null_memo = [{0: basis_ket(d, 0)} for d in pvs.dims]

    def null_vector(site: int, mask: int) -> np.ndarray | None:
        memo = null_memo[site]
        if mask not in memo:
            members = sorted(
                {pvs.vector_local_index[m][site] for m in range(size) if mask & (1 << m)}
            )
            memo[mask] = _null_vector(
                [pvs.local_sets[site][k] for k in members], pvs.dims[site], eps
            )
        return memo[mask]

    masks = [0] * n_sites
    nodes = 0

    def search(m: int):
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise ValueError(f"assignment search cap exceeded: more than {cap} nodes")
        if m == size:
            return tuple(masks)
        for site in range(n_sites):
            new_mask = masks[site] | (1 << m)
            if null_vector(site, new_mask) is not None:
                old = masks[site]
                masks[site] = new_mask
                found = search(m + 1)
                masks[site] = old
                if found is not None:
                    return found
        return None

    assignment = search(0)
    if assignment is None:
        return UpbVerdict(True, None, nodes)
    witness = tuple(null_vector(site, mask) for site, mask in enumerate(assignment))
    for vec in pvs.vectors:
        if abs(product_inner(witness, vec)) > eps:
            raise RuntimeError("extension witness failed the orthogonality recheck")
    return UpbVerdict(False, witness, nodes)


#: most complex overlaps one block of the local-product enumeration holds
_LOCAL_PRODUCT_BLOCK = 1 << 14


def _local_product_overlaps(pvs: ProductVectorSet):
    """<p|psi_m> for every product p of the set's own local vectors (rows,
    in ``itertools.product`` order of ``local_sets``) and every member m
    (columns), yielded one block of rows at a time.

    Each site's local vectors are taken against the members' factors there
    once (a Gram matrix); a product's overlap with a member is the product
    over sites of those entries."""
    grams = [
        _overlaps(local, [vec[i] for vec in pvs.vectors], d)
        for i, (local, d) in enumerate(zip(pvs.local_sets, pvs.dims))
    ]
    sizes = [len(g) for g in grams]
    total = math.prod(sizes)
    step = max(1, _LOCAL_PRODUCT_BLOCK // max(1, len(pvs)))
    for s in range(0, total, step):
        picks = np.unravel_index(np.arange(s, min(s + step, total)), sizes)
        overlap = grams[0][picks[0]]
        for gram, k in zip(grams[1:], picks[1:]):
            overlap = overlap * gram[k]
        yield overlap


def is_wupb(pvs: ProductVectorSet) -> bool:
    """Weak unextendibility: no product of the set's own local vectors is
    orthogonal to every member (finite enumeration over the local sets,
    :func:`_local_product_overlaps`)."""
    eps = config.TOLERANCE
    if len(pvs) >= pvs.total_dim:
        raise ValueError("set must span a proper subspace (|S| < dim H)")
    return not any(
        np.any(np.all(np.abs(overlap) <= eps, axis=1)) for overlap in _local_product_overlaps(pvs)
    )


# ---------------------------------------------------------------------------
# Bell inequality synthesis


def bell_from_set(pvs: ProductVectorSet) -> BellExpression:
    """One unit-coefficient term per vector: setting = subset index, outcome
    = position inside the subset; classical bound exactly 1.

    Requires the local independence property: with it, any two vectors are
    orthogonal at some site *within* one subset, i.e. same setting and
    different outcomes, which is what caps deterministic strategies at one
    satisfied term."""
    if not check_local_independence(pvs):
        raise ValueError("set lacks the local independence property")
    inputs = tuple(len(s) for s in pvs.local_subsets)
    outputs = tuple(max(len(sub) for sub in s) for s in pvs.local_subsets)
    scen = Scenario(inputs, outputs)
    coeffs = {}
    for m in range(len(pvs)):
        xs, aa = pvs.labels(m)
        key = (scen.encode_input(xs), scen.encode_outcome(aa))
        if key in coeffs:
            raise ValueError("two vectors map to the same term")
        coeffs[key] = Fraction(1)
    return BellExpression(
        scen,
        coeffs,
        classical_bound=Fraction(1),
        label=pvs.label or "product-set inequality",
    )


# ---------------------------------------------------------------------------
# named families


def shifts(e=None) -> ProductVectorSet:
    """The three-qubit Shifts set {|000>, |1 e' e>, |e 1 e'>, |e' e 1>} with
    e' the orthogonal partner of e (default: Hadamard-rotated basis).

    Up to local unitaries and party permutations this is the only
    three-qubit unextendible product set, so its inequality is the canonical
    three-party one."""
    e = hadamard_pair()[0] if e is None else np.asarray(e, dtype=complex)
    if e.shape != (2,):
        raise ValueError("e must be a qubit vector")
    zero, one = basis_ket(2, 0), basis_ket(2, 1)
    ebar = qubit_orthogonal(e)
    vectors = [(zero, zero, zero), (one, ebar, e), (e, one, ebar), (ebar, e, one)]
    site_subsets = [[[zero, one], [e, ebar]]] * 3
    return _from_explicit_subsets(vectors, (2, 2, 2), site_subsets, label="shifts")


def gen_shifts(k: int, bases=None) -> ProductVectorSet:
    """Generalized Shifts on N = 2k-1 qubits: the all-zero vector plus the
    2k-1 cyclic right-shifts of (1, e_1, ..., e_{k-1}, e'_{k-1}, ..., e'_1).

    ``bases``: k-1 qubit vectors e_i, pairwise different and different from
    the computational basis (defaults chosen accordingly)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    n = 2 * k - 1
    if bases is None:
        bases = [
            ket(math.cos(t), math.sin(t))
            for t in (math.pi * (i + 1) / (4 * k) for i in range(k - 1))
        ]
    bases = [np.asarray(b, dtype=complex) for b in bases]
    if len(bases) != k - 1:
        raise ValueError("need k-1 basis vectors")
    zero, one = basis_ket(2, 0), basis_ket(2, 1)
    bars = [qubit_orthogonal(b) for b in bases]
    first = [one] + list(bases) + list(reversed(bars))
    vectors = [tuple([zero] * n)]
    current = first
    for _ in range(n):
        vectors.append(tuple(current))
        current = [current[-1]] + current[:-1]
    site_subsets = [
        [[zero, one]] + [[bases[i], bars[i]] for i in range(k - 1)]
        for _ in range(n)
    ]
    return _from_explicit_subsets(vectors, (2,) * n, site_subsets, label=f"gen-shifts-{k}")


def _two_basis_cyclic_set(n_parties: int, dim: int, label: str) -> ProductVectorSet:
    """The textbook two-basis pattern: the last Fourier vector f_{d-1} at
    every site plus the cyclic rotations of (|0>, ..., |N-2>, f_j), j < d-1;
    N(d-1)+1 vectors, two local subsets per site (standard states and the
    Fourier basis, which overlap by 1/sqrt(d) throughout, so the set is
    locally independent for every d, extendible or not)."""
    fourier = fourier_basis(dim)
    base = [basis_ket(dim, i) for i in range(n_parties - 1)]
    vectors = [tuple([fourier[-1]] * n_parties)]
    for shift in range(n_parties):
        for j in range(dim - 1):
            pattern = base + [fourier[j]]
            vectors.append(tuple(pattern[-shift:] + pattern[:-shift]))
    site_subsets = [[base, fourier]] * n_parties
    return _from_explicit_subsets(vectors, (dim,) * n_parties, site_subsets, label=label)


def _walecki_cycles(n_vertices: int) -> list[list[int]]:
    """Decompose the complete graph on an odd number of vertices into
    (n-1)/2 edge-disjoint Hamiltonian cycles (zigzag construction)."""
    if n_vertices % 2 == 0 or n_vertices < 3:
        raise ValueError("need an odd vertex count")
    m = (n_vertices - 1) // 2
    cycles = []
    for k in range(m):
        path = [k % (2 * m)]
        for step in range(1, 2 * m):
            delta = (step + 1) // 2 * (1 if step % 2 == 1 else -1)
            path.append((k + delta) % (2 * m))
        cycles.append([2 * m] + path)
    seen = set()
    for c in cycles:
        if sorted(c) != list(range(n_vertices)):
            raise RuntimeError("cycle is not Hamiltonian")
        for i in range(n_vertices):
            edge = frozenset((c[i], c[(i + 1) % n_vertices]))
            if edge in seen:
                raise RuntimeError("cycle decomposition not edge-disjoint")
            seen.add(edge)
    if len(seen) != n_vertices * (n_vertices - 1) // 2:
        raise RuntimeError("cycle decomposition incomplete")
    return cycles


def _perp_in_plane(a: np.ndarray, rng) -> np.ndarray:
    mat = np.conj(a).reshape(1, a.shape[0])
    _, s, vh = np.linalg.svd(mat, full_matrices=True)
    t = rng.normal(size=2 * (a.shape[0] - 1))
    w = np.zeros(a.shape[0], dtype=complex)
    for k in range(a.shape[0] - 1):
        w += (t[2 * k] + 1j * t[2 * k + 1]) * vh[k + 1].conj()
    return w / np.linalg.norm(w)


def _perp_of_two_qutrit(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    w = np.cross(np.conj(a), np.conj(b))
    n = np.linalg.norm(w)
    if n < 1e-12:
        raise RuntimeError("degenerate pair while closing a cycle")
    return w / n


def _realize_cycle_qutrit(cycle, rng) -> dict:
    """Unit vectors in C^3, one per vertex, orthogonal exactly along the
    cycle edges (the last vertex closes against both neighbours)."""
    n = len(cycle)
    out = {}
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    out[cycle[0]] = v / np.linalg.norm(v)
    for i in range(1, n - 1):
        out[cycle[i]] = _perp_in_plane(out[cycle[i - 1]], rng)
    out[cycle[-1]] = _perp_of_two_qutrit(out[cycle[-2]], out[cycle[0]])
    return out


def _distinct_letter_upb_qutrits(n_parties: int, label: str) -> ProductVectorSet:
    """A provably unextendible set of 2N+1 product vectors on qutrits.

    The complete graph on the vectors splits into N Hamiltonian cycles, one
    per site; each cycle is realized by unit vectors orthogonal exactly
    along its edges, so every vector pair is orthogonal at exactly one site.
    All site factors are pairwise distinct and no three are coplanar, hence
    any single local vector can be orthogonal to at most two factors; an
    extension would need to cover 2N+1 vectors with at most 2 per site,
    which is impossible."""
    eps = config.TOLERANCE
    size = 2 * n_parties + 1
    cycles = _walecki_cycles(size)
    edge = np.zeros((n_parties, size, size), dtype=bool)
    for site, c in enumerate(cycles):
        edge[site, c, np.roll(c, 1)] = edge[site, np.roll(c, 1), c] = True
    apart = ~edge & ~np.eye(size, dtype=bool)
    triples = np.array(list(itertools.combinations(range(size), 3)))
    for attempt in range(200):
        rng = np.random.default_rng(attempt)
        sites = [_realize_cycle_qutrit(c, rng) for c in cycles]
        letters = np.array([[site[v] for v in range(size)] for site in sites])
        ip = np.abs([_overlaps(site, site, 3) for site in letters])
        # orthogonal exactly along the edges, distinct, no three coplanar
        if (
            np.all(ip[edge] <= eps)
            and np.all((ip[apart] > 1e-6) & (ip[apart] < 1 - 1e-6))
            and np.linalg.svd(letters[:, triples], compute_uv=False)[..., -1].min() >= 1e-6
        ):
            vectors = letters.transpose(1, 0, 2)
            return _product_set(vectors, (3,) * n_parties, letters, None, label)
    raise RuntimeError("could not realize a generic cycle decomposition")


def niset_cerf(n_parties: int, dim: int) -> ProductVectorSet:
    """Minimal-size orthogonal product family on (C^dim)^N, N >= 3,
    dim >= N-1, with N(dim-1)+1 vectors.

    For dim = 2 (three qubits) this is the textbook two-basis pattern and
    recovers the Shifts set up to local unitaries.  For dim = 3 the
    two-basis pattern is provably extendible (with at most six distinct
    local vectors per site some local vector repeats, a plane through a
    repeated vector removes three set members, and the 2N-2 leftovers fall
    to two per remaining site), so the constructor switches to a
    distinct-letter realization over a Hamiltonian cycle decomposition,
    which is unextendible by the matching counting argument.  The cycle
    realization has no subset structure; the two-setting inequality
    associated with this family's parameters comes from
    :func:`niset_cerf_inequality`.  For dim >= 4 the two-basis pattern is
    used as printed."""
    if n_parties < 3:
        raise ValueError("need at least three parties")
    if dim < n_parties - 1:
        raise ValueError("local dimension must be at least N-1")
    label = f"niset-cerf-{n_parties}-{dim}"
    if dim == 3:
        return _distinct_letter_upb_qutrits(n_parties, label)
    return _two_basis_cyclic_set(n_parties, dim, label)


def niset_cerf_inequality(n_parties: int, dim: int) -> BellExpression:
    """The two-setting inequality of the minimal family, read off the
    two-basis set whatever its extendibility: one term
    P(dim-1, ..., dim-1 | 1, ..., 1) plus, for every cyclic rotation and
    every j < dim-1, the term with outcomes (0, 1, ..., N-2, j) under
    settings (0, ..., 0, 1); all terms pairwise orthogonal, so the
    classical (and quantum) bound is exactly 1."""
    if n_parties < 3 or dim < n_parties - 1:
        raise ValueError("need N >= 3 and dim >= N-1")
    label = f"niset-cerf-{n_parties}-{dim}-inequality"
    return bell_from_set(_two_basis_cyclic_set(n_parties, dim, label))


def wupb_example() -> ProductVectorSet:
    """A weak UPB on 2x2x3 that is not a UPB: {|000>, |1 e' f>, |e 1 f'>,
    |e' e 1>, |e' e 2>, |e 1 f''>} with (f, f', f'') an orthonormal qutrit
    basis away from the standard one."""
    zero, one = basis_ket(2, 0), basis_ket(2, 1)
    e, ebar = hadamard_pair()
    f0, f1, f2 = fourier_basis(3)
    z3 = [basis_ket(3, i) for i in range(3)]
    vectors = [
        (zero, zero, z3[0]),
        (one, ebar, f0),
        (e, one, f1),
        (ebar, e, z3[1]),
        (ebar, e, z3[2]),
        (e, one, f2),
    ]
    site_subsets = [
        [[zero, one], [e, ebar]],
        [[zero, one], [e, ebar]],
        [z3, [f0, f1, f2]],
    ]
    return _from_explicit_subsets(vectors, (2, 2, 3), site_subsets, label="wupb-2x2x3")


def tiles() -> list[tuple[np.ndarray, np.ndarray]]:
    """The two-qutrit TILES vectors (raw; their local subsets are ambiguous,
    so building a ProductVectorSet from them raises)."""
    z = [basis_ket(3, i) for i in range(3)]
    m01 = ket(1, -1, 0)
    m12 = ket(0, 1, -1)
    plus = ket(1, 1, 1)
    return [
        (z[0], m01),
        (z[2], m12),
        (m01, z[2]),
        (m12, z[0]),
        (plus, plus),
    ]


def tiles_set() -> ProductVectorSet:
    """The TILES set from its local sets alone, with no local subsets: they
    are ambiguous (:func:`build_local_subsets` raises), and the
    unextendibility verdicts need none.  At each site the five factors are
    distinct, so they are the local set."""
    return build_local_sets(tiles(), (3, 3), "tiles")


def four_partite_tight_inequality() -> BellExpression:
    """A known tight four-partite inequality with no quantum violation, on
    the scenario with inputs (2, 2, 2, 3) and binary outputs: the sum of
    p(0000|0000), p(1000|0111), p(0110|1012), p(0001|0110), p(1011|0001),
    p(1101|0102), p(1110|1101) is classically (and quantumly) at most 1."""
    scen = Scenario((2, 2, 2, 3), (2, 2, 2, 2))
    terms = [
        ("0000", "0000"),
        ("1000", "0111"),
        ("0110", "1012"),
        ("0001", "0110"),
        ("1011", "0001"),
        ("1101", "0102"),
        ("1110", "1101"),
    ]
    coeffs = {}
    for a_str, x_str in terms:
        aa = tuple(int(c) for c in a_str)
        xs = tuple(int(c) for c in x_str)
        coeffs[(scen.encode_input(xs), scen.encode_outcome(aa))] = Fraction(1)
    return BellExpression(
        scen, coeffs, classical_bound=Fraction(1), label="four-partite-tight"
    )
