"""Seeded input generator for the benchmark.

Turns a workload seed into text inputs (JSON documents and fixture files)
together with the answer each input must produce, computed by the
benchmark's own reference code.  Nothing here imports ``squareop``, so a
change to the library can change neither the inputs nor the expected
answers.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

ZERO, ONE = Fraction(0), Fraction(1)
ATOMS16 = "abcdefghijklmnop"
SMALL_DEN = 12
IMPLICATIONS = ("godel", "kleene-dienes", "lukasiewicz", "reichenbach")


def rng_for(workload: str, seed: int) -> random.Random:
    # string seeds hash with SHA-512, so they are stable across processes
    return random.Random(f"{workload}/{seed}")


# ---------------------------------------------------------------------------
# degrees

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11):  # deterministic below 2.15e12
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Denominators:
    """Draws denominators: small (at most 12), or large distinct primes.

    Distinct primes are pairwise coprime, so every sum or comparison of two
    large-denominator degrees works on products near 2**60.
    """

    def __init__(self, rng: random.Random, large: bool):
        self.rng, self.large, self.used = rng, large, set()

    def draw(self) -> int:
        if not self.large:
            return self.rng.randint(1, SMALL_DEN)
        while True:
            q = self.rng.randrange(1 << 29, 1 << 30) | 1
            if q not in self.used and _is_prime(q):
                self.used.add(q)
                return q

    def degree(self, upper: Fraction = ONE, strict: bool = False) -> Fraction:
        """A degree in [0, upper], or [0, upper) when ``strict``."""
        q = self.draw()
        top = upper.numerator * q // upper.denominator
        if strict and Fraction(top, q) == upper:
            top -= 1
        return Fraction(self.rng.randint(0, top), q)

    def edge(self) -> tuple[Fraction, Fraction]:
        """An order edge that holds to some degree: mu + nu <= 1, nu < 1."""
        mu = self.degree()
        return mu, self.degree(ONE - mu, strict=mu == ZERO)


# ---------------------------------------------------------------------------
# crisp order shapes on n carrier elements: (labels, leq matrix)

def element_label(bits: int, atoms: str) -> str:
    return "{%s}" % ",".join(a for i, a in enumerate(atoms) if bits >> i & 1)


def powerset_shape(k: int):
    n = 1 << k
    labels = [element_label(b, ATOMS16[:k]) for b in range(n)]
    return labels, [[i & j == i for j in range(n)] for i in range(n)]


def detached_top_shape(k: int):
    """Powerset order whose top lies above the bottom only: two coatoms lack a lub."""
    labels, leq = powerset_shape(k)
    top = len(labels) - 1
    for i in range(1, top):
        leq[i][top] = False
    return labels, leq


def chain_shape(n: int):
    return [f"c{i}" for i in range(n)], [[i <= j for j in range(n)] for i in range(n)]


def pentagon_shape(n: int):
    """0 < a1 < ... < a(n-3) < 1 beside 0 < c < 1: complemented, contains N5."""
    labels = ["0"] + [f"a{i}" for i in range(1, n - 2)] + ["c", "1"]
    c, top = n - 2, n - 1
    leq = [[i == j or i == 0 or j == top or (i < c and j < c and i <= j)
            for j in range(n)] for i in range(n)]
    return labels, leq


def diamond_shape(n: int):
    """M(n-2): bottom, top and n-2 pairwise incomparable atoms; contains M3."""
    labels = ["0"] + [f"m{i}" for i in range(1, n - 1)] + ["1"]
    top = n - 1
    return labels, [[i == j or i == 0 or j == top for j in range(n)] for i in range(n)]


def fuzzy_order(leq, dens: Denominators):
    """Random degrees on the strict edges of ``leq``, closed transitively."""
    n = len(leq)
    mu = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    nu = [[ZERO if i == j else ONE for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j]:
                mu[i][j], nu[i][j] = dens.edge()
    close(mu, nu)
    return mu, nu


def close(mu, nu) -> None:
    """Max-min / min-max transitive closure in place (Floyd-Warshall order)."""
    n = len(mu)
    for k in range(n):
        for i in range(n):
            if mu[i][k] == ZERO and nu[i][k] == ONE:
                continue
            for j in range(n):
                m = min(mu[i][k], mu[k][j])
                if m > mu[i][j]:
                    mu[i][j] = m
                v = max(nu[i][k], nu[k][j])
                if v < nu[i][j]:
                    nu[i][j] = v


def relation_json(labels, mu, nu, key: str = "set") -> dict:
    return {
        key: list(labels),
        "mu": [[str(v) for v in row] for row in mu],
        "nu": [[str(v) for v in row] for row in nu],
    }


def _verdict(refl=True, anti=True, trans=True, lattice=True, dist=True, comp=True):
    partial = refl and anti and trans
    if not partial:
        lattice = dist = comp = None
    elif not lattice:
        dist = comp = None
    boolean = bool(partial and lattice and dist and comp)
    return {
        "reflexive": refl,
        "perfectly_antisymmetric": anti,
        "transitive": trans,
        "partial_order": partial,
        "lattice": lattice if partial else None,
        "distributive": dist,
        "complemented": comp,
        "de_morgan": "holds" if boolean else "preconditions-unmet",
        "if_boolean_algebra": boolean,
    }


# rung -> smallest carrier on which the break exists
RUNGS = {
    "none": 2, "reflexivity": 2, "antisymmetry": 2, "transitivity": 4,
    "lattice": 4, "distributivity-n5": 8, "distributivity-m3": 8, "complement": 4,
}


def certify_document(rng: random.Random, n: int, rung: str, large: bool):
    """A relation document on ``n`` elements broken at ``rung``, and its verdict."""
    dens = Denominators(rng, large)
    k = n.bit_length() - 1
    verdict = _verdict()
    if rung == "lattice":
        labels, leq = detached_top_shape(k)
        verdict = _verdict(lattice=False)
    elif rung.startswith("distributivity"):
        labels, leq = (pentagon_shape if rung.endswith("n5") else diamond_shape)(n)
        verdict = _verdict(dist=False)
    elif rung == "complement":
        labels, leq = chain_shape(n)
        verdict = _verdict(comp=False)
    else:
        labels, leq = powerset_shape(k)
    mu, nu = fuzzy_order(leq, dens)
    if rung == "reflexivity":
        i = rng.randrange(n)
        mu[i][i] = dens.degree(ONE, strict=True)
        verdict = _verdict(refl=False)
    elif rung == "antisymmetry":
        i, j = rng.choice([(i, j) for i in range(n) for j in range(n) if i != j and leq[i][j]])
        mu[j][i], nu[j][i] = ZERO, dens.degree(ONE, strict=True)
        close(mu, nu)
        verdict = _verdict(anti=False)
    elif rung == "transitivity":
        mu[0][n - 1], nu[0][n - 1] = ZERO, ONE  # bottom -> top, implied by any chain
        verdict = _verdict(trans=False)
    # the carrier keeps its construction order: the ladder's early exits
    # then stop at the same place for every seed
    return json.dumps(relation_json(labels, mu, nu, rng.choice(("set", "carrier")))), verdict


# ---------------------------------------------------------------------------
# crisp reference classifier (bitmasks)

def ref_kind(x: int, y: int, mask: int) -> str:
    if x == y:
        return "BI"
    if x & y == x:
        return "LI"
    if x & y == y:
        return "RI"
    meet_bottom, join_top = x & y == 0, x | y == mask
    if meet_bottom and join_top:
        return "CD"
    if meet_bottom:
        return "C"
    if join_top:
        return "SC"
    return "Un"


def ref_table(fragment, mask: int):
    return tuple(tuple(ref_kind(x, y, mask) for y in fragment) for x in fragment)


# informativity order: Un below all; LI, RI below BI; C, SC below CD
INFO_LEQ = frozenset(
    {(k, k) for k in ("BI", "LI", "RI", "CD", "C", "SC", "Un")}
    | {("Un", k) for k in ("BI", "LI", "RI", "CD", "C", "SC")}
    | {("LI", "BI"), ("RI", "BI"), ("C", "CD"), ("SC", "CD")}
)


def ref_infomorphism(t1, t2, mapping) -> bool:
    n = len(mapping)
    return all((t1[i][j], t2[mapping[i]][mapping[j]]) in INFO_LEQ
               for i in range(n) for j in range(n))


def diagram_json(k: int, fragment, labels=None) -> str:
    atoms = ATOMS16[:k]
    obj = {"algebra": {"atoms": list(atoms)},
           "fragment": [[a for i, a in enumerate(atoms) if b >> i & 1] for b in fragment]}
    if labels:
        obj["labels"] = list(labels)
    return json.dumps(obj)


def permute_bits(bits: int, perm) -> int:
    return sum(1 << perm[i] for i in range(len(perm)) if bits >> i & 1)


def permuted_copy(rng: random.Random, k: int, fragment):
    """Relabel atoms and shuffle the fragment; returns (fragment2, known iso)."""
    perm = list(range(k))
    rng.shuffle(perm)
    images = [permute_bits(b, perm) for b in fragment]
    order = list(range(len(fragment)))
    rng.shuffle(order)
    fragment2 = [images[i] for i in order]
    return fragment2, tuple(order.index(i) for i in range(len(fragment)))


def high_symmetry_fragment(rng: random.Random, s: int, with_complement: bool):
    """s interchangeable atoms, their join, two swappable outside atoms and
    optionally the join's complement, over 16 atoms: 2 * s! isomorphisms.

    The order is fixed: the search cost depends on the order of the first
    fragment, and a shuffled order would make it vary tenfold by seed.
    """
    atoms = rng.sample(range(16), s + 2)
    sym = [1 << a for a in atoms[:s]]
    join = sum(sym)
    frag = sym + [join, 1 << atoms[s], 1 << atoms[s + 1]]
    if with_complement:
        frag.append(join ^ 0xFFFF)
    return frag


def stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi]."""
    width = (hi - lo + 1) / count
    return [lo + int(width * i + rng.random() * width) for i in range(count)]


# ---------------------------------------------------------------------------
# fuzzy reference: fuzzy diagrams and contradiction degrees

def fuzzy_diagram_document(rng: random.Random, k: int, large: bool):
    """A fuzzy diagram over a fuzzy powerset order, with its expected table
    of (kind, mu, nu) cells and bi-implication verdicts on every pair."""
    dens = Denominators(rng, large)
    labels, leq = powerset_shape(k)
    mu, nu = fuzzy_order(leq, dens)
    n, mask = 1 << k, (1 << k) - 1
    frag = rng.sample(range(n), rng.randint(min(2, n), min(6, n)))
    tolerance = Fraction(rng.randint(1, 20), 100)
    kinds = ref_table(frag, mask)

    def witness(kind: str, x: int, y: int):
        edge = {"BI": (x, y), "LI": (x, y), "RI": (y, x), "CD": (x, y ^ mask),
                "C": (x, y ^ mask), "SC": (y ^ mask, x)}.get(kind)
        return (ONE, ZERO) if edge is None else (mu[edge[0]][edge[1]], nu[edge[0]][edge[1]])

    table = tuple(tuple((kinds[a][b],) + witness(kinds[a][b], x, y)
                        for b, y in enumerate(frag)) for a, x in enumerate(frag))
    bi = tuple(abs(mu[x][y] - nu[x][y]) <= tolerance for x in frag for y in frag)
    doc = {"lattice": relation_json(labels, mu, nu, "carrier"),
           "fragment": [labels[x] for x in frag], "tolerance": str(tolerance)}
    return json.dumps(doc), (table, bi)


def ref_implication(name: str, a: Fraction, b: Fraction) -> Fraction:
    if name == "kleene-dienes":
        return max(ONE - a, b)
    if name == "lukasiewicz":
        return min(ONE, ONE - a + b)
    if name == "godel":
        return ONE if a <= b else b
    return ONE - a + a * b  # reichenbach


def fuzzy_set_pair(rng: random.Random, size: int, large: bool):
    """Two fuzzy sets on one domain, and the expected (scalar, pointwise)
    contradiction degree under each implication with standard negation."""
    dens = Denominators(rng, large)
    domain = [f"p{i}" for i in range(size)]
    a = [dens.degree() for _ in domain]
    b = [dens.degree() for _ in domain]
    expected = {}
    for name in IMPLICATIONS:
        point = tuple(ref_implication(name, x, ONE - y) for x, y in zip(a, b))
        expected[name] = (min(point), point)
    texts = tuple(json.dumps(dict(zip(domain, map(str, vals)))) for vals in (a, b))
    return texts, expected


# ---------------------------------------------------------------------------
# workload inputs

def lattice_certify_inputs(seed: int) -> list[tuple]:
    """One pass: every (carrier, rung, denominator class) relation document,
    fuzzy diagrams on 8 and 16 elements and a fuzzy-set pair, in seeded order.

    Per denominator class that is 10 ops on carriers up to 4, 11 on 8 and
    9 on 16, so the median op lies inside the 8-element group and the p90
    op inside the 16-element group, never in the gap between two sizes.
    """
    rng = rng_for("lattice-certify", seed)
    items = []
    for large in (False, True):
        for n in (2, 4, 8, 16):
            for rung, smallest in RUNGS.items():
                if n >= smallest:
                    items.append(("certify", n, large) + certify_document(rng, n, rung, large))
        for k in (3, 3, 3, 4):
            items.append(("fuzzy-diagram", 1 << k, large) + fuzzy_diagram_document(rng, k, large))
        size = rng.randint(4, 16)
        items.append(("contradiction", size, large) + fuzzy_set_pair(rng, size, large))
    rng.shuffle(items)
    return items


CRISP_COPIES = 4  # draws of each group per pass; more draws, less seed-to-seed spread


def crisp_diagram_inputs(seed: int) -> list[tuple]:
    """One pass of crisp operations: (kind, size, payload, expected).

    ``CRISP_COPIES`` times over: the 14 sub-millisecond ops (infomorphisms,
    small axiom sweeps) and the 24 slow ones (16 tables, high-symmetry
    searches, 4-atom axioms) flank the 50 searches on low-symmetry
    fragments (each size 6-10 on each of 4-8 atoms, twice), so the median
    op lies among those searches and the p90 op among the tables.  Each
    copy draws fresh fragments, so p50 and p90 come from 200 and 96
    distinct inputs of the seed, not 50 and 24.
    """
    rng = rng_for("crisp-diagrams", seed)
    items = []
    for size in stratified(rng, 50, 200, 16 * CRISP_COPIES):
        frag = rng.sample(range(1 << 16), size)
        items.append(("relation-table", size, diagram_json(16, frag), ref_table(frag, 0xFFFF)))
    for size, k in itertools.product((6, 7, 8, 9, 10), (4, 5, 6, 7, 8) * 2 * CRISP_COPIES):
        frag = rng.sample(range(1, (1 << k) - 1), size)
        frag2, known = permuted_copy(rng, k, frag)
        mask = (1 << k) - 1
        items.append(("iso-low", size, (diagram_json(k, frag), diagram_json(k, frag2)),
                      (known, ref_table(frag, mask), ref_table(frag2, mask), None)))
    for s, with_complement in itertools.product((4, 5, 6), (False, True) * CRISP_COPIES):
        frag = high_symmetry_fragment(rng, s, with_complement)
        frag2, known = permuted_copy(rng, 16, frag)
        items.append(("iso-high", len(frag), (diagram_json(16, frag), diagram_json(16, frag2)),
                      (known, ref_table(frag, 0xFFFF), ref_table(frag2, 0xFFFF),
                       2 * math.factorial(s))))
    for i in range(8 * CRISP_COPIES):
        k = rng.randint(2, 4)
        mask = (1 << k) - 1
        frag = rng.sample(range(1 << k), rng.randint(2, min(8, 1 << k)))
        if i % 2:  # inclusion into a larger fragment: always an infomorphism
            rest = [b for b in range(1 << k) if b not in frag]
            frag2 = frag + rng.sample(rest, rng.randint(0, len(rest)))
            mapping = tuple(range(len(frag)))
        else:
            frag2 = rng.sample(range(1 << k), rng.randint(1, min(8, 1 << k)))
            mapping = tuple(rng.randrange(len(frag2)) for _ in frag)
        expected = ref_infomorphism(ref_table(frag, mask), ref_table(frag2, mask), mapping)
        items.append(("infomorphism", len(frag),
                      (diagram_json(k, frag), diagram_json(k, frag2), mapping), expected))
    for k in (1, 2, 3, 4) * 2 * CRISP_COPIES:
        size = 1 << k
        checks = 3 * size + 2 * size ** 2 + 2 * size ** 3  # 7 laws by arity
        atoms = rng.sample(ATOMS16, k)
        items.append(("axioms", k, json.dumps({"atoms": atoms}), checks))
    rng.shuffle(items)
    return items


def fuzzy_category_inputs(seed: int, count: int) -> list[int]:
    """Sampler seeds, one per operation."""
    rng = rng_for("fuzzy-category", seed)
    return [rng.getrandbits(32) for _ in range(count)]


def cli_fixtures(seed: int) -> tuple[dict[str, bytes], list[tuple]]:
    """Fixture files (name -> bytes) and the CLI operations over them:
    (name, argv, expected exit code), run from the fixture directory."""
    rng = rng_for("cli-suite", seed)
    files: dict[str, bytes] = {}

    def put(name: str, payload: str | bytes) -> str:
        files[name] = payload.encode() if isinstance(payload, str) else payload
        return name

    k = rng.randint(3, 4)
    mask = (1 << k) - 1
    frag = rng.sample(range(1, mask), 4)
    frag2, known = permuted_copy(rng, k, frag)
    other = rng.sample(range(1, mask), 5)
    labels = [f"F{i}" for i in range(4)]
    d = put("d.json", diagram_json(k, frag, labels))
    dp = put("dperm.json", diagram_json(k, frag2))
    do = put("dother.json", diagram_json(k, other))
    seeded_map = tuple(rng.randrange(4) for _ in range(4))
    info_code = 0 if ref_infomorphism(ref_table(frag, mask), ref_table(frag, mask), seeded_map) else 1

    # 16-element orders and lattice checks on them: the slowest ops after
    # the two sampling runs, with a cost fixed by their structure, so that
    # p90 falls among them
    rel = put("order.json", certify_document(rng, 16, "none", False)[0])
    chain = put("chain.json", certify_document(rng, 16, "complement", False)[0])
    m14 = put("m14.json", certify_document(rng, 16, "distributivity-m3", False)[0])
    brk = put("broken.json", certify_document(rng, 16, "transitivity", False)[0])
    fdf = put("fuzzy.json", fuzzy_diagram_document(rng, 3, False)[0])
    (a_text, b_text), _ = fuzzy_set_pair(rng, 5, False)
    fa, fb = put("a.json", a_text), put("b.json", b_text)
    bad_degree = put("baddegree.json", json.dumps({"x": "3/2"}))
    put("garbage.json", "{ not json")
    unknown_atom = put("unknownatom.json", json.dumps(
        {"algebra": {"atoms": ["a"]}, "fragment": [["zz"]]}))
    tiny = put("tiny.json", json.dumps({"x": "1e-5000"}))
    put("nonutf8.json", b'{"x": "\xff\xfe"}')
    deep = put("deep.json", "[" * 100_000 + "]" * 100_000)
    impl = rng.choice(IMPLICATIONS)
    cat_seed = rng.randrange(1000)

    ops = [
        ("canonical-square", ["canonical-square"], 0),
        ("canonical-square-json", ["canonical-square", "--format", "json"], 0),
        ("canonical-square-dot", ["canonical-square", "--format", "dot"], 0),
        ("validate-diagram", ["validate", d], 0),
        ("validate-bad-degree", ["validate", bad_degree], 2),
        ("validate-garbage", ["validate", "garbage.json"], 2),
        ("validate-missing", ["validate", "missing.json"], 2),
        ("classify", ["classify", d], 0),
        ("classify-json", ["classify", d, "--format", "json"], 0),
        ("classify-unknown-atom", ["classify", unknown_atom], 2),
        ("iso", ["iso", d, dp], 0),
        ("iso-json", ["iso", d, dp, "--format", "json"], 0),
        ("iso-map", ["iso", d, dp, "--map", ",".join(map(str, known))], 0),
        ("iso-none-json", ["iso", d, do, "--format", "json"], 1),
        ("info", ["info", d, d, "--map", "0,1,2,3"], 0),
        ("info-json", ["info", d, d, "--map", ",".join(map(str, seeded_map)), "--format", "json"],
         info_code),
        ("ifrel-check", ["ifrel-check", rel], 0),
        ("ifrel-check-json", ["ifrel-check", brk, "--format", "json"], 1),
        ("lattice-check", ["lattice-check", rel], 0),
        ("lattice-check-json", ["lattice-check", rel, "--format", "json"], 0),
        ("lattice-check-chain", ["lattice-check", chain], 1),
        ("lattice-check-chain-json", ["lattice-check", chain, "--format", "json"], 1),
        ("lattice-check-m14", ["lattice-check", m14], 1),
        ("lattice-check-m14-json", ["lattice-check", m14, "--format", "json"], 1),
        ("contradiction", ["contradiction", fa, fb, "--implication", impl], 0),
        ("contradiction-json", ["contradiction", fa, "--format", "json"], 0),
        ("fuzzy-classify", ["fuzzy-classify", fdf], 0),
        ("fuzzy-classify-json", ["fuzzy-classify", fdf, "--tolerance", "1/10", "--format", "json"], 0),
        ("category-check", ["category-check", "--seed", str(cat_seed), "--triples", "5"], 0),
        ("category-check-json",
         ["category-check", "--seed", str(cat_seed + 1), "--triples", "5", "--format", "json"], 0),
        ("dot", ["dot", d], 0),
        ("dot-fuzzy", ["dot", fdf], 0),
        # the README promises exit 2 for unreadable or malformed input
        ("dir-input", ["validate", "."], 2),
        ("non-utf8", ["classify", "nonutf8.json"], 2),
        ("deep-json", ["lattice-check", deep], 2),
        ("tiny-degree", ["contradiction", tiny], 2),
    ]
    rng.shuffle(ops)
    return files, ops
