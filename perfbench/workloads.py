"""The benchmark's three workloads: seeded inputs, one call chain per item, exact checks.

A workload is an endless stream of rounds.  Every round holds the same mix of
item classes in a seeded random order with seeded random inputs, so a run of a
few rounds measures the same work whatever the seed, and work counts per round
repeat exactly.  Each item returns its exact results (integers only) for the
output digest, or raises ``CheckFailed`` when two routes disagree.

Library functions are always looked up as module attributes at call time
(``sigchar.peel_decompose(...)``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from vermasig import classify, cli, quantum, shapovalov, sigchar


class CheckFailed(Exception):
    """Two routes disagreed, or a bound was violated, on one item."""


@dataclass(frozen=True)
class Item:
    """One timed unit of work: its class, the inputs the library receives,
    and a line that reproduces it."""

    kind: str
    args: tuple
    repro: str


def _generic_tuple(rng: random.Random, n: int, denominators, span: int) -> tuple[Fraction, ...]:
    while True:
        lams = [Fraction(rng.randint(-span, span), rng.choice(denominators)) for _ in range(n)]
        if all(sigchar.is_generic(x) for x in lams) and sigchar.is_generic(sum(lams)):
            return tuple(lams)


def _rationals(values) -> str:
    return ",".join(str(v) for v in values)


class Workload:
    name = ""

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny

    def round(self, seed: int, k: int) -> list[Item]:
        """Items of round k; the same (seed, k) always gives the same items."""
        rng = random.Random(f"{self.name}:{seed}:{k}")
        items = self._items(rng)
        rng.shuffle(items)
        return items

    def _items(self, rng: random.Random) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item, counts) -> tuple:
        raise NotImplementedError

    def shortfall(self, result: tuple) -> str | None:
        """Why a checked result is incomplete, or None when it is complete."""
        return None


class Oracle(Workload):
    """Peeling vs Shapovalov Gram inertia vs the q = 1 composition formula."""

    name = "oracle"
    # m capped by n so the largest Gram matrix is about 35 x 35
    LEVEL_CAP = {2: 12, 3: 7, 4: 5, 5: 4}
    TINY_LEVEL_CAP = {2: 3, 3: 2}
    DENOMINATORS = (2, 3, 5, 7, 97)
    SPAN = 200

    def _items(self, rng):
        caps = self.TINY_LEVEL_CAP if self.tiny else self.LEVEL_CAP
        items = []
        for n, cap in caps.items():
            for m in range(cap + 1):
                lams = _generic_tuple(rng, n, self.DENOMINATORS, self.SPAN)
                items.append(Item(f"n{n}m{m}", (lams, m), f"weights={_rationals(lams)} m={m}"))
        return items

    def run(self, item, counts):
        lams, m = item.args
        entry = sigchar.peel_decompose(lams, m).entry(m)
        inertia = shapovalov.exact_signature(shapovalov.gram_on_multiplicity(lams, m))
        formula = quantum.multiplicity_signature(lams, m, None)
        if inertia != (entry.pos, entry.neg) or formula != entry.signature:
            raise CheckFailed(
                f"peel (pos, neg)=({entry.pos}, {entry.neg}), Gram inertia={inertia}, "
                f"formula sgn={formula}"
            )
        return inertia


class Formulas(Workload):
    """Closed forms only: floor-type classification, the composition formula, quantum signs."""

    name = "formulas"
    FACTORS = (3, 4, 5)
    FLOORS = (-3, 3)
    TINY_FACTORS = (3,)
    TINY_FLOORS = (-1, 1)
    Q1_TOP_LEVEL = 4
    # q = exp(i pi p/D); items keep sum(a) <= D - 2, beyond which a quantum
    # integer vanishes and RootOfUnityError is the correct answer
    Q_PARAMS = ((1, 23), (2, 31), (5, 47), (3, 29))
    # one item per (t, n, sum(a)); only the split of sum(a) into a is random,
    # so the levels and compositions per round are the same for every seed
    Q_FACTORS = (2, 3, 4)
    Q_SUMS = tuple(range(2, 22, 3))
    TINY_Q_FACTORS = (2, 3)
    TINY_Q_SUMS = (2, 5)

    def __init__(self, tiny: bool = False) -> None:
        super().__init__(tiny)
        factors, (lo, hi) = (
            (self.TINY_FACTORS, self.TINY_FLOORS) if tiny else (self.FACTORS, self.FLOORS)
        )
        self.types = [t for n in factors for t in classify.consistent_types(n, lo, hi)]

    @staticmethod
    def level_bound(t) -> int:
        # the bound of the classification-fidelity acceptance criterion
        return 2 * sum(f + 1 for f in t.factor_floors if f >= 0) + 2 * t.n

    def _items(self, rng):
        items = []
        for t in self.types:
            rep_seed = rng.randrange(2**32)
            repro = f"type=({t.total_floor};{_rationals(t.factor_floors)}) representative_seed={rep_seed}"
            items.append(Item("type", (t, rep_seed), repro))
        factors, sums = (
            (self.TINY_Q_FACTORS, self.TINY_Q_SUMS) if self.tiny else (self.Q_FACTORS, self.Q_SUMS)
        )
        for p, d in self.Q_PARAMS:
            for n in factors:
                for total in sums:
                    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
                    a = tuple(hi - lo for lo, hi in zip((0, *cuts), (*cuts, total)))
                    items.append(Item("q", (a, p, d), f"a={_rationals(a)} t={p}/{d}"))
        return items

    def run(self, item, counts):
        if item.kind == "q":
            return self._run_q(*item.args)
        t, rep_seed = item.args
        lams = classify.representative_weights(t, random.Random(rep_seed))
        bound = self.level_bound(t)
        dec = sigchar.peel_decompose(lams, bound)
        definite = classify.classify_definite(t, bound).entries
        if dec.definite_levels(bound) != definite:
            raise CheckFailed(
                f"weights={_rationals(lams)} bound={bound}: classified {definite}, "
                f"peeled {dec.definite_levels(bound)}"
            )
        signatures = []
        for m in range(min(self.Q1_TOP_LEVEL, bound) + 1):
            sgn = quantum.multiplicity_signature(lams, m, None)
            if sgn != dec.entry(m).signature:
                raise CheckFailed(
                    f"weights={_rationals(lams)} m={m}: formula {sgn}, "
                    f"peeled {dec.entry(m).signature}"
                )
            signatures.append(sgn)
        return definite, tuple(signatures)

    @staticmethod
    def _run_q(a, p, d):
        qp = quantum.QParam(p, d)
        signatures = []
        for m in range(sum(a) // 2 + 1):
            sgn = quantum.multiplicity_signature(a, m, qp)
            dim = quantum.crystal_multiplicity(a, m)
            if abs(sgn) > dim or (dim - sgn) % 2:
                raise CheckFailed(f"m={m}: sgn={sgn} against crystal multiplicity {dim}")
            signatures.append(sgn)
        return tuple(signatures)


class Census(Workload):
    """Real critical-point counts through ``vermasig bethe ... --json``."""

    name = "census"
    # n = 3 twice as often as n = 4, every level once per round
    CLASSES = [(3, m) for m in range(1, 5)] * 2 + [(4, m) for m in range(1, 4)]
    TINY_CLASSES = [(3, 1), (3, 2)]
    DENOMINATORS = (7, 10, 11, 13)
    SPAN = 30

    def _items(self, rng):
        items = []
        for n, m in self.TINY_CLASSES if self.tiny else self.CLASSES:
            lams = _generic_tuple(rng, n, self.DENOMINATORS, self.SPAN)
            zs: list[Fraction] = []
            while len(zs) < n:
                c = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3)))
                if c not in zs:
                    zs.append(c)
            argv = [
                "bethe", "--weights", _rationals(lams), "--z", _rationals(zs),
                "-m", str(m), "--seed", str(rng.randrange(10**6)),
                "--threads", "1", "--json",
            ]
            items.append(Item(f"n{n}m{m}", tuple(argv), "vermasig " + " ".join(argv)))
        return items

    def run(self, item, counts):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(item.args))
        report = out.getvalue()
        counts["cli.report_bytes"] += len(report.encode())
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        (row,) = json.loads(report)["rows"]
        exact = tuple(row[k] for k in ("dim", "sgn", "n_real", "n_roots_found", "n_roots_real"))
        dim, sgn, n_real, found, found_real = exact
        # every real point found is one of the n_real real joint eigenvectors,
        # and a complete search finds all of them
        if not (
            abs(sgn) <= n_real <= dim
            and found <= dim
            and found_real <= min(found, n_real)
            and (found < dim or found_real == n_real)
        ):
            raise CheckFailed(
                f"dim={dim} sgn={sgn} n_real={n_real} n_roots_found={found} "
                f"n_roots_real={found_real}"
            )
        return exact

    def shortfall(self, result):
        # find_critical_points documents a shorter list as its way of falling
        # short: a miss to count and report, not a wrong answer
        dim, _, n_real, found, found_real = result
        if found < dim:
            return f"found {found} of {dim} critical points, {found_real} of {n_real} real ones"
        return None


WORKLOADS = {w.name: w for w in (Oracle, Formulas, Census)}
