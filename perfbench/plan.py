"""Seeded op lists for the four workloads.

Every op is one CLI invocation, given as the argv list a user would type
after ``deutschpaths``.  The program sees only these lists; the seed and
the expected answers stay on the benchmark side.

Sizes are drawn by stratified sampling: a family of ``k`` ops splits the
unit interval into ``k`` equal strata and draws one point uniformly
inside each, then the ops are shuffled.  Each op is still uniform on its
range, but two seeds cover the range equally well, so a run's medians
and totals depend on the program far more than on the seed.

All sizes stay below the two input ranges where the seed code is known
to fail (counts past 4,300 digits hit the int-to-str limit, and a
``list`` head op longer than about 980 steps hits the recursion limit),
because an op that fails has no latency to compare.  ``DEFECT_PROBES``
keeps both defects visible outside the timed ops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("list", "count", "forms", "crosscheck")

# Op families per unit of scale; a run of scale R issues R times these.
# The op mix printed with each run is derived from this table.
UNIT = {
    "list": {"list": 4, "head": 24},
    "count": {"count-closed": 16, "count-series": 8},
    "forms": {"gf": 12},
    "crosscheck": {"verify": 3, "table": 4, "tree": 60},
}

# Seconds of op time, at the reference host speed of ``calibrate``, that
# one unit of scale takes on the seed code.  Only the op count depends on
# it: a faster or slower program runs the same ops for a different time.
UNIT_SECONDS = {"list": 4.5, "count": 0.87, "forms": 1.0, "crosscheck": 6.5}

# Share of the scale a traced run uses: it runs its ops twice, untraced
# and traced, and the traced pass also pays for every span it records.
TRACE_SHARE = {"list": 0.25, "count": 0.5, "forms": 0.45, "crosscheck": 0.25}

HEAD_LINES = 1000
HEAD_LENGTHS = (50, 800)
LIST_LENGTHS = (12, 15)
COUNT_LENGTHS = (1_000, 11_000)
FORM_TERMS = (100, 400)
VERIFY_MAX = (10, 12)
TABLE_MAX = (50, 250)
TREE_LENGTHS = (20, 2_000)

# The benchmark's own copy of the form names; the checker holds a
# reference sequence for each.
FORMS = (
    "mountain",
    "bundle",
    "product",
    "with-empty",
    "partial-fractions",
    "continued-fraction",
    "gamma",
    "cf-closure",
    "tree-form",
    "dyck-nondecreasing",
    "square-first-tilings",
    "edge-or-path",
)

DEFECT_PROBES = (
    ("count", "--length", "11300"),  # 4,325 digits
    ("list", "--length", "1500"),  # read through a head sink
)


@dataclass(frozen=True)
class Op:
    """One CLI call plus what the checker needs to judge its output.

    ``size`` is the op's main parameter (length, terms or bound).  Tree
    ops carry the path they encode and the tree the benchmark expects;
    the runner follows each with a ``path`` op on the tree it printed.
    """

    kind: str
    argv: tuple[str, ...]
    size: int
    json: bool = False
    head: int | None = None
    form: str = ""
    path: str = ""
    tree: dict | None = None


def scale_for(workload: str, seconds: float, trace: bool) -> int:
    """Units of ``UNIT`` that fill ``seconds``; a traced run takes its
    share of that and runs it twice."""
    share = TRACE_SHARE[workload] if trace else 1.0
    return max(1, round(seconds * share / UNIT_SECONDS[workload]))


def strata(rng: random.Random, count: int) -> list[float]:
    """One uniform point in each of ``count`` equal strata of [0, 1), shuffled."""
    points = [(j + rng.random()) / count for j in range(count)]
    rng.shuffle(points)
    return points


def log_uniform(u: float, lo: int, hi: int) -> int:
    return round(lo * (hi / lo) ** u)


def uniform_int(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def halves(rng: random.Random, count: int) -> list[bool]:
    """``count`` flags, half of them set (one more or less when odd), shuffled."""
    return [u < 0.5 for u in strata(rng, count)]


def make_plan(workload: str, seed: int, scale: int) -> list[Op]:
    """The op list of one run: same workload, seed and scale, same ops."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, scale)
    rng.shuffle(ops)
    return ops


def _list_ops(rng: random.Random, scale: int) -> list[Op]:
    ops = []
    for n in range(LIST_LENGTHS[0], LIST_LENGTHS[1] + 1):
        for as_json in halves(rng, UNIT["list"]["list"] // 4 * scale):
            argv = ("list", "--length", str(n)) + (("--json",) if as_json else ())
            ops.append(Op("list", argv, n, json=as_json))
    for u in strata(rng, UNIT["list"]["head"] * scale):
        length = log_uniform(u, *HEAD_LENGTHS)
        ops.append(Op("head", ("list", "--length", str(length)), length, head=HEAD_LINES))
    return ops


def _count_ops(rng: random.Random, scale: int) -> list[Op]:
    ops = []
    for method in ("closed", "series"):
        for u in strata(rng, UNIT["count"][f"count-{method}"] * scale):
            n = log_uniform(u, *COUNT_LENGTHS)
            ops.append(Op("count", ("count", "--length", str(n), "--method", method), n))
    return ops


def _form_ops(rng: random.Random, scale: int) -> list[Op]:
    ops = []
    for form in FORMS:
        for u, as_json in zip(strata(rng, scale), halves(rng, scale)):
            terms = log_uniform(u, *FORM_TERMS)
            argv = ("gf", "--form", form, "--terms", str(terms))
            argv += ("--json",) if as_json else ()
            ops.append(Op("gf", argv, terms, json=as_json, form=form))
    return ops


def _crosscheck_ops(rng: random.Random, scale: int) -> list[Op]:
    ops = []
    for u in strata(rng, UNIT["crosscheck"]["verify"] * scale):
        top = uniform_int(u, *VERIFY_MAX)
        ops.append(Op("verify", ("verify", "--max", str(top)), top))
    count = UNIT["crosscheck"]["table"] * scale
    for u, as_json in zip(strata(rng, count), halves(rng, count)):
        top = uniform_int(u, *TABLE_MAX)
        argv = ("table", "--max", str(top)) + (("--json",) if as_json else ())
        ops.append(Op("table", argv, top, json=as_json))
    for u in strata(rng, UNIT["crosscheck"]["tree"] * scale):
        length = log_uniform(u, *TREE_LENGTHS)
        homerun, bundles = random_decomposition(rng, length)
        path = compose_tokens(homerun, bundles)
        ops.append(
            Op(
                "tree",
                ("tree", "--path", path, "--json"),
                length,
                json=True,
                path=path,
                tree=tree_record(homerun, bundles),
            )
        )
    return ops


_BUILDERS = {
    "list": _list_ops,
    "count": _count_ops,
    "forms": _form_ops,
    "crosscheck": _crosscheck_ops,
}


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_decomposition(
    rng: random.Random, length: int
) -> tuple[list[int], list[list[list[int]]]]:
    """A random split of a weakly-increasing-valley path of ``length`` >= 20.

    Returns the home run (a composition of the height) and, per level
    below the height, the mountains based there, each given by its
    descent (a composition of its rise).  A mountain of rise ``u`` and
    ``d`` descent steps has length ``u + d``.
    """
    height = rng.randint(1, max(1, length // 6))
    parts = rng.randint(1, height)
    homerun = _composition(rng, height, parts)
    bundles: list[list[list[int]]] = [[] for _ in range(height)]
    budget = length - height - parts  # at least 2 * length / 3, so never 1
    while budget:
        size = rng.randint(2, min(budget, 12))
        if budget - size == 1:  # a single leftover step fits no mountain
            size = budget
        rise = rng.randint((size + 1) // 2, size - 1)
        bundles[rng.randrange(height)].append(_composition(rng, rise, size - rise))
        budget -= size
    return homerun, bundles


def compose_tokens(homerun: list[int], bundles: list[list[list[int]]]) -> str:
    """The path of a decomposition as CLI tokens: each level's mountains,
    one backbone up-step per level, then the home run."""
    tokens: list[str] = []
    for bundle in bundles:
        for descent in bundle:
            tokens += ["U"] * sum(descent) + [f"D{d}" for d in descent]
        tokens.append("U")
    tokens += [f"D{d}" for d in homerun]
    return " ".join(tokens)


def _marks(parts: list[int]) -> list[str]:
    # a part d becomes d - 1 single edges closed by one double edge
    marks: list[str] = []
    for d in parts:
        marks += ["s"] * (d - 1) + ["d"]
    return marks


def tree_record(homerun: list[int], bundles: list[list[list[int]]]) -> dict:
    """The marked tree of a decomposition, as the decoded ``tree --json`` record."""
    return {
        "backbone": _marks(homerun),
        "bundles": [[_marks(descent) for descent in bundle] for bundle in bundles],
    }


def op_mix(ops: list[Op]) -> dict[str, int]:
    """Op count per family; a tree op counts its follow-up path op too."""
    mix: dict[str, int] = {}
    for op in ops:
        key = op.kind
        if op.kind == "count":
            key = f"count-{op.argv[-1]}"
        elif op.json and op.kind in ("list", "gf", "table"):
            key = f"{op.kind}-json"
        mix[key] = mix.get(key, 0) + 1
        if op.kind == "tree":
            mix["path"] = mix.get("path", 0) + 1
    return mix
