"""Workload definitions: seeded input generation, the timed call on one
instance, and the untimed output check.

Each workload turns a seed into a list of canonical JSON texts (the
``io_json`` writers).  The timed call receives only that text and parses it
itself, as a CLI user's run does.  Parameters, the reason each workload
exists and the output digests of the default seed live in
``workloads.json`` beside this file.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from leraytop import (core, helly, homology, icss, io_json,  # noqa: E402
                      leray, multiproj)
from leraytop.cli import _lproj_instance  # noqa: E402
from leraytop.core import GuardExceeded  # noqa: E402
from leraytop.rng import CounterRng  # noqa: E402


@functools.cache
def spec():
    """workloads.json: parameters, timing rules and default-seed digests."""
    return json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))


def _params(name):
    return spec()["workloads"][name]["generator"]


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def output_digest(output) -> str:
    """Short stable digest of one instance's output."""
    text = json.dumps(_jsonable(output), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Result:
    """What the timed call returns: ``output`` is JSON-able and goes into
    the digest; ``keep`` holds the objects the untimed check needs."""
    output: object
    keep: dict = field(default_factory=dict)


def _instance_seeds(name, seed, count):
    salt = int.from_bytes(hashlib.sha256(name.encode()).digest()[:4], "big")
    rng = CounterRng((int(seed) << 32) ^ salt)
    return [rng.next_u64() for _ in range(count)]


class ResultCapture:
    """Records the return values of one function at one import site while
    active, so a check can re-examine objects a report does not carry."""

    def __init__(self, module, name):
        self.module = module
        self.name = name
        self.values = []
        self._saved = None

    def __enter__(self):
        self._saved = getattr(self.module, self.name)
        inner = self._saved
        values = self.values

        def capture(*args, **kwargs):
            out = inner(*args, **kwargs)
            values.append(out)
            return out

        setattr(self.module, self.name, capture)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.name, self._saved)
        return False

    def take(self):
        out = list(self.values)
        self.values.clear()
        return out


class Workload:
    name = ""

    def generate(self, seed, count=None) -> list:
        """Canonical JSON texts of the run's instances, in timed order."""
        raise NotImplementedError

    def session(self):
        """Context entered around a timed loop."""
        return contextlib.nullcontext()

    def run(self, text) -> Result:
        raise NotImplementedError

    def check(self, result: Result) -> bool:
        raise NotImplementedError


class Lproj(Workload):
    name = "lproj"

    def __init__(self):
        self.capture = ResultCapture(multiproj, "leray_by_links")

    def generate(self, seed, count=None):
        p = _params(self.name)
        count = p["instances"] if count is None else count
        out = []
        for s in _instance_seeds(self.name, seed, count):
            px = multiproj.random_partitioned_complex(
                p["parts"], [p["part_size"]] * p["parts"], p["dimension"],
                p["density"], s)
            out.append(io_json.partitioned_to_json(px))
        return out

    def session(self):
        return self.capture

    def run(self, text):
        self.capture.take()
        px = io_json.partitioned_from_json(text)
        report = multiproj.check_projection_theorem(px)
        certs = self.capture.take()
        witnesses = [c.witness for c in certs]
        return Result(dict(report, witnesses=witnesses),
                      {"px": px, "certs": certs})

    def check(self, result):
        rep = result.output
        px = result.keep["px"]
        certs = result.keep["certs"]
        if len(certs) != 2:
            return False
        cert_x, cert_y = certs
        r, lx, ly = rep["fiber_bound"], rep["leray_x"], rep["leray_y"]
        return (rep["holds"] and ly <= rep["bound"]
                and rep["bound"] == r * lx + r - 1
                and cert_x.value == lx and cert_y.value == ly
                and leray.check_witness(px.complex, cert_x)
                and leray.check_witness(multiproj.project(px), cert_y))


class HomologyLarge(Workload):
    name = "homology-large"

    def generate(self, seed, count=None):
        p = _params(self.name)
        count = p["instances"] if count is None else count
        lo, hi = p["sd_simplices"]
        out = []
        for s in _instance_seeds(self.name, seed, count):
            # redraw until sd X has the stated size: elimination cost grows
            # steeply with it, and a free draw varies it by a third
            for attempt in range(1000):
                X = multiproj.random_complex(p["vertices"], p["dimension"],
                                             p["density"], s + attempt)
                if lo <= len(core.subdivision(X).all_simplices()) <= hi:
                    break
            else:
                raise core.ComplexError("no complex of the stated size")
            out.append(io_json.complex_to_json(X))
        return out

    def run(self, text):
        X = io_json.complex_from_json(text)
        rb = homology.reduced_betti(X)
        S = core.subdivision(X)
        rs = homology.reduced_betti(S)
        return Result({"betti": rb.reduced, "euler": rb.euler,
                       "betti_sd": rs.reduced, "euler_sd": rs.euler,
                       "agree": rb.reduced == rs.reduced
                       and rb.euler == rs.euler},
                      {"X": X})

    def check(self, result):
        out = result.output

        def poincare(betti, euler):
            return euler - 1 == sum((-1) ** q * b for q, b in enumerate(betti))

        return (out["agree"] and tuple(out["betti"]) == tuple(out["betti_sd"])
                and out["euler"] == out["euler_sd"]
                and poincare(out["betti"], out["euler"])
                and poincare(out["betti_sd"], out["euler_sd"])
                and homology.euler_characteristic(result.keep["X"])
                == out["euler"])


class IcssE1(Workload):
    name = "icss-e1"

    def generate(self, seed, count=None):
        p = _params(self.name)
        lo, hi = p["cli_seeds"]
        cli_seeds = list(range(lo, hi))[:count]
        rng = CounterRng(_instance_seeds(self.name, seed, 1)[0])
        return [io_json.partitioned_to_json(
                    _lproj_instance(s, p["max_vertices"]))
                for s in rng.sample(cli_seeds, len(cli_seeds))]

    def run(self, text):
        guard = _params(self.name)["guard"]
        px = io_json.partitioned_from_json(text)
        reports = [icss.check_euler(px, guard=guard),
                   icss.check_proof_vanishing(px, guard=guard)]
        M2 = multiproj.multiple_point_complex(px, 2, guard=guard)
        reports.append(icss.check_alt_chain_iso(M2, guard=guard))
        return Result(reports)

    def check(self, result):
        return all(rep["holds"] for rep in result.output)


def fr_family(seed, d, groups, two_piece_groups, r, max_attempts=200):
    """Seeded valid grouped box family with a fixed number of two-piece
    groups; resamples until ``make_fr_family`` accepts it, as
    ``helly.random_fr_family`` does."""
    for attempt in range(max_attempts):
        rng = CounterRng(seed * 1009 + attempt)
        doubles = set(rng.sample(range(groups), two_piece_groups))
        base = {}
        grouping = []
        for gi in range(groups):
            pieces = []
            for pi in range(2 if gi in doubles else 1):
                for _ in range(20):
                    box = helly._random_box(rng, d)
                    if all(helly.boxes_disjoint(box, base[q]) for q in pieces):
                        name = "F%d_%d" % (gi, pi)
                        base[name] = box
                        pieces.append(name)
                        break
            if len(pieces) != (2 if gi in doubles else 1):
                break
            grouping.append(("G%d" % gi, tuple(pieces)))
        else:
            try:
                return helly.make_fr_family(helly.BoxFamily(d, base),
                                            grouping, r)
            except helly.FrValidationError:
                continue
    raise helly.FamilyError("no valid grouped family for seed %d" % seed)


def _moved(box, motion):
    """``box`` under x -> t + x or x -> t - x per axis."""
    out = []
    for (lo, hi), (flip, t) in zip(box.intervals, motion):
        out.append((t - hi, t - lo) if flip else (t + lo, t + hi))
    return helly.Box(tuple(out))


class HellyAmenta(Workload):
    name = "helly-amenta"

    def generate(self, seed, count=None):
        """A fixed pool of family shapes (drawn from ``pool_seed``), each
        moved by a seeded rigid motion per axis (an integer shift, maybe a
        reflection), in a seeded order.

        A motion keeps every intersection pattern and so every answer and
        the work to reach it: a free draw per seed varied the cost of a
        whole pool by +-10%, which no run length averages away.
        """
        p = _params(self.name)
        count = p["instances"] if count is None else count
        pool = [fr_family(s % (1 << 40), p["d"], p["groups"],
                          p["two_piece_groups"], p["r"])
                for s in _instance_seeds(self.name, p["pool_seed"], count)]
        rng = CounterRng(_instance_seeds(self.name, seed, 1)[0])
        out = []
        for i in rng.sample(range(count), count):
            fr = pool[i]
            motion = [(rng.randint(2), rng.randint(2 * p["shift"]) - p["shift"])
                      for _ in range(fr.dimension)]
            members = {g: [_moved(fr.base.members[q], motion) for q in pieces]
                       for g, pieces in fr.groups}
            out.append(io_json.family_to_json(fr.dimension, members))
        return out

    def run(self, text):
        d, members = io_json.family_from_json(text)
        pieces = {}
        grouping = []
        for name, boxes in members.items():
            names = []
            for i, box in enumerate(boxes):
                pname = "%s#%d" % (name, i)
                pieces[pname] = box
                names.append(pname)
            grouping.append((name, tuple(names)))
        fr = helly.make_fr_family(helly.BoxFamily(d, pieces), grouping,
                                  _params(self.name)["r"])
        return Result(helly.check_amenta(fr), {"fr": fr})

    def check(self, result):
        fr = result.keep["fr"]
        rep = result.output
        if not rep["holds"]:
            return False
        if len(fr.names) <= 12:
            return helly.helly_number_direct(fr, cap=12) == rep["helly"]
        return True


WORKLOADS = {w.name: w for w in (Lproj, HomologyLarge, IcssE1, HellyAmenta)}


def attempt(wl, text):
    """Run one instance: ("ok", result), ("refused", result) or
    ("failed", None).

    A guard refusal is the program's specified answer for an over-size
    input, so it is an outcome of its own; any other exception is a failure.
    """
    try:
        return "ok", wl.run(text)
    except GuardExceeded as exc:
        return "refused", Result({"refused": type(exc).__name__})
    except Exception:  # the loop must go on; the instance counts as failed
        traceback.print_exc(file=sys.stderr)
        return "failed", None


def default_digests(name):
    """Output digests of one pass over the default seed's instances."""
    wl = WORKLOADS[name]()
    digests = []
    with wl.session():
        for text in wl.generate(spec()["default_seed"]):
            outcome, result = attempt(wl, text)
            digests.append(None if result is None
                           else output_digest(result.output))
    return digests


if __name__ == "__main__":
    # Re-record the default seed's digests after a deliberate output change:
    #     python3 perfbench/workloads.py
    for name in WORKLOADS:
        spec()["workloads"][name]["outputs_sha256"] = default_digests(name)
    (HERE / "workloads.json").write_text(json.dumps(spec(), indent=2) + "\n",
                                         encoding="utf-8")
