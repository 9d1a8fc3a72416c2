"""The default-seed outputs of the benchmark workloads still match the
digests recorded in ``perfbench/workloads.json``, and a default-seed
``lproj`` pass does the work it is known to need.  Reads ``perfbench/``
and writes nothing there."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from leraytop import core, homology  # noqa: E402


@pytest.mark.parametrize("name", ["lproj", "icss-e1", "helly-amenta"])
def test_default_seed_digests_match_the_record(name):
    recorded = workloads.spec()["workloads"][name]["outputs_sha256"]
    assert workloads.default_digests(name) == recorded


def _count(monkeypatch, owner, fn, counts, key, size=None):
    """Wrap ``fn`` on ``owner`` (a class) or on every ``leraytop`` module
    that binds it, adding one per call to ``counts[key]``, or
    ``size(output)`` when ``size`` is given."""
    def counted(*args, **kwargs):
        out = fn(*args, **kwargs)
        counts[key] += 1 if size is None else size(out)
        return out

    owners = [owner] if owner is not None else [
        m for name, m in list(sys.modules.items())
        if name.startswith("leraytop") and getattr(m, fn.__name__, None) is fn]
    for o in owners:
        monkeypatch.setattr(o, fn.__name__, counted)


def test_lproj_pass_does_its_known_work(monkeypatch):
    # per instance: 2 link cores taken (of lk(()) = X and of the image),
    # 4 ranks in the image's reduced_betti,
    # X's simplex list read by the Leray scan, the hollow-simplex
    # certificate and the section table, and the image's by its Leray scan
    # and reduced_betti.  A faster pass must come from doing each job
    # once, not from skipping any of this.
    counts = dict(core=0, rank=0, betti=0, simplices=0)
    _count(monkeypatch, None, core._strong_core, counts, "core")
    _count(monkeypatch, None, homology.rank_of_rows, counts, "rank")
    _count(monkeypatch, None, homology.reduced_betti, counts, "betti")
    _count(monkeypatch, core.SimplicialComplex,
           core.SimplicialComplex.all_simplices, counts, "simplices", len)
    wl = workloads.Lproj()
    texts = wl.generate(workloads.spec()["default_seed"])
    with wl.session():
        for text in texts:
            wl.run(text)
    assert len(texts) == 20
    assert (counts["core"], counts["rank"], counts["betti"]) == (40, 80, 20)
    assert counts["simplices"] <= 40_069, counts
