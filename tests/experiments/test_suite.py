"""The paper suite's claims and command line, on synthetic results.

Each conforming result below carries the values a full run measures;
each case moves one value across one claim's threshold.  Nothing is
simulated.
"""

from dataclasses import replace

import pytest

from repro.baselines.vector_machine import VariantResult
from repro.experiments import REGISTRY, main, table1, table2, table3
from repro.experiments.figures import RooflineFigure
from repro.experiments.suite import MRFBlock, build_models
from repro.experiments.tables import Table4Row
from repro.perf.memsweep import SweepPoint
from repro.perf.roofline import Roofline, RooflinePoint


def _row(system, time_ms, workload="", detail=""):
    return Table4Row(system, workload, detail, time_ms, None, None, None,
                     "simulated")


def _mrf(titan=92.1, vip=48.9, hier=41.5, image_rows=1080):
    return MRFBlock([_row("Pascal Titan X", titan),
                     _row("VIP (baseline BP-M)", vip),
                     _row("VIP (hierarchical BP-M)", hier)],
                    [("iteration", 6.12)], image_rows)


def _cnn(conv=104.7, b16=562.5, b1=35.8, vgg19=45.6, jetson=42.2):
    return [_row("Eyeriss-scaled", 85.3, "vgg16-conv"),
            _row("VIP", conv, "vgg16-conv", "batch 3, simulated"),
            _row("VIP", b16, "vgg16-full", "batch 16, simulated"),
            _row("VIP", b1, "vgg16-full", "batch 1, simulated"),
            _row("Jetson TX2", jetson, "vgg19-full"),
            _row("VIP", vgg19, "vgg19-full", "batch 1, simulated")]


def _figure(points, roofline=Roofline.for_vip()):
    """A roofline panel of ``name: (arithmetic intensity, GOp/s)``
    points."""
    return RooflineFigure("f", roofline, [
        RooflinePoint(name, ai, gops) for name, (ai, gops) in points.items()])


_3A = {"fhd": (1.17, 187.5), "qhd": (0.85, 131.2), "fhd cons": (0.30, 37.6)}
_3B = {"p3": (0.30, 90.6), "p4": (0.30, 90.9), "p5": (0.30, 34.1),
       "c3_2": (17.36, 970.3), "fc6": (1.00, 270.7), "fc7": (1.00, 265.1),
       "fc8": (0.99, 253.3)}
#: Figure 3c's batch-16 fc points.
_3C = {"fc6": (15.37, 971.2), "fc7": (14.95, 936.3), "fc8": (13.57, 911.8)}


def _figure3c(**moved):
    return _figure({**_3C, **moved}), _figure(_3B)


def _figure4(moved=None):
    times = {"RF-R": 0.223, "RF+R": 0.059, "SP-R": 0.208, "SP+R": 0.043}
    return [VariantResult(name, 0.0, ms)
            for name, ms in {**times, **(moved or {})}.items()]


_BP = {"open page": 6.116, "closed page": 10.684, "narrow row": 6.744,
       "wide row": 6.115, "fewer ranks": 8.411, "more ranks": 5.936,
       "refresh 2x": 6.200, "refresh 1x": 6.206}
_CNN = {"open page": 35.8, "closed page": 60.1, "narrow row": 36.6,
        "wide row": 35.7, "fewer ranks": 40.1, "more ranks": 35.3,
        "refresh 2x": 36.3, "refresh 1x": 36.5}


def _figure5(bp=None, cnn=None, with_cnn=True):
    points = [SweepPoint(name, "bp-fhd-iteration", ms, 0.0)
              for name, ms in {**_BP, **(bp or {})}.items()]
    if with_cnn:
        points += [SweepPoint(name, "vgg16-end-to-end", ms, 0.0)
                   for name, ms in {**_CNN, **(cnn or {})}.items()]
    return points


#: id -> a result on which every claim holds.
CONFORMING = {
    "table1": table1(),
    "table2": table2(),
    "table3": table3(),
    "table4-mrf": _mrf(),
    "table4-cnn": _cnn(),
    "figure3a": _figure(_3A),
    "figure3b": _figure(_3B),
    "figure3c": _figure3c(),
    "figure4": _figure4(),
    "figure5": _figure5(),
}

#: (id, a result with one value moved, the claims it fails).
CROSSINGS = [
    ("table1", table1().replace("VIP", "V1P"), ["Table I lists VIP"]),
    ("table2", table2().replace("nop", ""),
     ["Table II lists the matrix-vector group"]),
    ("table3", table3().replace("320 GB/s", "160 GB/s"),
     ["Table III's peak bandwidth is 320 GB/s"]),
    ("table4-mrf", _mrf(titan=48.0), ["VIP beats the Titan X on BP-M"]),
    ("table4-mrf", _mrf(vip=53.0),
     ["VIP runs full-HD BP-M within 25% of the 24 fps budget"]),
    ("table4-mrf", _mrf(hier=49.0), ["hierarchical BP-M beats baseline"]),
    ("table4-cnn", _cnn(conv=130.0),
     ["VIP's VGG-16 conv layers at batch 3 run within 1.5x of "
      "Eyeriss-scaled"]),
    ("table4-cnn", _cnn(b1=51.0),
     ["VIP runs VGG-16 at batch 1 in under 50 ms (near 24 fps)"]),
    ("table4-cnn", _cnn(b16=800.0),
     ["VGG-16 at batch 16 takes 10x to 20x batch 1 (no batching needed)"]),
    ("table4-cnn", _cnn(vgg19=64.0),
     ["VIP runs VGG-19 at batch 1 within 1.5x of the Jetson TX2"]),
    ("figure3a", _figure({**_3A, "fhd": (12.0, 187.5)}),
     ["the full-HD BP-M iteration sits near the knee (1 to 10 Op/B)"]),
    ("figure3a", _figure({**_3A, "fhd cons": (1.5, 37.6)}),
     ["construct has a lower arithmetic intensity than the iteration"]),
    ("figure3a", _figure(_3A, Roofline(100.0, 400.0)),
     ["construct is memory-bound"]),
    ("figure3b", _figure({**_3B, "p3": (5.0, 1000.0)}),
     ["p3 is memory-bound"]),
    ("figure3b", _figure({**_3B, "p4": (5.0, 1000.0)}),
     ["p4 is memory-bound"]),
    ("figure3b", _figure({**_3B, "p5": (5.0, 34.1)}),
     ["p5 is memory-bound"]),
    ("figure3b", _figure({**_3B, "p3": (0.30, 40.0)}),
     ["p3 reaches over half its roof"]),
    ("figure3b", _figure({**_3B, "p4": (0.30, 40.0)}),
     ["p4 reaches over half its roof"]),
    ("figure3b", _figure({**_3B, "c3_2": (17.36, 600.0)}),
     ["c3_2 reaches over half its roof"]),
    ("figure3b", _figure({**_3B, "fc8": (0.99, 330.0)}),
     ["fc8 runs at most 1.2x fc6's rate"]),
    ("figure3c", _figure3c(fc6=(1.0, 971.2)),
     ["batch 16 raises fc6's arithmetic intensity"]),
    ("figure3c", _figure3c(fc7=(0.9, 936.3)),
     ["batch 16 raises fc7's arithmetic intensity"]),
    ("figure3c", _figure3c(fc8=(0.5, 911.8)),
     ["batch 16 raises fc8's arithmetic intensity"]),
    ("figure4", _figure4({"SP-R": 0.04}),
     ["the reduction unit must help the scratchpad machine",
      "SP+R (VIP) is the fastest"]),
    ("figure4", _figure4({"RF+R": 0.3}),
     ["the reduction unit must help the RF machine"]),
    ("figure4", _figure4({"SP+R": 0.1}),
     ["the scratchpad must beat the register file (+R)",
      "SP+R (VIP) is the fastest"]),
    ("figure4", _figure4({"SP-R": 0.3}),
     ["the scratchpad must beat the register file (-R)"]),
    ("figure5", _figure5(bp={"closed page": 6.0}),
     ["open page must win for BP"]),
    ("figure5", _figure5(bp={"fewer ranks": 7.0}),
     ["losing bank parallelism must hurt BP badly"]),
    ("figure5", _figure5(bp={"more ranks": 6.5}),
     ["more ranks must not slow BP by over 5%"]),
    ("figure5", _figure5(bp={"refresh 2x": 6.6}),
     ["slower refresh must not help BP"]),
    ("figure5", _figure5(cnn={"closed page": 35.0}),
     ["open page must win for the CNN"]),
    ("figure5", _figure5(cnn={"refresh 1x": 40.0}),
     ["the CNN must tolerate refresh changes better than BP"]),
]


@pytest.mark.parametrize("eid", list(REGISTRY))
def test_every_claim_holds_on_a_conforming_result(eid):
    claims = list(REGISTRY[eid].claims(CONFORMING[eid]))
    assert claims and all(holds for _, holds in claims), claims


@pytest.mark.parametrize("eid, result, failed", CROSSINGS,
                         ids=[f"{eid}-{failed[0]}"
                              for eid, _, failed in CROSSINGS])
def test_a_value_across_its_threshold_fails_its_claim(eid, result, failed):
    assert REGISTRY[eid].failures(result) == failed


def test_every_claim_has_a_crossing():
    named = {claim for _, _, failed in CROSSINGS for claim in failed}
    for eid, result in CONFORMING.items():
        for claim, _ in REGISTRY[eid].claims(result):
            assert claim in named, (eid, claim)


def test_full_size_claims_are_not_checked_on_a_quick_run():
    """Below 1080 rows only the Titan X claim applies to BP-M, and
    Figure 5 on BP alone has no CNN claims."""
    quick = _mrf(vip=53.0, hier=60.0, image_rows=270)
    assert [c for c, _ in REGISTRY["table4-mrf"].claims(quick)] == [
        "VIP beats the Titan X on BP-M"]
    assert REGISTRY["table4-mrf"].failures(quick) == []
    bp_only = _figure5(with_cnn=False)
    assert len(list(REGISTRY["figure5"].claims(bp_only))) == 4
    assert REGISTRY["figure5"].failures(bp_only) == []


def test_quick_models_shrink_bp_only():
    quick, full = build_models(quick=True), build_models()
    assert (quick.bp.grid.image_rows, quick.bp.grid.image_cols,
            quick.bp.labels) == (270, 480, 8)
    assert (full.bp.grid.image_rows, full.bp.grid.image_cols,
            full.bp.labels) == (1080, 1920, 16)
    assert quick.hier.fine is quick.bp
    for models in (quick, full):
        assert {key: m.batch for key, m in models.cnn.items()} == {
            ("VGG-16", 1): 1, ("VGG-16", 3): 3, ("VGG-16", 16): 16,
            ("VGG-19", 1): 1}


def test_descriptive_tables_print_and_pass(capsys):
    assert main(["table1", "table2", "table3"]) == 0
    out, err = capsys.readouterr()
    assert out == "".join(f"\n{text}\n" for text in
                          (table1(), table2(), table3()))
    assert err == ""


def test_an_unknown_id_is_one_config_error(capsys):
    assert main(["table1", "figure9"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: config: unknown experiment figure9 ")


def test_a_failed_claim_exits_3_naming_it(monkeypatch, capsys):
    moved = table3().replace("320 GB/s", "160 GB/s")
    monkeypatch.setitem(REGISTRY, "table3",
                        replace(REGISTRY["table3"], compute=lambda m: moved))
    assert main(["table1", "table3"]) == 3
    out, err = capsys.readouterr()
    assert "160 GB/s" in out
    assert err == ("check failed: table3: Table III's peak bandwidth is "
                   "320 GB/s\n")
