"""The fuzz counterexample file format: a golden file and typed errors.

``golden/dima2ed-format1.counterexample.json`` is a format-1 file as
:meth:`Counterexample.save` writes it.  Every later checkout must load
it, replay it and write it back unchanged, and refuse a newer format by
number.  A file with a missing key or an edge that is no pair raises
:class:`ConfigurationError` naming the key or the edge.
"""

import json
import re
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.verify.fuzz import Counterexample, load_counterexample, replay

GOLDEN = Path(__file__).parent / "golden" / "dima2ed-format1.counterexample.json"


class TestGoldenCounterexample:
    def test_loads(self):
        ce = load_counterexample(GOLDEN)
        assert ce.format == 1
        assert ce.algorithm == "dima2ed"
        assert ce.graph().num_edges == 5

    def test_replays_clean(self):
        report = replay(GOLDEN)
        assert report.ok, report.summary()

    def test_retired_fastpath_tier_is_reported_skipped(self):
        # The file lists ``fastpath``, a tier whose core this checkout
        # deleted: the replay runs the others and names it as skipped.
        assert "fastpath" in load_counterexample(GOLDEN).tiers
        report = replay(GOLDEN)
        assert "fastpath" not in report.runs
        assert "fast-path delivery core" in report.skipped["fastpath"]
        assert "fastpath  SKIPPED: retired" in report.summary()

    def test_writes_back_byte_identical(self, tmp_path):
        text = GOLDEN.read_text()
        assert Counterexample.from_json(text).to_json() == text
        assert load_counterexample(GOLDEN).save(tmp_path / "ce.json").read_bytes() == GOLDEN.read_bytes()

    def test_format_2_is_refused_by_number(self):
        data = json.loads(GOLDEN.read_text())
        data["format"] = 2
        with pytest.raises(ConfigurationError, match="format 2"):
            Counterexample.from_json(json.dumps(data))


class TestMalformedCounterexample:
    @pytest.mark.parametrize("key", ["algorithm", "seed", "tiers", "edges"])
    def test_missing_key_is_named(self, key):
        data = json.loads(GOLDEN.read_text())
        del data[key]
        with pytest.raises(ConfigurationError, match=repr(key)):
            Counterexample.from_json(json.dumps(data))

    @pytest.mark.parametrize("edge", [[0, 1, 2], [3], 7])
    def test_edge_that_is_no_pair_is_named_on_load(self, edge):
        data = json.loads(GOLDEN.read_text())
        data["edges"].append(edge)
        with pytest.raises(ConfigurationError, match=re.escape(f"edge {edge!r}")):
            Counterexample.from_json(json.dumps(data))

    def test_edge_that_is_no_pair_is_named_by_graph(self):
        ce = Counterexample(algorithm="alg1", seed=1, tiers=["general"], edges=[(0, 1, 2)])
        with pytest.raises(ConfigurationError, match=r"edge \(0, 1, 2\)"):
            ce.graph()

    def test_not_an_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            Counterexample.from_json("[1, 2]")
