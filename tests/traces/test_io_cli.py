"""Trace serialization round-trips and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main as cli_main
from repro.traces import generate_trace
from repro.traces.io import dumps, load_trace, loads, save_trace
from tests.traces.rows import send, trace_of


class TestRoundTrip:
    @pytest.mark.parametrize("app", ["exmatex_lulesh", "df_minidft",
                                     "cesar_crystalrouter"])
    def test_roundtrip_preserves_everything(self, app):
        trace = generate_trace(app, n_ranks=8, steps=2, seed=3)
        again = loads(dumps(trace))
        assert again.app == trace.app
        assert again.n_ranks == trace.n_ranks
        assert again.meta == trace.meta
        assert list(again.events) == list(trace.events)
        for name, col in trace.columns.items():
            assert again.columns[name].dtype == col.dtype

    def test_roundtrip_through_file(self, tmp_path):
        trace = generate_trace("df_snap", n_ranks=8, steps=1)
        path = save_trace(trace, tmp_path / "t.jsonl")
        again = load_trace(path)
        assert list(again.events) == list(trace.events)

    @pytest.mark.parametrize("app", ["df_minife", "bp_kripke"])
    def test_dumps_is_a_fixed_point(self, app):
        trace = generate_trace(app, n_ranks=8, steps=2, seed=5)
        text = dumps(trace)
        assert dumps(loads(text)) == text

    def test_events_carry_python_scalars(self):
        trace = generate_trace("df_minidft", n_ranks=8, steps=1, seed=2)
        for trace_ in (trace, loads(dumps(trace))):
            for row in trace_.events:
                assert [type(v) for v in row] == [int] * 6 + [float]

    def test_analyses_identical_after_roundtrip(self):
        from repro.traces import analyze, figure2_summary
        trace = generate_trace("df_partisn", n_ranks=8, steps=1)
        again = loads(dumps(trace))
        assert analyze(again) == analyze(trace)
        assert figure2_summary(again) == figure2_summary(trace)


class TestFormatErrors:
    def test_empty(self):
        with pytest.raises(ValueError, match="header"):
            loads("")

    def test_event_before_header(self):
        with pytest.raises(ValueError, match="before header"):
            loads('{"k":"s","t":1,"r":0,"d":1,"g":0}')

    def test_duplicate_header(self):
        h = '{"k":"h","v":1,"app":"x","ranks":2,"meta":{}}'
        with pytest.raises(ValueError, match="duplicate"):
            loads(h + "\n" + h)

    def test_bad_version(self):
        with pytest.raises(ValueError, match="version"):
            loads('{"k":"h","v":99,"app":"x","ranks":2,"meta":{}}')

    def test_unknown_kind(self):
        h = '{"k":"h","v":1,"app":"x","ranks":2,"meta":{}}'
        with pytest.raises(ValueError, match="unknown record"):
            loads(h + '\n{"k":"z"}')

    def test_invalid_json_line(self):
        h = '{"k":"h","v":1,"app":"x","ranks":2,"meta":{}}'
        with pytest.raises(ValueError, match="invalid JSON"):
            loads(h + "\nnot json")
        with pytest.raises(ValueError, match="line 2: record is not"):
            loads(h + "\n[1, 2]")

    def test_blank_lines_tolerated(self):
        h = '{"k":"h","v":1,"app":"x","ranks":2,"meta":{}}'
        trace = loads(h + "\n\n\n")
        assert len(trace) == 0

    def test_missing_field(self):
        h = '{"k":"h","v":1,"app":"x","ranks":2,"meta":{}}'
        with pytest.raises(ValueError, match="line 2: missing field 'd'"):
            loads(h + '\n{"k":"s","t":1,"r":0,"g":0}')
        with pytest.raises(ValueError, match="line 1: missing field 'app'"):
            loads('{"k":"h","v":1,"ranks":2,"meta":{}}')

    def test_non_integer_value(self):
        h = '{"k":"h","v":1,"app":"x","ranks":2,"meta":{}}'
        with pytest.raises(ValueError, match="line 3: field 'g' must be int"):
            loads(h + '\n{"k":"p","t":1,"r":1,"s":0,"g":0}'
                  '\n{"k":"s","t":2,"r":0,"d":1,"g":1.5}')
        with pytest.raises(ValueError, match="line 1: field 'ranks'"):
            loads('{"k":"h","v":1,"app":"x","ranks":"2","meta":{}}')

    def test_non_finite_time(self):
        # json parses NaN and Infinity; a trace time must be finite
        h = '{"k":"h","v":1,"app":"x","ranks":2,"meta":{}}'
        with pytest.raises(ValueError, match="time nan at row 0"):
            loads(h + '\n{"k":"s","t":NaN,"r":0,"d":1,"g":0}'
                  '\n{"k":"p","t":1.0,"r":1,"s":0,"g":0}')
        with pytest.raises(ValueError, match="time inf at row 1"):
            loads(h + '\n{"k":"s","t":1.0,"r":0,"d":1,"g":0}'
                  '\n{"k":"p","t":Infinity,"r":1,"s":0,"g":0}')

    @pytest.mark.parametrize("meta", ["[1]", "5", '"ab"'])
    def test_header_meta_not_an_object(self, meta):
        with pytest.raises(ValueError, match="line 1: field 'meta' must be"):
            loads('{"k":"h","v":1,"app":"x","ranks":2,"meta":%s}' % meta)

    def test_header_meta_null_or_absent(self):
        for header in ('{"k":"h","v":1,"app":"x","ranks":2,"meta":null}',
                       '{"k":"h","v":1,"app":"x","ranks":2}'):
            assert loads(header).meta == {}

    def test_post_src_out_of_range(self):
        h = '{"k":"h","v":1,"app":"x","ranks":4,"meta":{}}'
        with pytest.raises(ValueError, match="post src 99 out of range"):
            loads(h + '\n{"k":"p","t":1,"r":1,"s":99,"g":0}')
        # ANY_SOURCE (-1) is the one source outside the rank range
        assert len(loads(h + '\n{"k":"p","t":1,"r":1,"s":-1,"g":0}')) == 1

    def test_defaults_and_integer_times(self):
        h = '{"k":"h","v":1,"app":"x","ranks":2}'
        trace = loads(h + '\n{"k":"s","t":1,"r":0,"d":1,"g":3}'
                      '\n{"k":"b","t":2,"r":1}')
        assert list(trace.events) == [(0, 0, 1, 3, 0, 8, 1.0),
                                      (2, 1, 0, 0, 0, 0, 2.0)]
        assert trace.meta == {}

    def test_jsonl_lines_are_json(self):
        trace = trace_of([send(1, rank=0, dst=1, tag=0)])
        for line in dumps(trace).strip().splitlines():
            json.loads(line)


class TestCLI:
    def test_apps(self, capsys):
        assert cli_main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "exmatex_lulesh" in out and "df_amg" in out

    def test_analyze_single(self, capsys):
        assert cli_main(["analyze", "df_snap"]) == 0
        assert "df_snap" in capsys.readouterr().out

    def test_trace_and_replay(self, tmp_path, capsys):
        path = str(tmp_path / "x.jsonl")
        assert cli_main(["trace", "exmatex_cmc", path,
                         "--ranks", "8", "--steps", "1"]) == 0
        assert cli_main(["replay", path]) == 0
        assert "exmatex_cmc" in capsys.readouterr().out

    def test_match(self, capsys):
        assert cli_main(["match", "256", "--relaxation",
                         "nowc+noord+pre"]) == 0
        assert "Mmatches/s" in capsys.readouterr().out

    def test_match_bad_relaxation(self, capsys):
        assert cli_main(["match", "64", "--relaxation", "nope"]) == 2
