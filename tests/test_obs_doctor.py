"""`repro doctor` / `repro hotspots` end-to-end, plus golden-text
byte-stability for their renderers.

Contracts under test:

* the renderers are pure — fixed inputs render the exact same bytes,
  render after render (golden constants below);
* a clean `--run-dir` run leaves no crash bundle and doctor exits 0;
* a guard-tripped run, a chaos-killed worker, and an unhandled engine
  exception each leave a schema-valid, atomically-written bundle and
  doctor exits 1 — deterministically, run after run;
* `repro watch` tailing tolerates a partially-written final JSONL line
  (satellite: buffer the fragment, never raise or drop it);
* `repro report` renders explicit "not recorded" placeholders for
  absent optional artifacts instead of omitting sections.
"""

import json

import pytest

from repro.cli import main
from repro.obs import load_crash_bundle, validate_crash_bundle
from repro.obs.flight import DECISION_TAIL
from repro.obs.live import read_events
from repro.obs.render import render_doctor, render_hotspots

HOTSPOTS_SUMMARY = {
    "sketch_capacity": 128,
    "pair_updates": 42,
    "pair_seconds_error_bound": 0.000123,
    "top_blocks": [
        {"block": "Person/t:smith", "candidate_pairs": 45, "max_error": 0},
        {"block": "Venue/v:sigmod", "candidate_pairs": 10, "max_error": 2},
    ],
    "top_pairs": [
        {
            "pair": "Person:r1|r2",
            "seconds": 0.004321,
            "recomputations": 3,
            "max_error_seconds": 0.0,
        },
    ],
    "channels": [
        {"channel": "name", "comparisons": 120},
        {"channel": "email", "comparisons": 30},
    ],
    "skew": {
        "Person": {
            "blocks": 12,
            "references": 40,
            "gini": 0.5132,
            "max_block": "t:smith",
            "max_block_size": 10,
            "max_pair_share": 0.6,
            "oversized": 1,
        },
        "Venue": {
            "blocks": 0,
            "references": 0,
            "gini": 0.0,
            "max_block": None,
            "max_block_size": 0,
            "max_pair_share": 0.0,
            "oversized": 0,
        },
    },
}

HOTSPOTS_GOLDEN = """\
hotspot attribution (sketch capacity 128, 42 pair timings, error bound 0.000123s):
  blocking skew:
    Person: 12 blocks, gini 0.5132, max t:smith (10 refs, 60.0% of pairs), oversized 1
    Venue: no blocks recorded
  top blocks by candidate pairs:
    Person/t:smith  45
    Venue/v:sigmod  10
  top pairs by recompute seconds:
    Person:r1|r2  0.004321s x3
  channel comparisons:
    name  120
    email  30"""

def _decision(seq, pair, decision, score):
    """A provenance record as ``DecisionRecord.to_dict()`` writes it."""
    return {
        "seq": seq,
        "pair": pair,
        "class_name": "Person",
        "decision": decision,
        "score": score,
        "threshold": 0.85,
        "s_rv": score,
        "t_rv": 0.5,
        "strong_support": 0,
        "weak_support": 0,
        "channels": {"name": score},
        "trigger": "seed",
        "trigger_pair": None,
        "recompute_index": 0,
    }


CRASH_BUNDLE = {
    "bundle_version": 2,
    "kind": "repro_crash_bundle",
    "reason": "unhandled ValueError during run",
    "phase": "iterate",
    "stop_reason": None,
    "exception": {"type": "ValueError", "message": "boom", "traceback": []},
    "config": {},
    "stats": {"degradations": [{"kind": "pool_rebuild", "detail": "worker died"}]},
    "decisions": [
        _decision(5, ["a", "b"], "merge", 0.91),
        _decision(6, ["a", "c"], "defer", 0.125),
    ],
    "lane_deaths": [
        {"pid": 4242, "reason": "exit code -9", "lane": "scoring worker"}
    ],
    "stacks": {},
}

DOCTOR_CRASHED_GOLDEN = """\
doctor: unhandled ValueError during run
  phase: iterate
  exception: ValueError: boom
  degradations (1 recorded):
    [pool_rebuild] worker died
  last decisions (2 of 2 retained):
    a <-> b [Person] merge score=0.9100
    a <-> c [Person] defer score=0.1250
  lane deaths (1 recorded):
    died: scoring worker pid=4242: exit code -9
  hint: an unhandled exception ended the run; the decisions tail in crash_bundle.json shows the last work before it
  hint: worker processes died under supervision; rerun with --workers 1 to isolate the fault, and check memory limits
  hint: parallel scoring degraded (pool rebuilt or serial fallback); results are unchanged but slower
  verdict: crashed"""


class TestGoldenRenderers:
    def test_hotspots_golden(self):
        assert render_hotspots(HOTSPOTS_SUMMARY) == HOTSPOTS_GOLDEN
        assert render_hotspots(HOTSPOTS_SUMMARY) == render_hotspots(
            HOTSPOTS_SUMMARY
        )

    def test_hotspots_empty_golden(self):
        assert render_hotspots({}) == (
            "hotspot attribution (sketch capacity 0, 0 pair timings, "
            "error bound 0.000000s):\n  (nothing recorded)"
        )

    def test_doctor_crashed_golden(self):
        validate_crash_bundle(CRASH_BUNDLE)  # the fixture is a real v2 bundle
        assert render_doctor(CRASH_BUNDLE) == DOCTOR_CRASHED_GOLDEN
        assert render_doctor(CRASH_BUNDLE) == render_doctor(CRASH_BUNDLE)

    def test_doctor_nothing_golden(self):
        assert render_doctor(None, None) == (
            "doctor: nothing to diagnose "
            "(no crash_bundle.json or run.json found)\n  verdict: unknown"
        )

    def test_doctor_clean_golden(self):
        manifest = {
            "run": {"completed": True, "stop_reason": "converged"},
            "degradations": [],
        }
        assert render_doctor(None, manifest) == (
            "doctor: clean run (converged; no crash bundle)\n  verdict: clean"
        )

    def test_doctor_degraded_manifest_only_golden(self):
        manifest = {
            "run": {"completed": False, "stop_reason": "deadline"},
            "degradations": [
                {"kind": "deadline", "detail": "wall clock exceeded 1s"}
            ],
        }
        assert render_doctor(None, manifest) == (
            "doctor: degraded run (no crash bundle recorded)\n"
            "  stop_reason: deadline\n"
            "    [deadline] wall clock exceeded 1s\n"
            "  hint: a run guard tripped; raise --deadline / "
            "--max-recomputations or reduce the dataset scale\n"
            "  verdict: degraded"
        )


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("doctor_cli") / "dataset"
    assert main(["generate", "A", str(directory), "--scale", "0.15"]) == 0
    return directory


class TestDoctorExitCodes:
    def test_clean_run_no_bundle_exit_zero(self, dataset_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["evaluate", str(dataset_dir), "--run-dir", str(run_dir)]) == 0
        assert not (run_dir / "crash_bundle.json").exists()
        assert main(["doctor", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "verdict: clean" in out

    def test_guard_trip_dumps_bundle_and_exit_one(
        self, dataset_dir, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        assert (
            main(
                [
                    "evaluate",
                    str(dataset_dir),
                    "--run-dir",
                    str(run_dir),
                    "--max-recomputations",
                    "40",
                ]
            )
            == 0
        )
        bundle = load_crash_bundle(run_dir)
        assert bundle is not None
        validate_crash_bundle(bundle)
        assert bundle["reason"] == "degraded run: budget"
        assert bundle["stop_reason"] == "budget"
        assert bundle["stats"]["degradations"][-1]["kind"] == "budget"
        # The bundle is a recorded artifact of the run.
        manifest = json.loads((run_dir / "run.json").read_text())
        assert manifest["artifacts"]["crash_bundle"] == "crash_bundle.json"
        capsys.readouterr()  # drain the evaluate's own output
        assert main(["doctor", str(run_dir)]) == 1
        first = capsys.readouterr().out
        assert "verdict: degraded" in first
        assert "hint: a run guard tripped" in first
        # Byte-determinism: a second diagnosis renders identical text.
        assert main(["doctor", str(run_dir)]) == 1
        assert capsys.readouterr().out == first

    def test_stale_bundle_cleared_by_fresh_clean_run(self, dataset_dir, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "crash_bundle.json").write_text("{}")
        assert main(["evaluate", str(dataset_dir), "--run-dir", str(run_dir)]) == 0
        assert not (run_dir / "crash_bundle.json").exists()
        assert main(["doctor", str(run_dir)]) == 0

    def test_nothing_to_diagnose_exit_two(self, tmp_path, capsys):
        assert main(["doctor", str(tmp_path)]) == 2
        assert "nothing to diagnose" in capsys.readouterr().out

    def test_unhandled_exception_dumps_bundle(
        self, dataset_dir, tmp_path, monkeypatch
    ):
        from repro.core import Reconciler

        def explode(self, *args, **kwargs):
            raise RuntimeError("injected mid-iterate failure")

        monkeypatch.setattr(Reconciler, "_iterate_loop", explode)
        run_dir = tmp_path / "run"
        with pytest.raises(RuntimeError, match="injected mid-iterate"):
            main(["evaluate", str(dataset_dir), "--run-dir", str(run_dir)])
        bundle = load_crash_bundle(run_dir)
        assert bundle is not None
        validate_crash_bundle(bundle)
        assert bundle["reason"] == "unhandled RuntimeError during run"
        assert bundle["exception"]["type"] == "RuntimeError"
        assert bundle["phase"] == "iterate"  # the build had finished
        assert bundle["stats"]["candidate_pairs"] > 0  # build counters survived
        assert main(["doctor", str(run_dir)]) == 1

    def test_chaos_killed_worker_dumps_bundle_with_lanes(
        self, dataset_dir, tmp_path, monkeypatch, capsys
    ):
        """The CI crash-bundle scenario: a chaos-killed build worker on a
        parallel run leaves a schema-valid bundle naming the dead lane,
        and doctor diagnoses it nonzero."""
        run_dir = tmp_path / "run"
        monkeypatch.setenv("REPRO_CHAOS", '{"kill_at_chunk": 1}')
        assert (
            main(
                [
                    "evaluate",
                    str(dataset_dir),
                    "--run-dir",
                    str(run_dir),
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        bundle = load_crash_bundle(run_dir)
        assert bundle is not None
        validate_crash_bundle(bundle)
        kinds = {entry["kind"] for entry in bundle["stats"]["degradations"]}
        assert "pool_rebuild" in kinds  # the worker really died
        # The pool teardown was attributed to the killed worker's lane.
        assert bundle["lane_deaths"]
        assert bundle["decisions"] == _provenance_tail(run_dir, DECISION_TAIL)
        capsys.readouterr()
        assert main(["doctor", str(run_dir)]) == 1
        out = capsys.readouterr().out
        assert "verdict: degraded" in out
        # One or both workers, depending on whether the killed one was
        # already reaped when the pool was torn down.
        assert f"lane deaths ({len(bundle['lane_deaths'])} recorded):" in out


    def test_second_chaos_run_into_the_same_run_dir_fires_again(
        self, tmp_path, monkeypatch
    ):
        """A fresh run clears the markers an earlier chaos run claimed,
        so its own injected fault fires too."""
        dataset_dir = tmp_path / "dataset"
        assert main(["generate", "B", str(dataset_dir), "--scale", "0.1"]) == 0
        run_dir = tmp_path / "run"
        monkeypatch.setenv("REPRO_CHAOS", '{"kill_at_chunk": 1}')
        argv = ["evaluate", str(dataset_dir), "--run-dir", str(run_dir), "--workers", "2"]
        for attempt in ("first", "second"):
            assert main(argv) == 0
            bundle = load_crash_bundle(run_dir)
            assert bundle is not None, f"{attempt} run injected no fault"
            kinds = {entry["kind"] for entry in bundle["stats"]["degradations"]}
            assert "pool_rebuild" in kinds, attempt
            assert bundle["lane_deaths"], attempt


    def test_resumed_run_keeps_the_chaos_markers(self, tmp_path):
        """Only a fresh run clears them: on --resume they are what makes
        "crash once, then recover" fire once."""
        from argparse import Namespace

        from repro.cli import CHAOS_MARKER_DIRNAME, _apply_run_dir

        run_dir = tmp_path / "run"
        claimed = run_dir / CHAOS_MARKER_DIRNAME / "kill_at_chunk"
        claimed.parent.mkdir(parents=True)
        claimed.touch()
        _apply_run_dir(Namespace(run_dir=str(run_dir), resume="checkpoint.json"))
        assert claimed.exists()
        _apply_run_dir(Namespace(run_dir=str(run_dir), resume=None))
        assert not claimed.parent.exists()


def _provenance_tail(run_dir, count):
    """The last *count* records of the run's ``provenance.jsonl``."""
    lines = (run_dir / "provenance.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines[-count:]]


@pytest.fixture(scope="module")
def tail_dataset_dir(tmp_path_factory):
    """PIM A at scale 0.3: about 370 decisions, more than one tail."""
    directory = tmp_path_factory.mktemp("doctor_tail") / "dataset"
    assert main(["generate", "A", str(directory), "--scale", "0.3"]) == 0
    return directory


class TestBundleDecisionsAreTheProvenanceTail:
    """Metamorphic: the bundle is assembled from the run's own
    provenance log, so its ``decisions`` are exactly the last
    ``DECISION_TAIL`` lines of ``provenance.jsonl`` — however the run
    ended."""

    def test_guard_tripped_run(self, tail_dataset_dir, tmp_path):
        run_dir = tmp_path / "run"
        args = ["evaluate", str(tail_dataset_dir), "--run-dir", str(run_dir)]
        assert main(args + ["--max-recomputations", "300"]) == 0
        bundle = load_crash_bundle(run_dir)
        assert bundle["stop_reason"] == "budget"
        lines = (run_dir / "provenance.jsonl").read_text().splitlines()
        assert len(lines) > DECISION_TAIL  # the tail really is a tail
        assert bundle["decisions"] == _provenance_tail(run_dir, DECISION_TAIL)

    def test_unhandled_exception_run(self, tail_dataset_dir, tmp_path, monkeypatch):
        from repro.core import Reconciler

        process = Reconciler._process
        calls = []

        def failing_process(self, node):
            calls.append(node.key)
            if len(calls) == 280:
                raise RuntimeError("injected decision failure")
            return process(self, node)

        monkeypatch.setattr(Reconciler, "_process", failing_process)
        run_dir = tmp_path / "run"
        with pytest.raises(RuntimeError, match="injected decision failure"):
            main(["evaluate", str(tail_dataset_dir), "--run-dir", str(run_dir)])
        bundle = load_crash_bundle(run_dir)
        assert bundle["exception"]["type"] == "RuntimeError"
        lines = (run_dir / "provenance.jsonl").read_text().splitlines()
        assert len(lines) > DECISION_TAIL
        assert bundle["decisions"] == _provenance_tail(run_dir, DECISION_TAIL)
        # The failing decision was never taken, so the tail ends one
        # pop before it.
        assert bundle["decisions"][-1]["pair"] == list(calls[-2])


class TestHotspotsCommand:
    def test_hotspots_text_and_json(self, dataset_dir, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["evaluate", str(dataset_dir), "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["hotspots", str(run_dir)]) == 0
        text = capsys.readouterr().out
        assert text.startswith("hotspot attribution")
        assert "blocking skew:" in text
        assert main(["hotspots", str(run_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pair_updates"] > 0
        assert "skew" in payload
        # Determinism: same run dir, same bytes.
        assert main(["hotspots", str(run_dir)]) == 0
        assert capsys.readouterr().out == text

    def test_hotspots_missing_manifest_exit_two(self, tmp_path, capsys):
        assert main(["hotspots", str(tmp_path)]) == 2
        assert "no run.json" in capsys.readouterr().err

    def test_hotspots_manifest_without_attribution_exit_two(
        self, tmp_path, capsys
    ):
        (tmp_path / "run.json").write_text(
            json.dumps({"execution": {"hotspots": None}})
        )
        assert main(["hotspots", str(tmp_path)]) == 2
        assert "no hotspot attribution" in capsys.readouterr().err


class TestWatchPartialLine:
    def test_read_events_holds_back_unterminated_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        complete = {"event": "build_start", "level": "info"}
        path.write_text(json.dumps(complete) + "\n" + '{"event": "build_')
        events = read_events(path)
        assert events == [complete]  # fragment buffered, not raised/dropped

    def test_fragment_is_picked_up_once_completed(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "run_start"}\n{"event": "run_')
        assert len(read_events(path)) == 1
        with path.open("a") as handle:
            handle.write('end"}\n')
        assert [event["event"] for event in read_events(path)] == [
            "run_start",
            "run_end",
        ]

    def test_interior_corruption_still_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"event": "a"}\nnot json at all\n{"event": "b"}\n')
        assert [event["event"] for event in read_events(path)] == ["a", "b"]


class TestReportPlaceholders:
    def test_absent_artifacts_render_explicit_placeholders(
        self, dataset_dir, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        assert main(["evaluate", str(dataset_dir), "--run-dir", str(run_dir)]) == 0
        assert main(["report", str(run_dir)]) == 0
        html = (run_dir / "report.html").read_text()
        # Serial run without --trace/--profile: every optional section is
        # present with an explicit "not recorded" note, never omitted.
        assert "No trace recorded" in html
        assert "No profile recorded" in html
        assert "No poisoned-pair log recorded" in html
        assert "<h2>Workload hotspots</h2>" in html
        assert "blocking skew" in html.lower() or "Gini" in html
