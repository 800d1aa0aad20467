"""Live monitoring: HUD rendering, event-log folding, `repro watch`."""

import io
import json

from repro.cli import main
from repro.obs import (
    follow_events,
    read_events,
    render_hud,
    render_watch,
    watch_snapshot,
)


def _events_for_finished_run():
    return [
        {"event": "run_start", "dataset": "PIM B", "algorithm": "depgraph",
         "references": 328, "workers": 2},
        {"event": "build_start"},
        {"event": "build_end", "queued": 259},
        {"event": "iterate_start", "queued": 259},
        {"event": "iterate_progress", "step": 100, "queued": 120,
         "merges": 40, "recomputations": 100},
        {"event": "checkpoint_saved"},
        {"event": "lane_died", "pid": 7, "reason": "task timeout"},
        {"event": "iterate_end", "steps": 153, "merges": 79,
         "stop_reason": "converged"},
        {"event": "run_end", "completed": True, "stop_reason": "converged",
         "merges": 79, "recomputations": 153},
    ]


class TestRenderers:
    def test_hud_line_is_byte_stable(self):
        line = render_hud(phase="iterate", step=1200, queued=3400, merges=56)
        assert line == "[iterate] · step 1,200 · queued 3,400 · merges 56"
        assert line == render_hud(
            phase="iterate", step=1200, queued=3400, merges=56
        )

    def test_hud_omits_unknown_parts(self):
        assert render_hud(phase="build") == "[build]"
        assert render_hud(phase="iterate") == "[iterate]"
        assert render_hud(phase="iterate", merges=3) == "[iterate] · merges 3"

    def test_watch_snapshot_folds_a_full_run(self):
        snap = watch_snapshot(_events_for_finished_run())
        assert snap["phase"] == "done"
        assert snap["completed"] is True
        assert snap["step"] == 153
        assert snap["merges"] == 79
        assert snap["checkpoints"] == 1
        assert snap["lane_deaths"] == 1
        assert snap["events"] == 9

    def test_watch_snapshot_on_a_prefix(self):
        snap = watch_snapshot(_events_for_finished_run()[:5])
        assert snap["phase"] == "iterate"
        assert snap["step"] == 100
        assert snap["queued"] == 120
        assert snap["completed"] is None

    def test_render_watch_is_byte_stable(self):
        snap = watch_snapshot(_events_for_finished_run())
        text = render_watch(snap)
        assert text == (
            "run: PIM B (depgraph) · 328 references\n"
            "phase: done\n"
            "progress: step 153 · queued 120 · merges 79 · recomputations 153\n"
            "workers: 2 build\n"
            "checkpoints: 1 · degradations: 0 · lane deaths: 1 "
            "· pairs poisoned: 0\n"
            "result: completed (converged)"
        )
        assert text == render_watch(watch_snapshot(_events_for_finished_run()))

    def test_render_watch_handles_an_empty_stream(self):
        text = render_watch(watch_snapshot([]))
        assert text.startswith("run: ? (?)")
        assert "phase: starting" in text


class TestFollowEvents:
    def test_reads_skip_torn_trailing_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        lines = [json.dumps(e) for e in _events_for_finished_run()]
        path.write_text("\n".join(lines) + '\n{"event": "tru')
        assert len(read_events(path)) == 9

    def test_follow_stops_on_run_end(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            "".join(json.dumps(e) + "\n" for e in _events_for_finished_run())
        )
        stream = io.StringIO()
        snap = follow_events(
            path, stream=stream, interval=0.0,
            clock=lambda: 0.0, sleep=lambda _s: None,
        )
        assert snap["phase"] == "done"
        assert stream.getvalue().endswith("\n")

    def test_follow_gives_up_on_a_silent_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"event": "build_start"}) + "\n")
        clock_values = iter([0.0, 0.0, 10.0, 20.0])
        snap = follow_events(
            path, stream=io.StringIO(), interval=0.0,
            clock=lambda: next(clock_values), sleep=lambda _s: None,
            max_idle=5.0,
        )
        assert snap["phase"] == "build"


class TestWatchCli:
    def test_once_snapshot(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "events.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in _events_for_finished_run())
        )
        assert main(["watch", str(run_dir), "--once"]) == 0
        out = capsys.readouterr().out
        assert "run: PIM B (depgraph)" in out
        assert "result: completed (converged)" in out

    def test_once_resolves_events_through_manifest(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "elsewhere.jsonl").write_text(
            json.dumps({"event": "run_start", "dataset": "X",
                        "algorithm": "depgraph", "references": 1}) + "\n"
        )
        (run_dir / "run.json").write_text(
            json.dumps({"artifacts": {"events": "elsewhere.jsonl"}})
        )
        assert main(["watch", str(run_dir), "--once"]) == 0
        assert "run: X (depgraph)" in capsys.readouterr().out

    def test_once_with_no_events_errors(self, tmp_path, capsys):
        run_dir = tmp_path / "empty"
        run_dir.mkdir()
        assert main(["watch", str(run_dir), "--once"]) == 2
        assert "no events found" in capsys.readouterr().err

    def test_default_run_dir_run_reports_iterate_progress(
        self, tmp_path, capsys, monkeypatch
    ):
        """`iterate_progress` is emitted at the default info level, so
        `watch` on a run still in iterate shows a step count."""
        import repro.core.engine as engine_module

        # 124 iterate steps on this world; progress every 50 of them.
        monkeypatch.setattr(engine_module, "_ITERATE_CHUNK", 50)
        dataset = tmp_path / "ds"
        assert main(["generate", "A", str(dataset), "--scale", "0.15"]) == 0
        run_dir = tmp_path / "run"
        assert main(["evaluate", str(dataset), "--run-dir", str(run_dir)]) == 0
        lines = (run_dir / "events.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        progress = [
            index for index, event in enumerate(events)
            if event["event"] == "iterate_progress"
        ]
        assert len(progress) == 2
        assert events[progress[0]]["level"] == "info"
        # A watcher that caught the run mid-iterate.
        prefix = tmp_path / "mid_run"
        prefix.mkdir()
        (prefix / "events.jsonl").write_text(
            "".join(line + "\n" for line in lines[: progress[0] + 1])
        )
        capsys.readouterr()
        assert main(["watch", str(prefix), "--once"]) == 0
        out = capsys.readouterr().out
        assert "phase: iterate" in out
        assert "progress: step 50 · " in out
