"""Unit tests for the command-line interface."""

import io
import json

import pytest

from repro.cli import main

DEMO_SOURCE = """
.data
jobs:  .word 0
mutex: .word 0
stats: .word 0
.thread w1 w2
    li r1, 3
loop:
    lock [mutex]
    load r2, [jobs]
    addi r2, r2, 1
    store r2, [jobs]
    unlock [mutex]
    load r4, [stats]
    addi r4, r4, 1
    store r4, [stats]
    subi r1, r1, 1
    bnez r1, loop
    halt
"""

CLEAN_SOURCE = """
.data
jobs:  .word 0
mutex: .word 0
.thread w1 w2
    lock [mutex]
    load r2, [jobs]
    addi r2, r2, 1
    store r2, [jobs]
    unlock [mutex]
    halt
"""


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def recorded(tmp_path):
    program = tmp_path / "demo.asm"
    program.write_text(DEMO_SOURCE)
    log = tmp_path / "demo.replay.json"
    code, text = run_cli(
        ["record", str(program), "-o", str(log), "--seed", "7"]
    )
    assert code == 0
    return program, log, text


class TestRecord:
    def test_record_writes_log(self, recorded):
        program, log, text = recorded
        assert log.exists()
        assert "recorded" in text
        assert "bits/instr" in text

    def test_default_output_path_is_binary(self, tmp_path):
        program = tmp_path / "p.asm"
        program.write_text(CLEAN_SOURCE)
        code, _ = run_cli(["record", str(program), "--seed", "1"])
        assert code == 0
        log = tmp_path / "p.replay.bin"
        assert log.exists()
        assert log.read_bytes()[:4] == b"RPRB"
        # Binary logs feed every downstream subcommand transparently.
        code, text = run_cli(["replay", str(log)])
        assert code == 0 and "steps replayed" in text

    def test_json_destination_keeps_json(self, recorded):
        _, log, _ = recorded
        assert log.suffix == ".json"
        assert log.read_text().startswith("{")

    def test_round_robin_scheduler(self, tmp_path):
        program = tmp_path / "p.asm"
        program.write_text(CLEAN_SOURCE)
        code, _ = run_cli(
            ["record", str(program), "--scheduler", "round-robin"]
        )
        assert code == 0


class TestReplay:
    def test_replay_reports_threads(self, recorded):
        _, log, _ = recorded
        code, text = run_cli(["replay", str(log)])
        assert code == 0
        assert "w1" in text and "w2" in text
        assert "steps replayed" in text


class TestDetect:
    def test_detect_lists_unique_races(self, recorded):
        _, log, _ = recorded
        code, text = run_cli(["detect", str(log)])
        assert code == 0
        assert "unique static race(s)" in text
        assert "stats" in text

    def test_detect_clean_program(self, tmp_path):
        program = tmp_path / "clean.asm"
        program.write_text(CLEAN_SOURCE)
        log = tmp_path / "clean.replay.json"
        run_cli(["record", str(program), "-o", str(log)])
        code, text = run_cli(["detect", str(log)])
        assert code == 0
        assert "0 race instance(s), 0 unique" in text

    def test_detect_perf_breakdown(self, recorded):
        _, log, _ = recorded
        code, text = run_cli(["detect", str(log), "--perf"])
        assert code == 0
        assert "access index:" in text
        assert "detect sweep:" in text
        assert "detect.sweep" in text


    def test_truncated_container_is_a_one_line_error(self, tmp_path, capsys):
        from repro.record.binary_format import read_segment_index

        program = tmp_path / "demo.asm"
        program.write_text(DEMO_SOURCE)
        log = tmp_path / "demo.rprb"
        code, _ = run_cli(
            ["record", str(program), "-o", str(log), "--segment-bytes", "64"]
        )
        assert code == 0
        data = log.read_bytes()
        cut = tmp_path / "cut.rprb"
        cut.write_bytes(data[: read_segment_index(data)[1].offset + 1])
        capsys.readouterr()
        # A segmented container streams in detect and analyze: each path
        # ends in the same one-line error.
        for argv in (["detect"], ["analyze"]):
            code, _ = run_cli(argv + [str(cut)])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("error: corrupt replay log: truncated frame header")
            assert err.count("\n") == 1 and "Traceback" not in err


    def test_unknown_container_version_is_a_one_line_error(self, tmp_path, capsys):
        program = tmp_path / "demo.asm"
        program.write_text(DEMO_SOURCE)
        log = tmp_path / "demo.rprb"
        code, _ = run_cli(["record", str(program), "-o", str(log)])
        assert code == 0
        data = bytearray(log.read_bytes())
        data[4] = 99  # the version byte follows the 4-byte magic
        future = tmp_path / "future.rprb"
        future.write_bytes(bytes(data))
        capsys.readouterr()
        for argv in (["detect"], ["analyze"]):
            code, _ = run_cli(argv + [str(future)])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith(
                "error: corrupt replay log: unsupported binary replay-log "
                "format version: 99"
            )
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_thread_block_missing_from_program_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        from repro.record.binary_format import (
            decode_log,
            encode_log,
            encode_log_segmented,
        )

        program = tmp_path / "demo.asm"
        program.write_text(DEMO_SOURCE)
        log = tmp_path / "demo.rprb"
        code, _ = run_cli(["record", str(program), "-o", str(log)])
        assert code == 0
        decoded = decode_log(log.read_bytes())
        assert decoded.captured is not None
        decoded.threads["w1"].block = "nope"
        mismatched = tmp_path / "nope.rprb"
        mismatched.write_bytes(encode_log(decoded))
        segmented = tmp_path / "nope.seg.rprb"
        segmented.write_bytes(encode_log_segmented(decoded, segment_bytes=64))
        capsys.readouterr()
        for argv in (
            ["detect", str(mismatched)],
            ["analyze", str(mismatched)],
            ["replay", str(mismatched)],
            ["detect", str(segmented)],
            ["analyze", str(segmented)],
        ):
            code, text = run_cli(argv)
            err = capsys.readouterr().err
            assert code == 1, argv
            assert text == "", argv
            assert err == (
                "error: thread 'w1' runs block 'nope', "
                "which the embedded program lacks\n"
            ), argv


class TestAnalyze:
    def test_incremental_from_exported_verdicts_is_byte_identical(
        self, recorded, tmp_path
    ):
        _, log, _ = recorded
        verdicts = tmp_path / "verdicts.json"
        code, cold = run_cli(
            ["analyze", str(log), "--export-verdicts", str(verdicts)]
        )
        assert code == 0
        assert json.loads(verdicts.read_text())["entries"]
        code, warm = run_cli(
            ["analyze", str(log), "--incremental-from", str(verdicts)]
        )
        assert code == 0
        assert json.loads(cold)["races"]
        assert warm == cold


class TestClassify:
    def test_classify_prints_triage(self, recorded):
        _, log, _ = recorded
        code, text = run_cli(["classify", str(log)])
        assert code == 0
        assert "potentially harmful (triage these)" in text
        assert "DATA RACE" in text

    def test_mark_benign_then_suppressed(self, recorded, tmp_path):
        from repro.fleet import FleetStore

        _, log, _ = recorded
        store = tmp_path / "fleet"
        code, text = run_cli(
            [
                "mark-benign",
                str(log),
                "--race",
                "w1:6|w1:8",
                "--reason",
                "approximate stats",
                "--by",
                "alice",
                "--store",
                str(store),
            ]
        )
        assert code == 0
        assert "marked w1:6|w1:8 benign for program demo" in text
        (rule,) = FleetStore.open(store).suppression_rules()
        assert (rule.scope, rule.race, rule.program) == ("race", "w1:6|w1:8", "demo")
        assert (rule.reason, rule.created_by) == ("approximate stats", "alice")
        code, text = run_cli(["classify", str(log), "--store", str(store)])
        assert code == 0
        assert "1 suppressed" in text

    def test_classify_and_fleet_report_score_harmful_races_alike(self, tmp_path):
        """`classify --store D` ranks the records its report becomes, so
        each harmful race gets the score `fleet --store D report` gives it
        — handshake's races end in step-limit replay failures, which score
        by their kind, not by the failure fraction."""
        import re

        from repro.record import record_run, save_log
        from repro.vm import RandomScheduler
        from repro.workloads import handshake

        workload = handshake(0)
        _, recording = record_run(
            workload.program(),
            scheduler=RandomScheduler(seed=5, switch_probability=0.3),
            seed=5,
        )
        log = tmp_path / "handshake_hs0.bin"
        save_log(recording, log)
        store = tmp_path / "fleet"
        exported = tmp_path / "report.json"
        code, text = run_cli(
            ["classify", str(log), "--store", str(store), "--json", str(exported)]
        )
        assert code == 0
        classify_scores = dict(
            re.findall(r"^\s+\d+\. (\S+)\s+score (\d+\.\d\d) =", text, re.M)
        )
        code, fleet_text = run_cli(["fleet", "--store", str(store), "report"])
        assert code == 0
        fleet_scores = {
            race["race"]: "%.2f" % race["score"]["total"]
            for race in json.loads(fleet_text)["races"]
            if race["classification"] == "potentially-harmful"
        }
        assert fleet_scores and classify_scores == fleet_scores
        harmful = [
            race
            for race in json.loads(exported.read_text())["races"]
            if race["classification"] == "potentially-harmful"
        ]
        assert all(race["failure_kinds"] == {"step-limit": 5} for race in harmful)

    def test_continue_extension_flag(self, recorded):
        _, log, _ = recorded
        code, text = run_cli(
            ["classify", str(log), "--continue-through-control-flow"]
        )
        assert code == 0


class TestValidate:
    def test_valid_log_reports_ok(self, recorded):
        _, log, _ = recorded
        code, text = run_cli(["validate", str(log)])
        assert code == 0
        assert "OK" in text

    def test_corrupt_log_lists_issues(self, recorded, tmp_path):
        import json

        _, log, _ = recorded
        payload = json.loads(log.read_text())
        payload["threads"]["w1"]["end"] = None
        bad = tmp_path / "bad.replay.json"
        bad.write_text(json.dumps(payload))
        code, text = run_cli(["validate", str(bad)])
        assert code == 0 and "issue(s)" in text
        code, _ = run_cli(["validate", str(bad), "--strict"])
        assert code == 1


class TestInspect:
    def test_inspect_shows_step_views(self, recorded):
        _, log, _ = recorded
        code, text = run_cli(
            ["inspect", str(log), "--thread", "w1", "--step", "0", "--count", "4"]
        )
        assert code == 0
        assert "w1 step 0" in text
        assert "->" in text  # register change rendering

    def test_inspect_unknown_thread(self, recorded):
        _, log, _ = recorded
        code, text = run_cli(["inspect", str(log), "--thread", "ghost"])
        assert code == 1
        assert "no thread" in text


class TestStoreAccumulation:
    def test_classify_twice_counts_one_execution(self, recorded, tmp_path):
        """Re-running classify on one log absorbs it once: the job key is
        the log's bytes plus the classifier config, never the report."""
        from repro.fleet import FleetStore

        _, log, _ = recorded
        store = tmp_path / "fleet"

        def instances():
            document = FleetStore.open(store).report_document(include_suppressed=True)
            return {race["race"]: race["instances"] for race in document["races"]}

        code, text = run_cli(["classify", str(log), "--store", str(store)])
        assert code == 0
        assert "fleet store updated: %s (2 new, 0 updated)" % store in text
        once = instances()
        assert once and all(counts["total"] for counts in once.values())

        code, text = run_cli(["classify", str(log), "--store", str(store)])
        assert code == 0 and "already absorbed" in text
        assert instances() == once

        # Marking a race benign flips its report's `suppressed` flag, but
        # the run is still the same execution.
        code, _ = run_cli(
            ["mark-benign", str(log), "--race", "w1:6|w1:8", "--store", str(store)]
        )
        assert code == 0
        code, text = run_cli(["classify", str(log), "--store", str(store)])
        assert code == 0
        assert "1 suppressed" in text and "already absorbed" in text
        assert instances() == once

    def test_harmful_run_reclassifies_an_earlier_benign_verdict(
        self, recorded, tmp_path
    ):
        from repro.fleet import FleetStore

        _, log, _ = recorded
        store = tmp_path / "fleet"
        earlier = {
            "export_version": 1,
            "program": "demo",
            "races": [
                {
                    "race": "w1:6|w1:8",
                    "classification": "potentially-benign",
                    "instances": {"no_state_change": 2},
                    "executions": ["earlier"],
                }
            ],
        }
        FleetStore.open(store).absorb_report(earlier, "earlier-session")
        code, text = run_cli(["classify", str(log), "--store", str(store)])
        assert code == 0
        assert (
            "RE-CLASSIFIED since earlier sessions:\n"
            "  demo w1:6|w1:8: potentially-benign -> potentially-harmful "
            "(10 instances over 2 execution(s))\n"
        ) in text
        assert "fleet store updated: %s (1 new, 1 updated)" % store in text

    def test_classify_without_store_touches_no_file(self, recorded, tmp_path):
        _, log, _ = recorded
        before = sorted(tmp_path.rglob("*"))
        code, text = run_cli(["classify", str(log)])
        assert code == 0 and "fleet store" not in text
        assert sorted(tmp_path.rglob("*")) == before


class TestCompare:
    def test_compare_and_gate(self, recorded, tmp_path):
        import json

        _, log, _ = recorded
        baseline = tmp_path / "base.json"
        current = tmp_path / "cur.json"
        run_cli(["classify", str(log), "--json", str(baseline)])
        run_cli(["classify", str(log), "--json", str(current)])
        code, text = run_cli(["compare", str(baseline), str(current)])
        assert code == 0
        assert "stable" in text

        # Inject a new harmful race into 'current' and gate.
        payload = json.loads(current.read_text())
        payload["races"].append(
            {"race": "w1:0|w1:1", "classification": "potentially-harmful"}
        )
        current.write_text(json.dumps(payload))
        code, text = run_cli(["compare", str(baseline), str(current), "--gate"])
        assert code == 1
        assert "gate this change" in text


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            run_cli(["frobnicate"])

    def test_experiment_requires_valid_id(self):
        with pytest.raises(SystemExit):
            run_cli(["experiment", "table99"])
