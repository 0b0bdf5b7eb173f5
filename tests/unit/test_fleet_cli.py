"""Unit tests for the ``repro fleet`` CLI verbs (local-store mode).

Remote (``--server``) behaviour is covered by the service integration
suite; here we drive ``main()`` against store directories on disk and
pin exit codes, error wording, and that the offline report is the same
canonical document ``GET /races`` serves.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.fleet import FleetStore

RACE_A = "counter:2|counter:6"
RACE_B = "flag:1|flag:9"


def export_report(program="prog"):
    return {
        "export_version": 1,
        "program": program,
        "races": [
            {
                "race": RACE_A,
                "classification": "potentially-harmful",
                "instances": {
                    "total": 3,
                    "no_state_change": 1,
                    "state_change": 2,
                    "replay_failure": 0,
                },
                "executions": ["e1"],
                "scenarios": [{"batch_key": {"region_content": ["aa", "bb"]}}],
            },
            {
                "race": RACE_B,
                "classification": "potentially-benign",
                "instances": {
                    "total": 2,
                    "no_state_change": 2,
                    "state_change": 0,
                    "replay_failure": 0,
                },
                "executions": ["e1"],
                "scenarios": [],
            },
        ],
    }


@pytest.fixture()
def report_file(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(export_report()))
    return path


@pytest.fixture()
def store_dir(tmp_path, report_file):
    directory = tmp_path / "fleet"
    out = io.StringIO()
    assert main(
        ["fleet", "--store", str(directory), "absorb", str(report_file)], out=out
    ) == 0
    assert "2 new record(s)" in out.getvalue()
    return directory


class TestAbsorbAndReport:
    def test_absorbing_the_same_report_twice_is_a_noop(
        self, store_dir, report_file
    ):
        out = io.StringIO()
        assert main(
            ["fleet", "--store", str(store_dir), "absorb", str(report_file)],
            out=out,
        ) == 0
        assert "duplicate" in out.getvalue()
        store = FleetStore.open(store_dir)
        assert store.counts()["absorbed_jobs"] == 1

    def test_report_prints_the_canonical_ranked_document(self, store_dir):
        out = io.StringIO()
        assert main(["fleet", "--store", str(store_dir), "report"], out=out) == 0
        document = json.loads(out.getvalue())
        assert document["summary"]["harmful"] == 1
        assert [r["race"] for r in document["races"]] == [RACE_A, RACE_B]
        # Byte-for-byte what the store (and GET /races) serves.
        assert out.getvalue().encode("utf-8") == FleetStore.open(
            store_dir
        ).report_bytes()

    def test_report_limit_flag(self, store_dir):
        out = io.StringIO()
        assert main(
            ["fleet", "--store", str(store_dir), "report", "--limit", "1"],
            out=out,
        ) == 0
        document = json.loads(out.getvalue())
        assert document["summary"]["listed"] == 1
        assert document["races"][0]["race"] == RACE_A

    @pytest.mark.parametrize("bad", ["0", "-3", "banana"])
    def test_report_limit_rejects_bad_values(self, store_dir, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["fleet", "--store", str(store_dir), "report", "--limit", bad],
                out=io.StringIO(),
            )
        assert excinfo.value.code == 2
        assert "expected an integer >= 1" in capsys.readouterr().err


class TestSuppress:
    def test_suppress_hides_until_include_suppressed(self, store_dir):
        out = io.StringIO()
        assert main(
            ["fleet", "--store", str(store_dir), "suppress", RACE_A,
             "--reason", "known benign", "--by", "ops"],
            out=out,
        ) == 0
        assert "race scope" in out.getvalue()

        report = io.StringIO()
        main(["fleet", "--store", str(store_dir), "report"], out=report)
        document = json.loads(report.getvalue())
        assert document["summary"]["suppressed"] == 1
        assert all(r["race"] != RACE_A for r in document["races"])

        revealed = io.StringIO()
        main(
            ["fleet", "--store", str(store_dir), "report",
             "--include-suppressed"],
            out=revealed,
        )
        entries = json.loads(revealed.getvalue())["races"]
        assert any(r["race"] == RACE_A and r["suppressed"] for r in entries)

    def test_digest_narrows_scope_to_exact(self, store_dir):
        out = io.StringIO()
        assert main(
            ["fleet", "--store", str(store_dir), "suppress", RACE_A,
             "--digest", "aa+bb"],
            out=out,
        ) == 0
        assert "exact scope" in out.getvalue()

    def test_expired_ttl_rule_no_longer_hides(self, store_dir):
        assert main(
            ["fleet", "--store", str(store_dir), "suppress", RACE_A,
             "--ttl", "-1"],  # already expired relative to the CLI clock
            out=io.StringIO(),
        ) == 0
        report = io.StringIO()
        main(["fleet", "--store", str(store_dir), "report"], out=report)
        assert json.loads(report.getvalue())["summary"]["suppressed"] == 0

    def test_malformed_race_key_is_rejected(self, store_dir, capsys):
        code = main(
            ["fleet", "--store", str(store_dir), "suppress", "not-a-key"],
            out=io.StringIO(),
        )
        assert code == 1
        assert "static race key" in capsys.readouterr().err


class TestMaintenance:
    def test_compact_then_report_is_unchanged(self, store_dir):
        before = io.StringIO()
        main(["fleet", "--store", str(store_dir), "report"], out=before)
        out = io.StringIO()
        assert main(["fleet", "--store", str(store_dir), "compact"], out=out) == 0
        assert "snapshot" in out.getvalue()
        after = io.StringIO()
        main(["fleet", "--store", str(store_dir), "report"], out=after)
        assert after.getvalue() == before.getvalue()

    def test_export_import_round_trip(self, store_dir, tmp_path):
        dump = tmp_path / "export.json"
        assert main(
            ["fleet", "--store", str(store_dir), "export", str(dump)],
            out=io.StringIO(),
        ) == 0
        other = tmp_path / "other-fleet"
        out = io.StringIO()
        assert main(
            ["fleet", "--store", str(other), "import", str(dump)], out=out
        ) == 0
        assert "2 unique race(s) over 1 absorbed job(s)" in out.getvalue()
        assert FleetStore.open(other).report_bytes() == FleetStore.open(
            store_dir
        ).report_bytes()

    def test_export_to_stdout(self, store_dir):
        out = io.StringIO()
        assert main(
            ["fleet", "--store", str(store_dir), "export"], out=out
        ) == 0
        assert json.loads(out.getvalue())["fleet_version"] == 1


class TestArgumentErrors:
    def test_no_store_and_no_server_is_an_error(self, capsys):
        assert main(["fleet", "report"], out=io.StringIO()) == 1
        assert "pass --store DIR or --server URL" in capsys.readouterr().err

    def test_store_and_server_are_mutually_exclusive(self, tmp_path, capsys):
        code = main(
            ["fleet", "--store", str(tmp_path), "--server",
             "http://localhost:1", "report"],
            out=io.StringIO(),
        )
        assert code == 1
        assert "mutually exclusive" in capsys.readouterr().err

    def test_local_only_verbs_refuse_server_mode(self, capsys):
        code = main(
            ["fleet", "--server", "http://localhost:1", "compact"],
            out=io.StringIO(),
        )
        assert code == 1
        assert "operates on a local store" in capsys.readouterr().err

    def test_absorbing_a_non_report_file_fails_cleanly(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"job_id": "x"}')
        code = main(
            ["fleet", "--store", str(tmp_path / "fleet"), "absorb", str(bogus)],
            out=io.StringIO(),
        )
        assert code == 1
        assert "not an analysis report" in capsys.readouterr().err
