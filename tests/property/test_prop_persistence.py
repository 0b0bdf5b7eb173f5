"""Property-based tests: the pre-fleet race files import into the store.

``repro fleet import`` converts a race-database file
(``{"format_version": 1, "records": [...]}``) and a suppression file (a
JSON list) into fleet records and program-scoped rules.  For generated
files of both kinds we check that every old record's counts, executions
and classification survive, that each old suppression hides exactly its
``(program, race)``, that re-importing changes nothing, and that a
truncated or wrong-shape file is one error line with exit code 1.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.fleet import FleetStore
from repro.isa.program import StaticInstructionId
from repro.race.model import static_key_to_text, static_race_key

_SETTINGS = settings(max_examples=30, deadline=None)

identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,15}", fullmatch=True)
indices = st.integers(min_value=0, max_value=10_000)
counts = st.integers(min_value=0, max_value=50)
# Reasons may contain anything JSON round-trips losslessly as text
# (surrogates are excluded by default text()).
free_text = st.text(max_size=60)


@st.composite
def race_texts(draw):
    first = StaticInstructionId(draw(identifiers), draw(indices))
    second = StaticInstructionId(draw(identifiers), draw(indices))
    return static_key_to_text(static_race_key(first, second))


@st.composite
def legacy_files(draw):
    """A race database and a suppression file over overlapping races."""
    races = draw(
        st.lists(
            st.tuples(identifiers, race_texts()), min_size=1, max_size=8, unique=True
        )
    )
    records = []
    for program, race in races:
        # The old database only ever held races with a classified instance.
        no_state_change, state_change, replay_failure = draw(
            st.tuples(counts, counts, counts).filter(any)
        )
        records.append(
            {
                "program": program,
                "key": race,
                "no_state_change": no_state_change,
                "state_change": state_change,
                "replay_failure": replay_failure,
                "executions": draw(st.lists(identifiers, max_size=4, unique=True)),
                "history": ["potentially-benign"],
            }
        )
    marked = draw(st.lists(st.sampled_from(races), max_size=len(races), unique=True))
    # The same race marked benign in another program, which must not
    # suppress it here.
    marked += [
        (program + "_other", race)
        for program, race in draw(st.lists(st.sampled_from(races), max_size=2))
    ]
    suppressions = [
        {
            "program": program,
            "key": race,
            "reason": draw(free_text),
            "triaged_by": draw(free_text),
        }
        for program, race in marked
    ]
    return {"format_version": 1, "records": records}, suppressions


def import_file(store, path):
    return run_cli(["fleet", "--store", str(store), "import", str(path)])


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def write(directory, name, payload):
    path = directory / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def race_entries(store_directory):
    document = FleetStore.open(store_directory).report_document(
        include_suppressed=True
    )
    return {(race["program"], race["race"]): race for race in document["races"]}


class TestDatabaseRoundTrip:
    @given(files=legacy_files())
    @_SETTINGS
    def test_save_load_preserves_counts(self, files, tmp_path_factory):
        """An old race database imports with every record's counts,
        executions and classification intact."""
        database, _ = files
        directory = tmp_path_factory.mktemp("legacy")
        store = directory / "fleet"
        code, text, err = import_file(store, write(directory, "races.json", database))
        assert (code, err) == (0, ""), err
        assert text.startswith("imported ")

        entries = race_entries(store)
        assert len(entries) == len(database["records"])
        for record in database["records"]:
            entry = entries[(record["program"], record["key"])]
            for field in ("no_state_change", "state_change", "replay_failure"):
                assert entry["instances"][field] == record[field]
            assert entry["executions"] == sorted(record["executions"])
            harmful = record["state_change"] or record["replay_failure"]
            assert entry["classification"] == (
                "potentially-harmful" if harmful else "potentially-benign"
            )
            assert not entry["suppressed"]


class TestSuppressionRoundTrip:
    @given(files=legacy_files())
    @_SETTINGS
    def test_save_load_preserves_everything(self, files, tmp_path_factory):
        """An old suppression file imports as one rule per (program, race)
        with a recorded reason and author, and each rule hides exactly its
        program's race."""
        database, suppressions = files
        directory = tmp_path_factory.mktemp("legacy")
        store = directory / "fleet"
        for name, payload in (
            ("races.json", database),
            ("triage.json", suppressions),
        ):
            code, text, err = import_file(store, write(directory, name, payload))
            assert (code, err) == (0, ""), err
            assert text.startswith("imported ")

        recorded = {}
        for entry in suppressions:
            recorded.setdefault((entry["program"], entry["key"]), set()).add(
                (entry["reason"], entry["triaged_by"])
            )
        rules = FleetStore.open(store).suppression_rules()
        assert len(rules) == len(recorded)
        for rule in rules:
            assert rule.scope == "race"
            # Same-pair duplicates keep one of the recorded decisions.
            assert (rule.reason, rule.created_by) in recorded[(rule.program, rule.race)]

        for (program, race), entry in race_entries(store).items():
            assert entry["suppressed"] == ((program, race) in recorded)


class TestLegacyImport:
    @given(files=legacy_files())
    @_SETTINGS
    def test_second_import_is_a_no_op(self, files, tmp_path_factory):
        database, suppressions = files
        directory = tmp_path_factory.mktemp("again")
        store = directory / "fleet"
        paths = [
            write(directory, "races.json", database),
            write(directory, "triage.json", suppressions),
        ]
        for path in paths:
            assert import_file(store, path)[0] == 0
        before = json.dumps(FleetStore.open(store).export_document(), sort_keys=True)
        for path in paths:
            assert import_file(store, path)[0] == 0
        after = json.dumps(FleetStore.open(store).export_document(), sort_keys=True)
        assert after == before

    @given(
        files=legacy_files(),
        which=st.sampled_from(["races", "triage"]),
        cut=st.floats(min_value=0.0, max_value=0.95),
    )
    @_SETTINGS
    def test_truncated_file_is_one_error_line(
        self, files, which, cut, tmp_path_factory
    ):
        database, suppressions = files
        body = json.dumps(database if which == "races" else suppressions, indent=2)
        directory = tmp_path_factory.mktemp("cut")
        path = directory / "cut.json"
        path.write_text(body[: int(len(body) * cut)])
        code, text, err = import_file(directory / "fleet", path)
        assert code == 1 and text == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @given(
        files=legacy_files(),
        breakage=st.sampled_from(
            [
                ("records", "not a list"),
                ("format_version", 2),
                ("program", 7),
                ("key", "no-bar"),
                ("state_change", -1),
                ("no_state_change", "3"),
                ("executions", "e1"),
                ("entry", ["a list", "not an object"]),
                ("document", 42),
            ]
        ),
    )
    @_SETTINGS
    def test_wrong_shape_file_is_one_error_line(
        self, files, breakage, tmp_path_factory
    ):
        database, suppressions = files
        field, value = breakage
        if field in ("records", "format_version"):
            payload = dict(database, **{field: value})
        elif field == "document":
            payload = value
        elif field == "entry":
            payload = suppressions + [value]
        else:
            record = dict(database["records"][0], **{field: value})
            payload = dict(database, records=[record] + database["records"][1:])
        directory = tmp_path_factory.mktemp("shape")
        path = write(directory, "bad.json", payload)
        code, text, err = import_file(directory / "fleet", path)
        assert code == 1 and text == ""
        assert err.startswith("error: ") and err.count("\n") == 1
