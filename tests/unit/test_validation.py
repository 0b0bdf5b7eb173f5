"""Unit tests for replay-log validation."""

import io

import pytest

from repro.cli import main
from repro.isa import assemble
from repro.record import record_run
from repro.record.serialization import save_log
from repro.record.log import LoadRecord, SequencerRecord
from repro.record.validation import InvalidLogError, validate_log
from repro.vm import RandomScheduler
from repro.workloads import paper_suite

SOURCE = """
.data
x: .word 1
m: .word 0
.thread a b
    lock [m]
    load r1, [x]
    addi r1, r1, 1
    store r1, [x]
    unlock [m]
    sys_rand r2, 9
    halt
"""


def fresh_log(seed=3):
    program = assemble(SOURCE, name="val")
    _, log = record_run(program, scheduler=RandomScheduler(seed=seed), seed=seed)
    return log


class TestValidLogs:
    def test_fresh_log_is_clean(self):
        assert validate_log(fresh_log()) == []

    def test_every_suite_execution_validates(self):
        for execution in paper_suite()[:6]:
            program = execution.workload.program()
            _, log = record_run(
                program,
                scheduler=RandomScheduler(
                    seed=execution.seed,
                    switch_probability=execution.switch_probability,
                ),
                seed=execution.seed,
            )
            assert validate_log(log) == [], execution.execution_id

    def test_strict_mode_passes_clean_log(self):
        validate_log(fresh_log(), strict=True)


class TestCorruptions:
    def test_bad_program_source(self):
        log = fresh_log()
        log.program_source = "this is not assembly"
        issues = validate_log(log)
        assert any(issue.field == "program_source" for issue in issues)

    def test_load_step_out_of_range(self):
        log = fresh_log()
        thread = log.threads["a"]
        thread.loads[9999] = LoadRecord(thread_step=9999, address=0x1000, value=1)
        issues = validate_log(log)
        assert any(issue.field == "loads" for issue in issues)

    def test_mismatched_load_key(self):
        log = fresh_log()
        thread = log.threads["a"]
        step = next(iter(thread.loads))
        record = thread.loads[step]
        thread.loads[step] = LoadRecord(
            thread_step=step + 1, address=record.address, value=record.value
        )
        issues = validate_log(log)
        assert any("does not match record step" in issue.message for issue in issues)

    def test_missing_thread_end(self):
        log = fresh_log()
        log.threads["a"].end = None
        issues = validate_log(log)
        assert any(issue.field == "end" for issue in issues)

    def test_missing_start_sequencer(self):
        log = fresh_log()
        thread = log.threads["a"]
        thread.sequencers = [
            s for s in thread.sequencers if s.kind != "thread_start"
        ]
        issues = validate_log(log)
        assert any(
            "not thread_start" in issue.message for issue in issues
        )

    def test_duplicate_timestamp(self):
        log = fresh_log()
        thread = log.threads["a"]
        other = log.threads["b"]
        stolen = other.sequencers[1].timestamp
        thread.sequencers.insert(
            1,
            SequencerRecord(thread_step=0, timestamp=stolen, kind="lock"),
        )
        issues = validate_log(log)
        assert any("reused" in issue.message for issue in issues)

    def test_footprint_out_of_block(self):
        log = fresh_log()
        log.threads["a"].pc_footprint.add(9999)
        issues = validate_log(log)
        assert any(issue.field == "pc_footprint" for issue in issues)

    def test_global_order_length_mismatch(self):
        log = fresh_log()
        log.global_order = log.global_order[:-1]
        issues = validate_log(log)
        assert any(issue.field == "global_order" for issue in issues)

    def test_global_order_repeated_entry(self):
        log = fresh_log()
        log.global_order[-1] = log.global_order[0]
        issues = validate_log(log)
        assert any(
            issue.field == "global_order" and "repeats" in issue.message
            for issue in issues
        )

    def test_global_order_step_out_of_range(self):
        log = fresh_log()
        tid, _ = log.global_order[-1]
        steps = next(t.steps for t in log.threads.values() if t.tid == tid)
        log.global_order[-1] = (tid, steps)
        issues = validate_log(log)
        assert any(
            issue.field == "global_order" and "outside" in issue.message
            for issue in issues
        )

    def test_cli_validate_flags_repeated_order_entry(self, tmp_path):
        log = fresh_log()
        log.global_order[-1] = log.global_order[0]
        path = tmp_path / "repeated.json"
        save_log(log, path)
        out = io.StringIO()
        assert main(["validate", str(path), "--strict"], out=out) != 0
        assert "repeats" in out.getvalue()

    def test_strict_raises_with_details(self):
        log = fresh_log()
        log.threads["a"].end = None
        with pytest.raises(InvalidLogError) as info:
            validate_log(log, strict=True)
        assert "end" in str(info.value)
        assert info.value.issues

    def test_issue_str_mentions_thread(self):
        log = fresh_log()
        log.threads["a"].end = None
        issue = validate_log(log)[0]
        assert "thread 'a'" in str(issue)
