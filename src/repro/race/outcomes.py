"""Classification outcome vocabulary (Section 5.2.1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from ..replay.errors import ReplayFailureKind
from ..replay.virtual_processor import VPOutcome
from .model import RaceInstance


class InstanceOutcome(Enum):
    """Outcome of replaying one race instance in both orders.

    * ``NO_STATE_CHANGE`` — both replays produced identical live-outs.
    * ``STATE_CHANGE`` — the two replays produced different live-outs.
    * ``REPLAY_FAILURE`` — the replay left the recorded envelope (§4.2.1);
      "a good indicator that the data race is likely to cause a change in
      the program's state".
    """

    NO_STATE_CHANGE = "no-state-change"
    STATE_CHANGE = "state-change"
    REPLAY_FAILURE = "replay-failure"

    def __str__(self) -> str:
        return self.value


class Classification(Enum):
    """Final per-static-race verdict handed to developers."""

    POTENTIALLY_BENIGN = "potentially-benign"
    POTENTIALLY_HARMFUL = "potentially-harmful"

    def __str__(self) -> str:
        return self.value


@dataclass
class ClassifiedInstance:
    """One race instance plus its both-orders replay verdict.

    ``original_first`` names the thread whose racing operation executed
    first in the recorded execution (exact when the log carries the global
    order; otherwise the earlier-region heuristic).  ``pre_value`` is the
    racing location's value in the live-in image (used by the benign-reason
    heuristics, e.g. redundant-write detection).
    """

    instance: RaceInstance
    outcome: InstanceOutcome
    original_first: str
    pre_value: int
    failure_kind: Optional[ReplayFailureKind] = None
    failure_detail: str = ""
    original_replay: Optional[VPOutcome] = None
    alternative_replay: Optional[VPOutcome] = None
    execution_id: str = ""

    @property
    def is_benign_evidence(self) -> bool:
        return self.outcome is InstanceOutcome.NO_STATE_CHANGE

    def describe(self) -> str:
        text = "%s -> %s" % (self.instance, self.outcome)
        if self.failure_kind is not None:
            text += " (%s%s)" % (
                self.failure_kind,
                ": " + self.failure_detail if self.failure_detail else "",
            )
        return text


#: A verdict without its instance, as the verdict cache stores it:
#: (outcome, original-first-was-side-a, pre_value, failure_kind, detail).
VerdictTemplate = Tuple[InstanceOutcome, bool, int, Optional[ReplayFailureKind], str]


def classified_from_template(
    instance: RaceInstance, template: VerdictTemplate, execution_id: str
) -> ClassifiedInstance:
    """The :class:`ClassifiedInstance` a template stands for on ``instance``."""
    outcome, first_is_a, pre_value, failure_kind, failure_detail = template
    return ClassifiedInstance(
        instance=instance,
        outcome=outcome,
        original_first=(
            instance.access_a.thread_name
            if first_is_a
            else instance.access_b.thread_name
        ),
        pre_value=pre_value,
        failure_kind=failure_kind,
        failure_detail=failure_detail,
        execution_id=execution_id,
    )
