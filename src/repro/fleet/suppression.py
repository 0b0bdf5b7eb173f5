"""Persisted suppression rules with provenance and expiry.

A developer's benign verdict, kept in the shared store: a rule says who
created it and why, optionally expires, applies to one ``program`` (or,
when that is empty, to every program), and comes in two scopes —

* ``exact``: suppress one ``(race, region-content digest)`` record;
* ``race``: suppress every record of a static race, whatever region
  content produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class SuppressionRule:
    """One persisted triage decision."""

    scope: str  # "exact" | "race"
    race: str
    digest: str = ""
    program: str = ""
    reason: str = ""
    created_by: str = ""
    created_at: Optional[float] = None
    expires_at: Optional[float] = None

    @property
    def rule_id(self) -> str:
        """Identity of *what* is suppressed, not who/why.

        Excluding provenance means re-suppressing the same race is
        idempotent — the rule is replaced, never duplicated.  An empty
        ``program`` hashes the same body as a rule without one.
        """
        body = "repro-fleet-rule|%s|%s|%s" % (self.scope, self.race, self.digest)
        if self.program:
            body += "|%s" % self.program
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]

    def is_expired(self, now: Optional[float]) -> bool:
        return (
            self.expires_at is not None
            and now is not None
            and now >= self.expires_at
        )

    def matches(
        self, race: str, digest: str, now: Optional[float] = None, program: str = ""
    ) -> bool:
        if self.is_expired(now):
            return False
        if self.race != race or (self.program and self.program != program):
            return False
        return self.scope == "race" or self.digest == digest

    def to_json(self) -> Dict:
        payload = {
            "scope": self.scope,
            "race": self.race,
            "digest": self.digest,
            "reason": self.reason,
            "created_by": self.created_by,
            "created_at": self.created_at,
            "expires_at": self.expires_at,
        }
        if self.program:
            payload["program"] = self.program
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "SuppressionRule":
        return cls(
            scope=payload.get("scope", "exact"),
            race=payload["race"],
            digest=payload.get("digest", ""),
            program=payload.get("program", ""),
            reason=payload.get("reason", ""),
            created_by=payload.get("created_by", ""),
            created_at=payload.get("created_at"),
            expires_at=payload.get("expires_at"),
        )


class SuppressionSet:
    """The store's live rule set, keyed by rule id."""

    def __init__(self) -> None:
        self._rules: Dict[str, SuppressionRule] = {}

    def __len__(self) -> int:
        return len(self._rules)

    def add(self, rule: SuppressionRule) -> str:
        self._rules[rule.rule_id] = rule
        return rule.rule_id

    def remove(self, rule_id: str) -> bool:
        return self._rules.pop(rule_id, None) is not None

    def get(self, rule_id: str) -> Optional[SuppressionRule]:
        return self._rules.get(rule_id)

    def suppressing(
        self, record, now: Optional[float] = None
    ) -> Optional[SuppressionRule]:
        """The first live rule matching a record, by rule id for determinism."""
        for rule in self.rules():
            if rule.matches(record.race, record.digest, now, record.program):
                return rule
        return None

    def rules(self) -> List[SuppressionRule]:
        return [self._rules[rule_id] for rule_id in sorted(self._rules)]

    def merged_with(self, other: "SuppressionSet") -> "SuppressionSet":
        """Commutative union; same-id conflicts pick the smaller JSON."""
        merged = SuppressionSet()
        merged._rules = dict(self._rules)
        for rule_id, rule in other._rules.items():
            mine = merged._rules.get(rule_id)
            if mine is None:
                merged._rules[rule_id] = rule
            else:
                merged._rules[rule_id] = min(
                    (mine, rule),
                    key=lambda r: json.dumps(r.to_json(), sort_keys=True),
                )
        return merged
