"""Columnar access index: one trace representation, shared by every analysis.

Detection and classification both walk the plain (non-sync) memory accesses
of every sequencing region.  The seed implementation re-materialized those
lists on every query (`OrderedReplay.region_accesses` was a bisect plus a
per-access sync filter), and the detector additionally re-grouped them by
address on every ``detect()`` call.  Following the observation of the
compressed-trace detection literature — detection cost falls out of the
trace *representation* — this module builds the representation once per
execution:

* **parallel columns** over every plain access, in region-major order:
  region ordinal, thread step, address, value, write flag (plus the
  original :class:`~repro.replay.events.ReplayedAccess` objects, so callers
  that need the rich records get slices, not copies);
* **per-region slices** — ``region_accesses`` becomes an O(1) slice of the
  object column;
* **per-address postings** — for every address, the ascending list of
  region ordinals that touch it, so conflicting regions are found by
  intersection instead of scanning.

Region ordinals follow the opening-timestamp order of
:meth:`OrderedReplay.all_regions`, which is exactly the order a sweep line
over sequencer timestamps visits regions — the detector iterates ordinals
and never re-sorts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import compress, repeat
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..replay.events import ReplayedAccess
from ..replay.log_view import RowView, row_columns
from ..replay.regions import SequencingRegion

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (replay builds us)
    from ..replay.ordered_replay import OrderedReplay

#: ``bytes.translate`` tables over captured flag bytes (bit 0 = write,
#: bit 1 = synchronization access): the write bit, and 1 for a plain
#: (non-sync) access.
_WRITE_BIT = bytes(flag & 1 for flag in range(256))
_PLAIN_BIT = bytes(1 - ((flag >> 1) & 1) for flag in range(256))


def _drop_sync_rows(flags: bytes, columns: list) -> Tuple[bytes, list]:
    """``flags`` and its parallel ``columns`` without the sync rows —
    one ``compress`` per column, and only when there are any."""
    plain = flags.translate(_PLAIN_BIT)
    if 0 in plain:
        flags = bytes(compress(flags, plain))
        columns = [list(compress(column, plain)) for column in columns]
    return flags, columns


def _rows_at(columns: tuple, lo: int, hi: int, address: int) -> List[tuple]:
    """Rows ``[lo, hi)`` at one address of the parallel ``(steps, flags,
    addresses, values, static_ids)`` columns, as ``(step, is_write,
    value, static_id)`` in step order (bit 0 of a flag is the write bit)
    — the one row-at-address scan of both row stores."""
    steps, flags, addresses, values, static_ids = columns
    return [
        (steps[p], flags[p] & 1 == 1, values[p], static_ids[p])
        for p in range(lo, hi)
        if addresses[p] == address
    ]


class AccessIndex:
    """Columnar index of every plain memory access of one execution.

    Built from an :class:`OrderedReplay` (the historical constructor) or
    straight from captured log columns via :meth:`from_captured` — the
    zero-replay detect path.  Regions are keyed by their *ordinal* — the
    position in the opening-timestamp order over all non-empty regions.
    Step-empty regions are not indexed (they contain no accesses by
    construction) and map to the empty slice.
    """

    __slots__ = (
        "regions",
        "_ordinals",
        "steps",
        "addresses",
        "values",
        "write_flags",
        "region_of",
        "_objects",
        "_static_id_col",
        "_slices",
        "_address_tuples",
        "postings",
        "_at",
        "_perf",
        "_write_count",
    )

    def __init__(self, ordered: "OrderedReplay"):
        # Prefer the recorder's columnar capture when the log still carries
        # it: region slicing becomes a bisect over the recorded step column,
        # with no second walk over replay-materialized access objects.  The
        # constructed records are value-identical to the replay-derived ones
        # (the equivalence tests compare both paths), so every downstream
        # analysis is oblivious to the source.
        captured = getattr(ordered.log, "captured", None)
        self._build(
            regions=[
                region for region in ordered.all_regions() if not region.is_empty
            ],
            columns_by_thread=(
                captured.threads if captured is not None else None
            ),
            ordered=ordered,
            perf=getattr(ordered, "_perf", None),
        )

    @classmethod
    def from_captured(
        cls,
        regions: List[SequencingRegion],
        columns_by_thread: Dict[str, object],
        perf=None,
    ) -> "AccessIndex":
        """Build the index straight from captured columns — zero replay.

        ``regions`` is every region of the execution in opening-timestamp
        (sweep) order — empty regions are filtered here, mirroring the
        replay constructor; ``columns_by_thread`` maps each thread name to
        any step-sorted column carrier exposing
        ``steps``/``flags``/``addresses``/``values``/``static_ids``
        parallel sequences (the recorder's
        :class:`~repro.record.log.ThreadAccessColumns` or the sectioned
        reader's :class:`~repro.record.binary_format.CapturedColumnView`).
        Every non-empty region's thread must have columns: there is no
        replay to fall back to here, so a missing thread raises
        :class:`ValueError`.
        """
        index = cls.__new__(cls)
        index._build(
            regions=[region for region in regions if not region.is_empty],
            columns_by_thread=columns_by_thread,
            ordered=None,
            perf=perf,
        )
        return index

    def _build(
        self,
        regions: List[SequencingRegion],
        columns_by_thread: Optional[Dict[str, object]],
        ordered: Optional["OrderedReplay"],
        perf,
    ) -> None:
        #: Non-empty regions in opening-timestamp (sweep) order.
        self.regions: List[SequencingRegion] = regions
        self._ordinals: Dict[Tuple[int, int], int] = {
            (region.tid, region.index): ordinal
            for ordinal, region in enumerate(self.regions)
        }
        # The columns.  Addresses/values are 64-bit unsigned machine words,
        # steps and ordinals are non-negative — "Q" holds them all exactly.
        self.steps = array("Q")
        self.addresses = array("Q")
        self.values = array("Q")
        self.write_flags = bytearray()
        self.region_of = array("Q")
        #: Rich access records, parallel to the columns.  On the captured
        #: path rows start as ``None`` and are materialized on demand
        #: (most are never asked for: the sweep detector reads columns);
        #: the replay path stores the already-built objects directly.
        self._objects: List[Optional[ReplayedAccess]] = []
        self._static_id_col: List[object] = []
        self._slices: List[Tuple[int, int]] = []
        self._address_tuples: List[Tuple[int, ...]] = []
        #: address -> ascending region ordinals touching it.
        self.postings: Dict[int, List[int]] = {}
        #: ordinal -> {address: that region's rows there}, filled by
        #: :meth:`accesses_at` and dropped by :meth:`retire`.
        self._at: Dict[int, Dict[int, List[tuple]]] = {}
        self._perf = perf
        self._write_count: Optional[int] = None
        postings = self.postings
        for ordinal, region in enumerate(self.regions):
            columns = (
                columns_by_thread.get(region.thread_name)
                if columns_by_thread is not None
                else None
            )
            start = len(self._objects)
            if columns is not None:
                self._fill_region_from_columns(region, columns)
            elif ordered is not None:
                self._fill_region_from_replay(region, ordered)
            else:
                raise ValueError(
                    "no captured columns for thread %r and no replay to "
                    "fall back to" % region.thread_name
                )
            end = len(self._objects)
            self._slices.append((start, end))
            self.region_of.extend(repeat(ordinal, end - start))
            # Distinct addresses in first-touch order.
            touched = tuple(dict.fromkeys(self.addresses[start:end]))
            self._address_tuples.append(touched)
            for address in touched:
                postings.setdefault(address, []).append(ordinal)

    def _fill_region_from_columns(self, region: SequencingRegion, columns) -> None:
        """Append one region's plain rows from step-sorted captured columns.

        Shared by both construction paths: the replay constructor hands
        recorder columns here, :meth:`from_captured` hands the sectioned
        reader's views — identical parallel-sequence shape either way.
        Whole column slices are appended at once (sync rows dropped
        first, see :func:`_drop_sync_rows`).
        """
        column_steps = columns.steps
        lo = bisect_left(column_steps, region.start_step)
        hi = bisect_left(column_steps, region.end_step, lo)
        if lo == hi:
            return
        flags, (steps, addresses, values, static_ids) = _drop_sync_rows(
            bytes(columns.flags[lo:hi]),
            [
                column_steps[lo:hi],
                columns.addresses[lo:hi],
                columns.values[lo:hi],
                columns.static_ids[lo:hi],
            ],
        )
        self._objects.extend(repeat(None, len(steps)))
        self._static_id_col.extend(static_ids)
        self.steps.extend(steps)
        self.addresses.extend(addresses)
        self.values.extend(values)
        self.write_flags += flags.translate(_WRITE_BIT)

    def _fill_region_from_replay(
        self, region: SequencingRegion, ordered: "OrderedReplay"
    ) -> None:
        """Append one region's rows from a materialized thread replay."""
        replay = ordered.thread_replays[region.thread_name]
        for access in replay.accesses_in_steps(
            region.start_step, region.end_step
        ):
            if access.is_sync:
                continue
            self._objects.append(access)
            self._static_id_col.append(access.static_id)
            self.steps.append(access.thread_step)
            self.addresses.append(access.address)
            self.values.append(access.value)
            self.write_flags.append(1 if access.is_write else 0)

    # ------------------------------------------------------------------
    # Sizes.
    # ------------------------------------------------------------------

    @property
    def access_count(self) -> int:
        return len(self._objects)

    @property
    def region_count(self) -> int:
        return len(self.regions)

    @property
    def address_count(self) -> int:
        """Distinct addresses touched by plain accesses."""
        return len(self.postings)

    @property
    def write_count(self) -> int:
        """Total write accesses — summed once and cached (the columns are
        immutable after construction; ``stats()`` reads this per ``--perf``
        dump)."""
        if self._write_count is None:
            self._write_count = sum(self.write_flags)
        return self._write_count

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def ordinal_of(self, region: SequencingRegion) -> Optional[int]:
        """The sweep ordinal of ``region`` (None for empty regions)."""
        return self._ordinals.get((region.tid, region.index))

    def region_slice(self, ordinal: int) -> Tuple[int, int]:
        """``[start, end)`` bounds of a region's accesses in the columns."""
        return self._slices[ordinal]

    def _materialize_range(self, start: int, end: int) -> List[ReplayedAccess]:
        """Object rows ``[start, end)``, building captured-path rows on
        first use."""
        objects = self._objects
        out = objects[start:end]
        if None in out:
            static_ids = self._static_id_col
            steps, addresses, values = self.steps, self.addresses, self.values
            write_flags = self.write_flags
            built = 0
            for position in range(start, end):
                if objects[position] is None:
                    objects[position] = ReplayedAccess(
                        thread_step=steps[position],
                        static_id=static_ids[position],
                        address=addresses[position],
                        value=values[position],
                        is_write=bool(write_flags[position]),
                        is_sync=False,
                    )
                    built += 1
            if built and self._perf is not None:
                self._perf.replay_accesses_materialized += built
            out = objects[start:end]
        return out

    def materialized_objects(self) -> List[ReplayedAccess]:
        """Every access record, fully materialized (tests and equivalence
        checks compare this across the captured and replay-derived paths)."""
        return self._materialize_range(0, len(self._objects))

    def region_accesses(self, region: SequencingRegion) -> List[ReplayedAccess]:
        """Plain accesses inside ``region`` — a slice of the object column
        (captured-path rows materialize on first query)."""
        ordinal = self._ordinals.get((region.tid, region.index))
        if ordinal is None:
            return []
        start, end = self._slices[ordinal]
        return self._materialize_range(start, end)

    def addresses_of(self, ordinal: int) -> Tuple[int, ...]:
        """Distinct addresses a region touches, in first-touch order."""
        return self._address_tuples[ordinal]

    def accesses_at(self, ordinal: int, address: int) -> List[tuple]:
        """A region's rows at one address, as ``(step, is_write, value,
        static_id)`` in step order.

        Read from the columns over the region's slice and cached per
        region until :meth:`retire`: the sweep asks only for the
        addresses a region shares with an overlapping one, and may ask
        again for every further partner.
        """
        cached = self._at.setdefault(ordinal, {})
        rows = cached.get(address)
        if rows is None:
            columns = (
                self.steps,
                self.write_flags,
                self.addresses,
                self.values,
                self._static_id_col,
            )
            rows = cached[address] = _rows_at(
                columns, *self._slices[ordinal], address
            )
        return rows

    def retire(self, ordinal: int) -> None:
        """Drop a region's :meth:`accesses_at` cache (the sweep expired
        it); the columns stay, because the classifier reads the whole
        index after detection."""
        self._at.pop(ordinal, None)

    def regions_touching(self, address: int) -> List[int]:
        """Ascending ordinals of regions touching ``address``."""
        return self.postings.get(address, [])

    def stats(self) -> Dict[str, int]:
        """Summary counters (surfaced by ``--perf`` breakdowns)."""
        return {
            "regions": self.region_count,
            "accesses": self.access_count,
            "addresses": self.address_count,
            "writes": self.write_count,
        }


class StreamingAccessWindow:
    """The sweep's resident rows: regions in, expired regions out.

    The row store of every sweep that reads regions one at a time — the
    streaming detector and each fan-out worker.  Regions are *admitted*
    in opening-timestamp order (from the segment cursor) with their
    rows — a :class:`~repro.replay.log_view.RowView` over the segment's
    decoded columns — and *retired* as soon as the sweep expires them,
    so resident state is the active overlap window, not the trace.  Rows
    stay in the columns; :meth:`accesses_at` builds a region's rows at
    one address, exactly as :meth:`AccessIndex.accesses_at` returns
    them, only when the sweep pairs the region up on that address (most
    regions never conflict).

    Ordinals are assigned in admission order; only their *relative*
    order matters to the sweep, and it matches the batch index's
    ordinal order over the same regions.  Regions whose rows hold no
    plain (non-sync) access are not admitted (``admit`` returns
    ``None``): the batch sweep skips them before touching any sweep
    state, so dropping them here is order-isomorphic.
    """

    __slots__ = (
        "_rows",
        "_addresses",
        "_at",
        "_next_ordinal",
        "regions",
        "accesses",
        "writes",
        "addresses_seen",
    )

    def __init__(self) -> None:
        self._rows: Dict[int, list] = {}
        self._addresses: Dict[int, Tuple[int, ...]] = {}
        self._at: Dict[int, Dict[int, List[tuple]]] = {}
        self._next_ordinal = 0
        #: Totals over the *counted* regions (see :meth:`admit`), in the
        #: shape :meth:`AccessIndex.stats` reports for a whole log.
        self.regions = 0
        self.accesses = 0
        self.writes = 0
        self.addresses_seen: Dict[int, None] = {}

    def admit(
        self, region: SequencingRegion, rows, counted: bool = True
    ) -> Optional[int]:
        """Store one region's rows; returns its ordinal, or ``None`` when
        the region carries no plain access (not admitted).

        ``rows`` is the segment cursor's
        :class:`~repro.replay.log_view.RowView`, already bounded to the
        region's step range; only its flags and addresses are read, as
        column slices.  A list of ``(step, flag, address, value,
        static_id)`` tuples, or a view holding sync rows (``flag & 2``,
        dropped as the batch index drops them), becomes a new view here,
        the one place rows are copied.  ``counted`` regions add to the
        totals whether or not they are admitted; a fan-out worker passes
        ``False`` for the straddlers it preloads, which the worker owning
        them counts.
        """
        if isinstance(rows, RowView):
            flags = bytes(rows.columns.flags[rows.lo : rows.hi])
        if not isinstance(rows, RowView) or 0 in flags.translate(_PLAIN_BIT):
            # Row tuples, or sync rows to drop: the one copy.
            rows = RowView.of_rows(row for row in rows if not row[1] & 2)
            flags = bytes(rows.columns.flags)
        columns, lo, hi = rows.columns, rows.lo, rows.hi
        addresses = dict.fromkeys(columns.addresses[lo:hi])
        if counted:
            self.regions += 1
            self.accesses += hi - lo
            self.writes += flags.translate(_WRITE_BIT).count(1)
            self.addresses_seen.update(addresses)
        if lo == hi:
            return None
        ordinal = self._next_ordinal
        self._next_ordinal += 1
        self._rows[ordinal] = rows
        self._addresses[ordinal] = tuple(addresses)
        return ordinal

    def retire(self, ordinal: int) -> None:
        """Drop a region's resident state (the sweep expired it)."""
        del self._rows[ordinal]
        del self._addresses[ordinal]
        self._at.pop(ordinal, None)

    # -- the sweep-facing surface ---------------------------------------

    def addresses_of(self, ordinal: int) -> Tuple[int, ...]:
        """Distinct addresses a region touches, in first-touch order."""
        return self._addresses[ordinal]

    def accesses_at(self, ordinal: int, address: int) -> List[tuple]:
        """A resident region's rows at one address, as ``(step, is_write,
        value, static_id)`` in step order; cached until :meth:`retire`."""
        cached = self._at.setdefault(ordinal, {})
        rows = cached.get(address)
        if rows is None:
            view = self._rows[ordinal]
            rows = cached[address] = _rows_at(
                row_columns(view.columns), view.lo, view.hi, address
            )
        return rows

    @property
    def resident_regions(self) -> int:
        """Regions admitted and not yet retired."""
        return len(self._rows)

    def stats(self) -> Dict[str, int]:
        """Totals over the counted regions, shape-compatible with
        :meth:`AccessIndex.stats` (``regions`` counts every step-bearing
        region offered, as the batch index does)."""
        return {
            "regions": self.regions,
            "accesses": self.accesses,
            "addresses": len(self.addresses_seen),
            "writes": self.writes,
        }


def build_access_index(ordered: "OrderedReplay") -> AccessIndex:
    """Convenience constructor mirroring the other analysis entry points."""
    return AccessIndex(ordered)
