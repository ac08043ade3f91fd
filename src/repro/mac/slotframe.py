"""Slotframes: periodic groups of cells.

A slotframe of length ``m`` repeats every ``m`` timeslots: the cell scheduled
at slot offset ``o`` is active at every ASN with ``asn % m == o``.  A node may
run several slotframes simultaneously (Orchestra runs three); when cells from
different slotframes coincide at the same ASN, the TSCH engine breaks the tie
by slotframe handle then by cell priority, mirroring Contiki-NG behaviour.

Cells are stored in per-offset buckets keyed by slot offset, holding only
the offsets that have cells, so :meth:`cells_at` is a single O(1) lookup with
no allocation -- it runs for every node at every simulated timeslot -- and a
mostly empty slotframe costs memory in proportion to its cells, not its
length.  Every mutation bumps :attr:`version`, which the TSCH engine and the
network's slot-skipping kernel use to invalidate their derived schedule
caches (sorted active-cell lists, active-offset indexes).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from typing import NoReturn, Optional

from repro.mac.cell import Cell, CellOption, CellPurpose


class _EmptyBucket(list[Cell]):
    """The bucket every empty slot offset answers with: shared, always empty.

    Queries return it without touching the table, and it refuses to grow, so
    a caller can never install a cell by mutating a query result.
    """

    __slots__ = ()

    def _refuse(self, *args: object, **kwargs: object) -> NoReturn:
        raise TypeError("the bucket of an empty slot offset is read-only")

    append = extend = insert = __setitem__ = __iadd__ = __imul__ = _refuse


_EMPTY: list[Cell] = _EmptyBucket()


class Slotframe:
    """A collection of cells repeating with a fixed period."""

    def __init__(self, handle: int, length: int) -> None:
        if length <= 0:
            raise ValueError("slotframe length must be positive")
        self.handle = handle
        self.length = length
        #: Monotonic mutation counter; bumped by every cell add/remove.
        self.version = 0
        #: Invoked after every mutation; the owning TSCH engine hooks this to
        #: invalidate its derived schedule caches without polling.
        self.on_change: Optional[Callable[[], None]] = None
        #: ``_table[offset]`` lists the cells installed at that slot offset
        #: (insertion order); offsets without cells have no entry.
        self._table: dict[int, list[Cell]] = {}

    def _mutated(self) -> None:
        self.version += 1
        if self.on_change is not None:
            self.on_change()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_cell(self, cell: Cell) -> Cell:
        """Install ``cell`` in this slotframe.

        Raises ``ValueError`` when the slot offset exceeds the slotframe
        length.  Duplicate (slot, channel, neighbor, options) cells are
        ignored and the already-installed cell is returned, which makes
        scheduler code idempotent.
        """
        if cell.slot_offset >= self.length:
            raise ValueError(
                f"slot offset {cell.slot_offset} out of range for slotframe of length {self.length}"
            )
        cell.slotframe_handle = self.handle
        existing = self.find_cell(
            cell.slot_offset, cell.channel_offset, cell.neighbor, cell.options
        )
        if existing is not None:
            return existing
        self._table.setdefault(cell.slot_offset, []).append(cell)
        self._mutated()
        return cell

    def remove_cell(self, cell: Cell) -> bool:
        """Remove a previously installed cell.  Returns True when found."""
        bucket = self._table.get(cell.slot_offset)
        if bucket is None:
            return False
        try:
            bucket.remove(cell)
        except ValueError:
            return False
        if not bucket:
            del self._table[cell.slot_offset]
        self._mutated()
        return True

    def remove_cells_with_neighbor(self, neighbor: int) -> int:
        """Remove every cell dedicated to ``neighbor`` (e.g. after a parent switch)."""
        removed = 0
        for offset, bucket in list(self._table.items()):
            keep = [c for c in bucket if c.neighbor != neighbor]
            if len(keep) == len(bucket):
                continue
            removed += len(bucket) - len(keep)
            if keep:
                self._table[offset] = keep
            else:
                del self._table[offset]
        if removed:
            self._mutated()
        return removed

    def clear(self) -> None:
        """Remove every cell."""
        self._table = {}
        self._mutated()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def cells_at(self, asn: int) -> list[Cell]:
        """Cells active at the given absolute slot number.

        Returns the internal per-offset bucket (O(1), no copy), or the shared
        empty bucket; callers must treat it as read-only.
        """
        return self._table.get(asn % self.length, _EMPTY)

    def cells_at_offset(self, slot_offset: int) -> list[Cell]:
        """Cells installed at a given slot offset (read-only view)."""
        return self._table.get(slot_offset, _EMPTY)

    def find_cell(
        self,
        slot_offset: int,
        channel_offset: Optional[int] = None,
        neighbor: Optional[int] = None,
        options: Optional[CellOption] = None,
    ) -> Optional[Cell]:
        """First installed cell matching the given attributes, if any."""
        for cell in self._table.get(slot_offset, _EMPTY):
            if channel_offset is not None and cell.channel_offset != channel_offset:
                continue
            if neighbor is not None and cell.neighbor != neighbor:
                continue
            if options is not None and cell.options != options:
                continue
            return cell
        return None

    def all_cells(self) -> Iterator[Cell]:
        """Iterate over every installed cell (slot order, then insertion order)."""
        for _, bucket in sorted(self._table.items()):
            yield from bucket

    def cells_with_neighbor(self, neighbor: Optional[int]) -> list[Cell]:
        """All cells dedicated to ``neighbor``."""
        return [cell for cell in self.all_cells() if cell.neighbor == neighbor]

    def used_slot_offsets(self) -> list[int]:
        """Sorted slot offsets that have at least one cell installed."""
        return sorted(self._table)

    def free_slot_offsets(self) -> list[int]:
        """Slot offsets with no cell installed (GT-TSCH's sleep timeslots)."""
        return [offset for offset in range(self.length) if offset not in self._table]

    def count_cells(
        self,
        options: Optional[CellOption] = None,
        neighbor: Optional[int] = None,
        purpose: Optional[CellPurpose] = None,
    ) -> int:
        """Count installed cells matching the given filters."""
        count = 0
        for cell in self.all_cells():
            if options is not None and not (cell.options & options):
                continue
            if neighbor is not None and cell.neighbor != neighbor:
                continue
            if purpose is not None and cell.purpose != purpose:
                continue
            count += 1
        return count

    def occupancy(self) -> float:
        """Fraction of slot offsets with at least one cell installed."""
        return len(self._table) / self.length

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._table.values())

    def __iter__(self) -> Iterator[Cell]:
        return self.all_cells()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Slotframe(handle={self.handle}, length={self.length}, cells={len(self)})"


def render_cdu_matrix(slotframes: Iterable[Slotframe], num_channels: int) -> list[list[str]]:
    """Render slotframes into a CDU-matrix grid of labels (Fig. 1 style).

    Returns a list of rows indexed by channel offset; each entry is either an
    empty string or a comma-separated list of "(sender,receiver)"-style labels
    built from the cells' neighbor and direction.  Intended for examples,
    documentation and tests -- not used by the protocol machinery.
    """
    length = max(sf.length for sf in slotframes)
    grid = [["" for _ in range(length)] for _ in range(num_channels)]
    for sf in slotframes:
        for cell in sf.all_cells():
            if cell.channel_offset >= num_channels:
                continue
            direction = "Tx" if cell.is_tx else "Rx"
            target = "*" if cell.neighbor is None else str(cell.neighbor)
            tag = f"{direction}->{target}"
            existing = grid[cell.channel_offset][cell.slot_offset]
            grid[cell.channel_offset][cell.slot_offset] = (
                f"{existing},{tag}" if existing else tag
            )
    return grid
