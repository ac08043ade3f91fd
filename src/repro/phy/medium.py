"""Per-slot arbitration of concurrent transmissions (the radio medium).

In a TSCH network every synchronised node acts within the same timeslot, so
the medium can be resolved slot-by-slot:

1.  every node declares an *intent*: transmit a frame on a physical channel,
    listen on a physical channel, or sleep;
2.  the medium groups transmissions per physical channel and decides, for
    every listener, whether it decodes a frame, hears a collision, or hears
    nothing;
3.  for unicast frames the medium also resolves the acknowledgement sent by
    the receiver in the same slot.

The collision rules intentionally reproduce the four interference problems of
Section III of the paper (same-slot parent/child conflicts, sibling conflicts,
uncle conflicts, hidden terminals): any listener that is within interference
range of two or more simultaneous transmitters on its channel decodes
nothing.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING, Optional

from repro.net.packet import BROADCAST_ADDRESS, Packet
from repro.phy.propagation import Position, PropagationModel
from repro.sim.accel import numpy_or_none

if TYPE_CHECKING:
    import random  # reprolint: disable=RL001

# Optional accelerator: the container ships numpy, CI may not (and
# REPRO_NO_NUMPY=1 forces the pure-Python fallback for equivalence tests).
_np = numpy_or_none()


class TransmissionIntent:
    """A node's decision to transmit a frame in the current slot.

    Hand-rolled ``__slots__`` class (not a dataclass): one is allocated per
    transmission on the kernel's hot path.
    """

    __slots__ = ("sender", "packet", "channel", "expects_ack")

    def __init__(
        self,
        sender: int,
        packet: Packet,
        channel: int,
        expects_ack: bool = True,
    ) -> None:
        self.sender = sender
        self.packet = packet
        self.channel = channel
        #: True when the sender expects a link-layer ACK (unicast data/6P).
        self.expects_ack = expects_ack

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TransmissionIntent(sender={self.sender}, channel={self.channel}, "
            f"packet={self.packet!r})"
        )


class TransmissionResult:
    """Outcome of one transmission intent after medium arbitration.

    ``__slots__`` class for the same hot-path reason as its intent.
    """

    __slots__ = ("intent", "receivers", "delivered", "acked", "collided")

    def __init__(
        self,
        intent: TransmissionIntent,
        receivers: Optional[list[int]] = None,
        delivered: bool = False,
        acked: bool = False,
        collided: bool = False,
    ) -> None:
        self.intent = intent
        #: Node ids that decoded the frame.
        self.receivers = [] if receivers is None else receivers
        #: Whether the intended unicast destination decoded the frame.
        self.delivered = delivered
        #: Whether the sender received the link-layer ACK (unicast only).
        self.acked = acked
        #: True when the frame was lost because of a collision at the
        #: intended destination (as opposed to channel error).
        self.collided = collided

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TransmissionResult(delivered={self.delivered}, acked={self.acked}, "
            f"collided={self.collided}, receivers={self.receivers})"
        )


def _candidate_columns(
    positions: Sequence[Position], cutoff: Optional[float]
) -> list[list[int]]:
    """Per node index, the ascending node indices :meth:`Medium.freeze` queries.

    With a usable ``cutoff`` the nodes are bucketed into square cells a hair
    wider than it -- the margin covers float rounding in the distance and
    cell arithmetic, relative to both the cut-off and the largest coordinate
    -- so two nodes within the cut-off are never more than one cell apart,
    and a node's candidates are the members of its own cell and the eight
    around it.  Nodes of one cell share one list.  Without a cut-off (or
    with non-finite coordinates) every node is a candidate of every other.
    """
    everyone = list(range(len(positions)))
    extent = max((abs(c) for position in positions for c in position), default=0.0)
    cell = math.inf if cutoff is None else cutoff * (1.0 + 1e-9) + extent * 1e-12
    if not 0.0 < cell < math.inf:
        return [everyone] * len(positions)
    keys = [(math.floor(x / cell), math.floor(y / cell)) for x, y in positions]
    members: dict[tuple[int, int], list[int]] = {}
    for index, key in enumerate(keys):
        members.setdefault(key, []).append(index)
    nearby = {
        (cx, cy): sorted(
            index
            for dx in (-1, 0, 1)
            for dy in (-1, 0, 1)
            for index in members.get((cx + dx, cy + dy), ())
        )
        for cx, cy in members
    }
    return [nearby[key] for key in keys]


class Medium:
    """The shared radio medium: positions, propagation, per-slot arbitration."""

    def __init__(
        self,
        propagation: PropagationModel,
        rng: random.Random,
        ack_prr_scale: float = 1.0,
    ) -> None:
        """
        Parameters
        ----------
        propagation:
            Model answering PRR / interference-range queries.
        rng:
            ``random.Random`` stream used for packet-loss draws.
        ack_prr_scale:
            Multiplier applied to the reverse-link PRR when resolving ACKs
            (ACK frames are short, so they often survive links that drop full
            data frames; 1.0 keeps both identical).
        """
        self.propagation = propagation
        self.rng = rng
        self.ack_prr_scale = ack_prr_scale
        #: When False, arbitration always takes the general grouped path (the
        #: reference implementation); the single-transmitter shortcut below is
        #: identical in results and RNG draws, it only skips the bookkeeping.
        self.fast_paths = True
        self._positions: dict[int, Position] = {}
        # Caches keyed by ordered node-id pair; the topology is static after
        # build, so propagation queries are answered at most once per pair.
        self._prr_cache: dict[tuple[int, int], float] = {}
        self._interf_cache: dict[tuple[int, int], bool] = {}
        self._neighbors_cache: dict[tuple[int, float], list[int]] = {}
        #: Dense matrix state (populated by :meth:`freeze`): node id ->
        #: contiguous index, and per-sender rows indexed by listener index.
        self._frozen = False
        self._index_of: dict[int, int] = {}
        self._ids: list[int] = []
        self._prr_rows: dict[int, list[float]] = {}
        self._interf_rows: dict[int, list[bool]] = {}
        self._audience: dict[int, frozenset] = {}
        #: Link-degradation epochs (fault injection): the pristine frozen
        #: PRR rows, kept aside the first time :meth:`set_prr_scale`
        #: degrades the medium so ending the last epoch restores them
        #: bit-exactly, and the scale currently applied.
        self._prr_base_rows: Optional[dict[int, list[float]]] = None
        self._prr_scale = 1.0
        #: Per-link scale vectors (dynamic-medium epochs): sender id ->
        #: per-listener multipliers composed on top of the scalar scale.
        #: ``None`` means no per-link epoch is open.
        self._link_scale_rows: Optional[dict[int, list[float]]] = None
        #: Monotonic count of per-link epoch transitions since freeze();
        #: stamped into :meth:`export_frozen` snapshots so the sweep engine's
        #: warm-pool frozen cache can prove it only ever serves epoch-0
        #: (pristine) tables.
        self._link_epoch = 0
        #: Dense boolean interference matrix (numpy, when available): row =
        #: sender index, column = listener index.  Pure accelerator for the
        #: audible-count scan of :meth:`_resolve_same_channel`; the list
        #: tables above remain the source of truth (PRR floats in
        #: particular are always read from them, so every RNG comparison
        #: uses exactly the reference values).
        self._np_interf = None
        #: Dense float64 PRR matrix, same indexing.  Unlike ``_np_interf``
        #: it is also an *RNG comparison* input on the batched broadcast
        #: path, which stays bit-identical because float64 round-trips the
        #: list values exactly.  Freeze scatters the row values into it,
        #: adopters share the snapshot's copy, and link-degradation epochs
        #: rebuild it from the replaced ``_prr_rows``.
        self._np_prr = None
        #: Counters for diagnostics / tests.
        self.total_transmissions = 0
        self.total_collisions = 0

    # ------------------------------------------------------------------
    # topology registration
    # ------------------------------------------------------------------
    def register_node(self, node_id: int, position: Position) -> None:
        """Register (or move) a node at ``position``."""
        self._positions[node_id] = position
        self._prr_cache.clear()
        self._interf_cache.clear()
        self._neighbors_cache.clear()
        # The dense tables are stale the moment the topology changes; the next
        # freeze() recomputes them in one pass.
        self._frozen = False
        self._index_of = {}
        self._ids = []
        self._prr_rows = {}
        self._interf_rows = {}
        self._audience = {}
        self._prr_base_rows = None
        self._prr_scale = 1.0
        self._link_scale_rows = None
        self._link_epoch = 0
        self._np_interf = None
        self._np_prr = None

    @property
    def frozen(self) -> bool:
        """Whether the dense PRR / interference tables are current."""
        return self._frozen

    def freeze(self) -> None:
        """Bulk-precompute every pairwise link query (idempotent).

        Called when the topology is final (the network does this on
        :meth:`~repro.net.network.Network.start`): one pass fills dense N x N
        PRR and interference tables plus the default neighbor lists and
        audiences, so the hot arbitration path never hits the lazy per-pair
        dict-miss path.  Rows start as ``0.0`` / ``False`` and only
        *candidate* pairs are queried: when the propagation model states a
        :meth:`~repro.phy.propagation.PropagationModel.cutoff_range`, nodes
        are bucketed into grid cells just wider than it and a node's
        candidates are the nodes in its own and the eight surrounding cells
        (see :func:`_candidate_columns`), so setup costs O(N*k) propagation
        calls for k nodes within range instead of N^2.  Every other pair is
        provably out of range, which is exactly what the zero-filled rows
        hold; models without a cut-off query every pair.  Candidates are
        visited in id-index order, so the tables, neighbor lists and
        audiences are exactly what the lazy path would have computed and
        freezing never changes simulation results.  Registering (or moving)
        a node un-freezes the medium.
        """
        if self._frozen:
            return
        ids = list(self._positions)
        count = len(ids)
        positions = list(self._positions.values())
        self._ids = ids
        self._index_of = {node_id: index for index, node_id in enumerate(ids)}
        prr = self.propagation.prr
        in_range = self.propagation.in_interference_range
        np_prr = np_interf = None
        if _np is not None and ids:
            np_prr = _np.zeros((count, count))
            np_interf = _np.zeros((count, count), dtype=bool)
        candidates = _candidate_columns(positions, self.propagation.cutoff_range())
        for index, a in enumerate(ids):
            position_a = positions[index]
            columns = candidates[index]
            prr_row = [0.0] * count
            interf_row = [False] * count
            neighbors: list[int] = []
            audience: list[int] = []
            for column in columns:
                if column == index:
                    continue
                position_b = positions[column]
                value = prr(position_a, position_b)
                heard = in_range(position_a, position_b)
                prr_row[column] = value
                interf_row[column] = heard
                if value > 0.0:
                    neighbors.append(ids[column])
                if heard:
                    audience.append(ids[column])
            self._prr_rows[a] = prr_row
            self._interf_rows[a] = interf_row
            self._neighbors_cache[(a, 0.0)] = neighbors
            self._audience[a] = frozenset(audience)
            if np_prr is not None and np_interf is not None:
                np_prr[index, columns] = [prr_row[column] for column in columns]
                np_interf[index, columns] = [interf_row[column] for column in columns]
        self._np_prr = np_prr
        self._np_interf = np_interf
        self._frozen = True

    def export_frozen(self) -> dict:
        """Snapshot the dense tables computed by :meth:`freeze`.

        The tables are a pure function of the node positions and the
        propagation model (no RNG), so a snapshot taken from one network can
        seed any other network with the same topology and model -- the sweep
        engine's workers use this to freeze each distinct topology once per
        process instead of once per scenario cell.  The snapshot shares the
        row lists and numpy matrices; callers must treat them as read-only
        (the simulator does: epochs build new rows and a new ``_np_prr``).
        """
        if not self._frozen:
            raise RuntimeError("export_frozen() requires a frozen medium")
        if self._prr_scale != 1.0 or self._link_scale_rows is not None:
            # A snapshot taken mid-epoch would poison every adopter with
            # degraded tables; the sweep engine snapshots right after
            # freeze(), before any fault fires, so this never triggers there.
            raise RuntimeError("export_frozen() during a link-degradation epoch")
        return {
            "ids": self._ids,
            "index_of": self._index_of,
            "prr_rows": self._prr_rows,
            "interf_rows": self._interf_rows,
            "audience": self._audience,
            "neighbors": {key: value for key, value in self._neighbors_cache.items()},
            "np_interf": self._np_interf,
            "np_prr": self._np_prr,
            # Epoch stamp: snapshots are only ever taken at pristine tables
            # (enforced above), so adopters can assert the stamp to prove the
            # warm-pool frozen cache was never fed a mid-epoch table.
            "link_epoch": self._link_epoch,
        }

    def adopt_frozen(self, state: dict) -> bool:
        """Install a :meth:`export_frozen` snapshot instead of recomputing.

        Returns False (leaving the medium untouched, to be frozen normally)
        when the snapshot's node set does not match this medium's -- the
        caller's cache key should make that impossible, but a silent mismatch
        would corrupt every PRR draw, so it is checked.
        """
        if self._frozen:
            return True
        if state["ids"] != list(self._positions):
            return False
        self._ids = state["ids"]
        self._index_of = state["index_of"]
        self._prr_rows = state["prr_rows"]
        self._interf_rows = state["interf_rows"]
        self._audience = state["audience"]
        self._neighbors_cache.update(state["neighbors"])
        # Snapshots are always pristine (export_frozen refuses mid-epoch
        # tables), so the adopter starts a fresh epoch history of its own.
        self._link_epoch = 0
        self._np_interf = state["np_interf"]
        self._np_prr = state["np_prr"]
        self._frozen = True
        return True

    def set_prr_scale(self, scale: float) -> None:
        """Enter (or leave) a link-degradation epoch on a frozen medium.

        Rebuilds the dense PRR tables as ``pristine_row * scale`` without
        unfreezing: interference ranges, audience sets and neighbor
        reachability are untouched (``scale`` is strictly positive, so
        ``prr > 0`` membership is preserved), which keeps the dispatch
        kernel's participant planning valid across epochs.  The pristine
        rows are kept aside on first use and re-installed -- the very same
        list objects, bit-exact -- when the scale returns to 1.0.  Rows are
        always *new* lists, never mutated in place, because snapshots from
        :meth:`export_frozen` (the sweep engine's per-topology freeze
        cache) share them.
        """
        if not self._frozen:
            raise RuntimeError("set_prr_scale() requires a frozen medium")
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"PRR scale must be in (0, 1], got {scale}")
        if scale == self._prr_scale:
            return
        self._prr_scale = scale
        self._recompute_scaled_rows()

    def set_link_prr_scales(
        self, scale_rows: Optional[dict[int, Sequence[float]]]
    ) -> None:
        """Enter (or, with ``None``, leave) a *per-link* scale epoch.

        The dynamic-medium policy (:mod:`repro.phy.dynamic`) perturbs
        individual links rather than the whole medium: ``scale_rows`` maps
        every sender id to a per-listener multiplier vector (same indexing as
        the frozen PRR rows, values in ``(0, 1]`` so audience membership is
        preserved).  The vectors compose multiplicatively with the scalar
        :meth:`set_prr_scale` epochs, and like them they rebuild *new* row
        lists from the pristine base without unfreezing — snapshots from
        :meth:`export_frozen` share the base rows and must never see them
        mutate.  Every transition bumps the epoch stamp checked by
        :meth:`export_frozen`.
        """
        if not self._frozen:
            raise RuntimeError("set_link_prr_scales() requires a frozen medium")
        if scale_rows is None:
            if self._link_scale_rows is None:
                return
            self._link_scale_rows = None
            self._link_epoch += 1
            self._recompute_scaled_rows()
            return
        validated: dict[int, list[float]] = {}
        width = len(self._ids)
        for sender in self._ids:
            row = scale_rows.get(sender)
            if row is None:
                raise ValueError(f"per-link scale rows missing sender {sender}")
            values = list(row)
            if len(values) != width:
                raise ValueError(
                    f"per-link scale row for sender {sender} has "
                    f"{len(values)} entries, expected {width}"
                )
            for value in values:
                if not 0.0 < value <= 1.0:
                    raise ValueError(
                        f"per-link PRR scale must be in (0, 1], got {value}"
                    )
            validated[sender] = values
        self._link_scale_rows = validated
        self._link_epoch += 1
        self._recompute_scaled_rows()

    def _recompute_scaled_rows(self) -> None:
        """Rebuild the effective PRR rows: ``base * scalar * per-link``.

        Shared by the scalar and per-link epoch entry points.  The pristine
        rows are kept aside on first use and re-installed — the very same
        list objects, bit-exact — when both scales return to pristine; the
        scalar-only branch keeps the exact historic ``value * scale``
        expression so legacy link-degradation epochs stay bit-identical.
        """
        if self._prr_base_rows is None:
            self._prr_base_rows = self._prr_rows
        base = self._prr_base_rows
        scale = self._prr_scale
        link = self._link_scale_rows
        if scale == 1.0 and link is None:
            self._prr_rows = base
        elif link is None:
            self._prr_rows = {
                sender: [value * scale for value in row]
                for sender, row in base.items()
            }
        elif scale == 1.0:
            self._prr_rows = {
                sender: [value * s for value, s in zip(row, link[sender])]
                for sender, row in base.items()
            }
        else:
            self._prr_rows = {
                sender: [value * scale * s for value, s in zip(row, link[sender])]
                for sender, row in base.items()
            }
        if self._np_interf is not None:
            self._rebuild_np_prr()

    def _rebuild_np_prr(self) -> None:
        """Mirror ``_prr_rows`` into a new dense numpy table (epochs).

        Always rebuilt *from* the list rows so every batched comparison uses
        bit-exact copies of the reference values, including mid-epoch scaled
        rows; never written in place, since snapshots share the old table.
        """
        self._np_prr = _np.array(
            [self._prr_rows[a] for a in self._ids], dtype=float
        )

    @property
    def prr_scale(self) -> float:
        """The link-degradation scale currently applied (1.0 = pristine)."""
        return self._prr_scale

    @property
    def link_epoch(self) -> int:
        """Count of per-link epoch transitions applied since freeze()."""
        return self._link_epoch

    @property
    def in_link_epoch(self) -> bool:
        """Whether a per-link scale epoch is currently open."""
        return self._link_scale_rows is not None

    def audience_of(self, sender: int) -> frozenset:
        """Node ids within interference range of ``sender`` (frozen medium).

        Exactly the listeners that could draw an RNG number or decode when
        ``sender`` transmits; everyone else provably hears nothing, which the
        network's dispatch kernel exploits to leave them unplanned.
        """
        return self._audience[sender]

    def position_of(self, node_id: int) -> Position:
        return self._positions[node_id]

    def node_ids(self) -> Sequence[int]:
        return tuple(self._positions)

    # ------------------------------------------------------------------
    # link queries
    # ------------------------------------------------------------------
    def link_prr(self, sender: int, receiver: int) -> float:
        """Interference-free PRR of the directed link sender -> receiver."""
        if self._frozen:
            return self._prr_rows[sender][self._index_of[receiver]]
        if sender == receiver:
            return 0.0
        key = (sender, receiver)
        if key not in self._prr_cache:
            self._prr_cache[key] = self.propagation.prr(
                self._positions[sender], self._positions[receiver]
            )
        return self._prr_cache[key]

    def interferes(self, transmitter: int, listener: int) -> bool:
        """Whether energy from ``transmitter`` reaches ``listener`` at all."""
        if self._frozen:
            return self._interf_rows[transmitter][self._index_of[listener]]
        if transmitter == listener:
            return False
        key = (transmitter, listener)
        if key not in self._interf_cache:
            self._interf_cache[key] = self.propagation.in_interference_range(
                self._positions[transmitter], self._positions[listener]
            )
        return self._interf_cache[key]

    def neighbors_of(self, node_id: int, min_prr: float = 0.0) -> list[int]:
        """Node ids with a usable link from ``node_id`` (PRR > ``min_prr``).

        Memoised per ``(node, threshold)``; the cache is dropped whenever a
        node registers or moves.  Callers get the cached list itself and must
        treat it as read-only.
        """
        key = (node_id, min_prr)
        neighbors = self._neighbors_cache.get(key)
        if neighbors is None:
            neighbors = [
                other
                for other in self._positions
                if other != node_id and self.link_prr(node_id, other) > min_prr
            ]
            self._neighbors_cache[key] = neighbors
        return neighbors

    # ------------------------------------------------------------------
    # per-slot arbitration
    # ------------------------------------------------------------------
    def resolve_slot(
        self,
        intents: Sequence[TransmissionIntent],
        listeners: dict[int, int],
        listeners_by_channel: Optional[dict[int, list[int]]] = None,
    ) -> list[TransmissionResult]:
        """Arbitrate one timeslot.

        Parameters
        ----------
        intents:
            All transmissions attempted in this slot (across all channels).
        listeners:
            Mapping ``node_id -> physical channel`` for every node whose radio
            is in receive mode this slot.  Transmitting nodes must not appear
            here (half-duplex radios).
        listeners_by_channel:
            Optional ``channel -> listener ids`` grouping of the same
            listeners, with each group preserving the iteration order of
            ``listeners``.  The network's dispatch loop builds it for free
            while planning; when absent it is derived here once per slot.
            Either way both fast paths below share it instead of re-checking
            every listener's channel per intent.

        Returns
        -------
        One :class:`TransmissionResult` per intent, in input order.
        """
        results = [TransmissionResult(intent=intent) for intent in intents]
        self.total_transmissions += len(intents)
        if not intents:
            return results

        channel = intents[0].channel
        if self.fast_paths and all(intent.channel == channel for intent in intents):
            # Fast path for the overwhelmingly common case of every
            # transmission sharing one physical channel (a single transmitter
            # in particular): listeners on other channels can neither decode
            # nor collide, so only the matching channel group is visited.
            # Within the group the listener order equals the order of
            # ``listeners``, so arbitration and RNG draws are identical to
            # the general path below.
            if listeners_by_channel is not None:
                channel_listeners: Sequence[int] = listeners_by_channel.get(channel, ())
            else:
                channel_listeners = [
                    listener for listener, ch in listeners.items() if ch == channel
                ]
            if len(intents) == 1:
                self._resolve_single(intents[0], results[0], channel_listeners)
            else:
                self._resolve_same_channel(intents, results, channel_listeners)
            self._resolve_acks(results)
            return results

        # Group transmitting senders per physical channel.
        per_channel: dict[int, list[int]] = {}
        for index, intent in enumerate(intents):
            per_channel.setdefault(intent.channel, []).append(index)

        for listener, channel in listeners.items():
            indices = per_channel.get(channel)
            if not indices:
                continue
            # Which simultaneous transmitters does this listener hear energy from?
            audible = [i for i in indices if self.interferes(intents[i].sender, listener)]
            if not audible:
                continue
            if len(audible) > 1:
                # Two or more frames overlap at this listener: collision, the
                # listener decodes nothing.  This is exactly the failure mode
                # of problems 1-4 in Section III of the paper.
                for i in audible:
                    if intents[i].packet.link_destination in (listener, BROADCAST_ADDRESS):
                        results[i].collided = True
                self.total_collisions += 1
                continue
            index = audible[0]
            intent = intents[index]
            prr = self.link_prr(intent.sender, listener)
            if prr <= 0.0:
                # Energy is audible (interference range) but too weak to decode.
                continue
            if self.rng.random() <= prr:
                results[index].receivers.append(listener)
                if intent.packet.link_destination == listener:
                    results[index].delivered = True

        self._resolve_acks(results)
        return results

    def _resolve_single(
        self,
        intent: TransmissionIntent,
        result: TransmissionResult,
        channel_listeners: Sequence[int],
    ) -> None:
        """Resolve one transmitter against its channel's listeners (no collision)."""
        destination = intent.packet.link_destination
        rng_random = self.rng.random
        if self._frozen:
            interf_row = self._interf_rows[intent.sender]
            prr_row = self._prr_rows[intent.sender]
            index_of = self._index_of
            if self._np_prr is not None and len(channel_listeners) >= 16:
                # Broadcast-sized audiences (EB/DIO on the frozen topology):
                # mask eligibility in one vectorised pass, then draw the RNG
                # for exactly the eligible listeners, in listener order --
                # the same scalar draws the loop below would make -- and
                # compare the whole batch at once.  float64 copies of the
                # list PRRs make the comparison bit-identical.
                columns = _np.fromiter(
                    (index_of[listener] for listener in channel_listeners),
                    dtype=_np.intp,
                    count=len(channel_listeners),
                )
                sender_row = index_of[intent.sender]
                prr_sub = self._np_prr[sender_row, columns]
                eligible = _np.flatnonzero(
                    self._np_interf[sender_row, columns] & (prr_sub > 0.0)
                )
                if not len(eligible):
                    return
                draws = _np.fromiter(
                    (rng_random() for _ in range(len(eligible))),
                    dtype=float,
                    count=len(eligible),
                )
                received = eligible[draws <= prr_sub[eligible]]
                receivers = result.receivers
                for position in received.tolist():
                    listener = channel_listeners[position]
                    receivers.append(listener)
                    if destination == listener:
                        result.delivered = True
                return
            for listener in channel_listeners:
                index = index_of[listener]
                if not interf_row[index]:
                    continue
                prr = prr_row[index]
                if prr <= 0.0:
                    continue
                if rng_random() <= prr:
                    result.receivers.append(listener)
                    if destination == listener:
                        result.delivered = True
            return
        for listener in channel_listeners:
            if not self.interferes(intent.sender, listener):
                continue
            prr = self.link_prr(intent.sender, listener)
            if prr <= 0.0:
                continue
            if rng_random() <= prr:
                result.receivers.append(listener)
                if destination == listener:
                    result.delivered = True

    def _resolve_same_channel(
        self,
        intents: Sequence[TransmissionIntent],
        results: list[TransmissionResult],
        channel_listeners: Sequence[int],
    ) -> None:
        """Resolve several same-channel transmitters (collisions possible)."""
        if (
            self._np_interf is not None
            and len(intents) >= 3
            and len(channel_listeners) >= 8
        ):
            # Vectorised audible counting (the dense matrix is a pure
            # function of the list tables, and PRR values are still read
            # from the reference lists): same collisions, same marks, same
            # RNG draws in the same listener order as the scans below.
            index_of = self._index_of
            sub = self._np_interf[
                _np.fromiter(
                    (index_of[intent.sender] for intent in intents),
                    dtype=_np.intp,
                    count=len(intents),
                )
            ][
                :,
                _np.fromiter(
                    (index_of[listener] for listener in channel_listeners),
                    dtype=_np.intp,
                    count=len(channel_listeners),
                ),
            ]
            counts = sub.sum(axis=0)
            collided_columns = counts > 1
            collisions = int(collided_columns.sum())
            if collisions:
                self.total_collisions += collisions
                # An intent audible at any collided listener it addresses is
                # marked; broadcasts address every listener.
                audible_at_collided = sub[:, collided_columns]
                broadcast_hit = audible_at_collided.any(axis=1)
                collided_listeners = None
                for index, intent in enumerate(intents):
                    destination = intent.packet.link_destination
                    if destination == BROADCAST_ADDRESS:
                        if broadcast_hit[index]:
                            results[index].collided = True
                    else:
                        if collided_listeners is None:
                            collided_listeners = {
                                listener
                                for listener, flag in zip(
                                    channel_listeners, collided_columns.tolist()
                                )
                                if flag
                            }
                        if destination in collided_listeners:
                            column = channel_listeners.index(destination)
                            if sub[index][column]:
                                results[index].collided = True
            if bool((counts == 1).any()):
                senders_of = sub.argmax(axis=0).tolist()
                rng_random = self.rng.random
                for column, count in enumerate(counts.tolist()):
                    if count != 1:
                        continue
                    index = senders_of[column]
                    intent = intents[index]
                    listener = channel_listeners[column]
                    prr = self._prr_rows[intent.sender][index_of[listener]]
                    if prr <= 0.0:
                        continue
                    if rng_random() <= prr:
                        results[index].receivers.append(listener)
                        if intent.packet.link_destination == listener:
                            results[index].delivered = True
            return
        if self._frozen:
            # Dense-table path: per listener, test each sender's precomputed
            # interference row directly -- no per-slot audible-map building,
            # no set allocations.  Listener order equals ``channel_listeners``
            # and audible senders keep intent order, so collisions, PRR draws
            # and the RNG stream are exactly those of the general scan below.
            index_of = self._index_of
            interf = [self._interf_rows[intent.sender] for intent in intents]
            prr_rows = [self._prr_rows[intent.sender] for intent in intents]
            count = len(intents)
            rng_random = self.rng.random
            for listener in channel_listeners:
                column = index_of[listener]
                first = -1
                audible = 0
                for index in range(count):
                    if interf[index][column]:
                        audible += 1
                        if audible == 1:
                            first = index
                if not audible:
                    continue
                if audible > 1:
                    for index in range(count):
                        if interf[index][column] and intents[
                            index
                        ].packet.link_destination in (listener, BROADCAST_ADDRESS):
                            results[index].collided = True
                    self.total_collisions += 1
                    continue
                prr = prr_rows[first][column]
                if prr <= 0.0:
                    continue
                if rng_random() <= prr:
                    results[first].receivers.append(listener)
                    if intents[first].packet.link_destination == listener:
                        results[first].delivered = True
            return
        for listener in channel_listeners:
            audible = [
                index
                for index, intent in enumerate(intents)
                if self.interferes(intent.sender, listener)
            ]
            if not audible:
                continue
            if len(audible) > 1:
                for index in audible:
                    if intents[index].packet.link_destination in (listener, BROADCAST_ADDRESS):
                        results[index].collided = True
                self.total_collisions += 1
                continue
            index = audible[0]
            intent = intents[index]
            prr = self.link_prr(intent.sender, listener)
            if prr <= 0.0:
                continue
            if self.rng.random() <= prr:
                results[index].receivers.append(listener)
                if intent.packet.link_destination == listener:
                    results[index].delivered = True

    def _resolve_acks(self, results: list[TransmissionResult]) -> None:
        """Resolve ACKs for unicast frames that reached their destination."""
        for result in results:
            intent = result.intent
            if not intent.expects_ack or intent.packet.is_broadcast:
                continue
            if not result.delivered:
                continue
            destination = intent.packet.link_destination
            ack_prr = min(1.0, self.link_prr(destination, intent.sender) * self.ack_prr_scale)
            result.acked = self.rng.random() <= ack_prr
