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
from collections.abc import Iterable, Sequence, Set
from typing import TYPE_CHECKING, Optional

from repro.net.packet import BROADCAST_ADDRESS, Packet
from repro.phy.propagation import Position, PropagationModel

if TYPE_CHECKING:
    import random  # reprolint: disable=RL001

#: Per-sender link map: ``sender -> {other node: value}``.
_LinkMap = dict[int, dict[int, float]]


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
        #: When False, arbitration always takes the general per-listener path
        #: (the reference implementation); the frozen medium's
        #: transmitter-centric path is identical in results and RNG draws.
        self.fast_paths = True
        self._positions: dict[int, Position] = {}
        # Caches keyed by ordered node-id pair; the topology is static after
        # build, so propagation queries are answered at most once per pair.
        self._prr_cache: dict[tuple[int, int], float] = {}
        self._interf_cache: dict[tuple[int, int], bool] = {}
        self._neighbors_cache: dict[tuple[int, float], list[int]] = {}
        #: Sparse link state (populated by :meth:`freeze`), every map in
        #: id-index order: node id -> contiguous index, ``_prr_map[sender]``
        #: = ``{receiver: PRR}`` over receivers with PRR > 0, and
        #: ``_heard[sender]`` = ``{listener: PRR}`` over listeners within
        #: interference range.  Pairs absent from a map are out of range.
        self._frozen = False
        self._index_of: dict[int, int] = {}
        self._ids: list[int] = []
        self._prr_map: _LinkMap = {}
        self._heard: _LinkMap = {}
        #: Link-degradation epochs (fault injection and link drift): the
        #: pristine ``(_prr_map, _heard)`` pair, re-installed bit-exactly when
        #: the last epoch ends, the scalar scale currently applied, and the
        #: per-link multipliers (``sender -> {receiver: scale}`` over the
        #: receivers of ``_prr_map``; ``None`` means no per-link epoch).
        self._pristine: tuple[_LinkMap, _LinkMap] = ({}, {})
        self._prr_scale = 1.0
        self._link_scales: Optional[_LinkMap] = None
        #: Monotonic count of per-link epoch transitions since freeze();
        #: stamped into :meth:`export_frozen` snapshots so the sweep engine's
        #: warm-pool frozen cache can prove it only ever serves epoch-0
        #: (pristine) maps.
        self._link_epoch = 0
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
        # The frozen maps are stale the moment the topology changes; the next
        # freeze() recomputes them in one pass.
        self._frozen = False
        self._index_of = {}
        self._ids = []
        self._prr_map = {}
        self._heard = {}
        self._pristine = ({}, {})
        self._prr_scale = 1.0
        self._link_scales = None
        self._link_epoch = 0

    @property
    def frozen(self) -> bool:
        """Whether the sparse PRR / interference maps are current."""
        return self._frozen

    def freeze(self) -> None:
        """Bulk-precompute every in-range link query (idempotent).

        Called when the topology is final (the network does this on
        :meth:`~repro.net.network.Network.start`): one pass fills, per
        sender, the map of receivers with PRR > 0 and the map of listeners
        within interference range, so the hot arbitration path never hits
        the lazy per-pair dict-miss path.  Only *candidate* pairs are
        queried: when the propagation model states a
        :meth:`~repro.phy.propagation.PropagationModel.cutoff_range`, nodes
        are bucketed into grid cells just wider than it and a node's
        candidates are the nodes in its own and the eight surrounding cells
        (see :func:`_candidate_columns`), so setup costs O(N*k) propagation
        calls and O(N*k) memory for k nodes within range.  Every other pair
        is provably out of range, which is what its absence from the maps
        means; models without a cut-off query every pair.  Candidates are
        visited in id-index order, so every map, neighbor list and audience
        iterates exactly as the lazy path would enumerate it and freezing
        never changes simulation results.  Registering (or moving) a node
        un-freezes the medium.
        """
        if self._frozen:
            return
        ids = list(self._positions)
        positions = list(self._positions.values())
        prr = self.propagation.prr
        in_range = self.propagation.in_interference_range
        candidates = _candidate_columns(positions, self.propagation.cutoff_range())
        prr_map: _LinkMap = {}
        heard: _LinkMap = {}
        for index, a in enumerate(ids):
            position_a = positions[index]
            reachable: dict[int, float] = {}
            audible: dict[int, float] = {}
            for column in candidates[index]:
                if column == index:
                    continue
                position_b = positions[column]
                value = prr(position_a, position_b)
                if value > 0.0:
                    reachable[ids[column]] = value
                if in_range(position_a, position_b):
                    audible[ids[column]] = value
            prr_map[a] = reachable
            heard[a] = audible
        index_of = {node_id: index for index, node_id in enumerate(ids)}
        self._install(ids, index_of, prr_map, heard)

    def _install(
        self,
        ids: list[int],
        index_of: dict[int, int],
        prr_map: _LinkMap,
        heard: _LinkMap,
    ) -> None:
        self._ids = ids
        self._index_of = index_of
        self._prr_map = prr_map
        self._heard = heard
        self._pristine = (prr_map, heard)
        self._frozen = True

    def export_frozen(self) -> dict:
        """Snapshot the maps computed by :meth:`freeze`.

        The maps are a pure function of the node positions and the
        propagation model (no RNG), so a snapshot taken from one network can
        seed any other network with the same topology and model -- the sweep
        engine's workers use this to freeze each distinct topology once per
        process instead of once per scenario cell.  The snapshot shares the
        per-sender maps; callers must treat them as read-only (the simulator
        does: epochs build new maps).
        """
        if not self._frozen:
            raise RuntimeError("export_frozen() requires a frozen medium")
        if self._prr_scale != 1.0 or self._link_scales is not None:
            # A snapshot taken mid-epoch would poison every adopter with
            # degraded maps; the sweep engine snapshots right after
            # freeze(), before any fault fires, so this never triggers there.
            raise RuntimeError("export_frozen() during a link-degradation epoch")
        return {
            "ids": self._ids,
            "index_of": self._index_of,
            "prr_map": self._prr_map,
            "heard": self._heard,
            # Epoch stamp: snapshots are only ever taken at pristine maps
            # (enforced above), so adopters can assert the stamp to prove the
            # warm-pool frozen cache was never fed a mid-epoch map.
            "link_epoch": self._link_epoch,
        }

    def adopt_frozen(self, state: dict) -> bool:
        """Install a :meth:`export_frozen` snapshot instead of recomputing.

        Returns False (leaving the medium untouched, to be frozen normally)
        when the snapshot's node set does not match this medium's -- the
        caller's cache key should make that impossible, but a silent mismatch
        would corrupt every PRR draw, so it is checked.  Snapshots are always
        pristine, so the adopter starts a fresh epoch history of its own.
        """
        if self._frozen:
            return True
        if state["ids"] != list(self._positions):
            return False
        self._link_epoch = 0
        self._install(state["ids"], state["index_of"], state["prr_map"], state["heard"])
        return True

    def set_prr_scale(self, scale: float) -> None:
        """Enter (or leave) a link-degradation epoch on a frozen medium.

        Rebuilds the PRR maps as ``pristine_value * scale`` without
        unfreezing: interference ranges, audiences and neighbor reachability
        are untouched (``scale`` is strictly positive, so ``prr > 0``
        membership is preserved), which keeps the dispatch kernel's
        participant planning valid across epochs.  The pristine maps are
        re-installed -- the very same objects, bit-exact -- when the scale
        returns to 1.0.  Maps are always *new*, never mutated in place,
        because snapshots from :meth:`export_frozen` (the sweep engine's
        per-topology freeze cache) share them.
        """
        if not self._frozen:
            raise RuntimeError("set_prr_scale() requires a frozen medium")
        if not 0.0 < scale <= 1.0:
            raise ValueError(f"PRR scale must be in (0, 1], got {scale}")
        if scale == self._prr_scale:
            return
        self._prr_scale = scale
        self._rescale()

    def set_link_prr_scales(
        self, scale_rows: Optional[dict[int, Sequence[float]]]
    ) -> None:
        """Enter (or, with ``None``, leave) a *per-link* scale epoch.

        The dynamic-medium policy (:mod:`repro.phy.dynamic`) perturbs
        individual links rather than the whole medium: ``scale_rows`` maps
        every sender id to a per-listener multiplier vector indexed in node
        registration order (values in ``(0, 1]`` so audience membership is
        preserved).  The vectors compose multiplicatively with the scalar
        :meth:`set_prr_scale` epochs, and like them they rebuild *new* maps
        from the pristine ones without unfreezing — snapshots from
        :meth:`export_frozen` share the pristine maps and must never see them
        mutate.  Every transition bumps the epoch stamp checked by
        :meth:`export_frozen`.
        """
        if not self._frozen:
            raise RuntimeError("set_link_prr_scales() requires a frozen medium")
        if scale_rows is None:
            if self._link_scales is None:
                return
            self._link_scales = None
            self._link_epoch += 1
            self._rescale()
            return
        width = len(self._ids)
        index_of = self._index_of
        pristine_prr = self._pristine[0]
        link_scales: _LinkMap = {}
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
            # Only links with PRR > 0 can be scaled; keep just their factors.
            link_scales[sender] = {
                receiver: values[index_of[receiver]] for receiver in pristine_prr[sender]
            }
        self._link_scales = link_scales
        self._link_epoch += 1
        self._rescale()

    def _rescale(self) -> None:
        """Rebuild the effective maps: ``pristine * scalar * per-link``.

        Shared by the scalar and per-link epoch entry points.  The pristine
        maps are re-installed when both scales are back to pristine.  A
        missing factor is 1.0, and multiplying by 1.0 is exact in floating
        point, so each epoch kind yields exactly its own ``value * scale`` or
        ``value * factor``.  Heard values are copied from the scaled PRR map,
        so arbitration and :meth:`link_prr` always read the same float.
        """
        prr_map, heard = self._pristine
        scale = self._prr_scale
        link = self._link_scales
        if scale == 1.0 and link is None:
            self._prr_map, self._heard = prr_map, heard
            return
        scaled: _LinkMap = {}
        for sender, row in prr_map.items():
            factors: dict[int, float] = {} if link is None else link[sender]
            scaled[sender] = {
                receiver: value * scale * factors.get(receiver, 1.0)
                for receiver, value in row.items()
            }
        self._prr_map = scaled
        # Listeners without a usable link keep their (non-positive) PRR.
        self._heard = {
            sender: {
                listener: scaled[sender].get(listener, value)
                for listener, value in row.items()
            }
            for sender, row in heard.items()
        }

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
        return self._link_scales is not None

    def audience_of(self, sender: int) -> Set[int]:
        """Node ids within interference range of ``sender`` (frozen medium).

        Exactly the listeners that could draw an RNG number or decode when
        ``sender`` transmits; everyone else provably hears nothing, which the
        network's dispatch kernel exploits to leave them unplanned.  The
        result is a read-only set view, iterating in id-index order.
        """
        return self._heard[sender].keys()

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
            return self._prr_map[sender].get(receiver, 0.0)
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
            return listener in self._heard[transmitter]
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
        treat it as read-only.  On a frozen medium a non-negative threshold
        filters the node's PRR map, which holds every link with PRR > 0 in
        registration order.
        """
        key = (node_id, min_prr)
        neighbors = self._neighbors_cache.get(key)
        if neighbors is None:
            if self._frozen and min_prr >= 0.0:
                neighbors = [
                    other
                    for other, prr in self._prr_map[node_id].items()
                    if prr > min_prr
                ]
            else:
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
            here (half-duplex radios).  Listeners are resolved -- collisions
            counted and PRR draws taken -- in this mapping's iteration order.
        listeners_by_channel:
            Optional ``channel -> listener ids`` grouping of the same
            listeners, with each group preserving the iteration order of
            ``listeners``.  The network's dispatch loop builds it for free
            while planning; when every intent shares one channel the fast
            path orders that channel's group instead of all listeners.

        Returns
        -------
        One :class:`TransmissionResult` per intent, in input order.
        """
        results = [TransmissionResult(intent=intent) for intent in intents]
        self.total_transmissions += len(intents)
        if not intents:
            return results
        if self.fast_paths and self._frozen:
            self._resolve_frozen(intents, results, listeners, listeners_by_channel)
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

    def _resolve_frozen(
        self,
        intents: Sequence[TransmissionIntent],
        results: list[TransmissionResult],
        listeners: dict[int, int],
        listeners_by_channel: Optional[dict[int, list[int]]],
    ) -> None:
        """Transmitter-centric arbitration on the frozen maps.

        Each intent walks only its sender's heard map (k listeners) and keeps
        those tuned to its channel, collecting the audible intents per
        listener in O(sum of k).  The hit listeners are then resolved in the
        iteration order of ``listeners`` -- the general path's order, which
        fixes the RNG stream -- with the same collision marks, counts and
        PRR draws as the general path.
        """
        heard = self._heard
        listening_on = listeners.get
        first: dict[int, int] = {}
        clashes: dict[int, list[int]] = {}
        for index, intent in enumerate(intents):
            channel = intent.channel
            for listener in heard[intent.sender]:
                if listening_on(listener) == channel:
                    if listener in first:
                        clashes.setdefault(listener, [first[listener]]).append(index)
                    else:
                        first[listener] = index
        if not first:
            return
        order: Iterable[int] = first.keys()
        if len(first) > 1:
            channel = intents[0].channel
            if listeners_by_channel is not None and all(
                intent.channel == channel for intent in intents
            ):
                scope: Iterable[int] = listeners_by_channel.get(channel, ())
            else:
                scope = listeners
            order = [listener for listener in scope if listener in first]
        rng_random = self.rng.random
        for listener in order:
            if clashes:
                audible = clashes.get(listener)
                if audible is not None:
                    for index in audible:
                        if intents[index].packet.link_destination in (
                            listener,
                            BROADCAST_ADDRESS,
                        ):
                            results[index].collided = True
                    self.total_collisions += 1
                    continue
            index = first[listener]
            intent = intents[index]
            prr = heard[intent.sender][listener]
            if prr <= 0.0:
                continue
            if rng_random() <= prr:
                result = results[index]
                result.receivers.append(listener)
                if intent.packet.link_destination == listener:
                    result.delivered = True

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
