"""Schema-compiled skip-scan deserialization.

The paper's §6 future-work note — a server could use stored messages
to "avoid complete server-side parsing" — is implemented as the
structural lane of
:class:`~repro.server.diffdeser.DifferentialDeserializer`: once a
session template is known, a
:class:`SeekTable` is *compiled* from its parse result, and every
subsequent structural match **seeks** directly to the byte regions the
template marks mutable, parses only those values, and never
re-tokenizes the unchanged tag skeleton.

What makes this sound
---------------------

Every seek is a hand-computed offset into attacker-controlled bytes,
so the table trusts nothing it has not just checked:

* **Skeleton bytes are proven equal before apply.**  The caller (the
  differential deserializer) establishes that *every* byte that may
  differ from the template falls inside a known mutable region, one of
  two ways.  For a document: a vectorized compare against the stored
  template, each differing byte mapped to its region.  For a delta
  frame patched into the template buffer itself: per splice, not per
  byte — the buffer changes only through validated frames, the frame
  is the next in sequence for the buffer this table's decode follows,
  and each of its sorted, non-overlapping splices lies inside one
  region (a splice that crosses a region edge or touches skeleton
  bytes, even to rewrite them unchanged, is refused).  Either way,
  bytes outside the regions handed to :meth:`SeekTable.apply` are
  byte-identical to the template the table was compiled from — no
  re-validation needed.
* **The only movable skeleton tokens are re-validated.**  Inside a
  changed region the closing tag may sit at a new offset (the value
  width changed), so it is the one piece of markup skip-scan must
  re-find.  Each candidate is classified through a
  :class:`~repro.xmlkit.trie.ByteTrie` compiled from the template's
  closing tags (Chiu et al.'s tag-trie, HPDC 2002) and must match this
  leaf's expected tag id exactly; trailing pad must be whitespace.
* **Values go through the real lexical parsers.**  The per-leaf path
  uses the same :class:`~repro.schema.types.XSDType` parsers as a full
  parse.  The vectorized double path is the tree's one batch converter
  (:func:`repro.lexical.floats.parse_double_column`, shared with the
  full parse's leaf-run lane), which first proves every value is
  inside ``parse_double``'s contract; anything else (``INF``, ``NaN``,
  entities, garbage) drops to the per-leaf loop.
* **Two-phase apply.**  All regions are validated and parsed before
  any value is committed, so a failure midway never leaves the cached
  decode half-updated (the poisoned-session hazard from PR 4).
* **Any doubt falls back.**  Every validation failure raises
  :class:`SkipScanFallback`; the deserializer answers with a full
  parse, which is authoritative for both values and error class
  (fault-not-crash, the PR 4 taxonomy).

Descriptor classes (:mod:`repro.schema.descriptors`, generated from
WSDL by :func:`repro.wsdl.stubgen.generate_descriptors`) add an
optional schema gate at compile time: a message that full-parses but
does not match its operation's declared shape never gets a table.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

import numpy as np

from repro.lexical.floats import (
    DOUBLE_MAX_WIDTH,
    WS_LUT,
    FloatFormat,
    format_double,
    format_double_array,
    gather_rows,
    length_groups,
    minimal_fits,
    parse_double_column,
    whitespace_run_ends,
)
from repro.schema.types import DOUBLE
from repro.wire import frame as wire_frame
from repro.xmlkit.trie import ByteTrie

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.server.parser import ParseResult

__all__ = ["SkipScanFallback", "SeekTable"]

_LT = 0x3C  # b"<"
_GT = 0x3E  # b">"
_AMP = 0x26  # b"&"


class SkipScanFallback(Exception):
    """Skip-scan declined; the caller must run a full parse.

    ``reason`` is a short stable token (``tag-drift``, ``pad-drift``,
    ``value-parse``, ``value-entity`` at apply time; ``no-leaves``,
    ``region-shape``, ``no-close-tag``, ``descriptor-mismatch`` at
    compile time) used as the ``event`` label on
    ``repro_skipscan_events_total``.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class SeekTable:
    """Compiled mutable-region map for one session template.

    Built by :meth:`compile` from a full parse; applied by
    :meth:`apply` to subsequent same-skeleton messages.  A table is
    only valid for the exact :class:`ParseResult` it was compiled
    from — it captures that result and commits parsed values into its
    containers.
    """

    def __init__(
        self,
        result: "ParseResult",
        starts: np.ndarray,
        ends: np.ndarray,
        trie: ByteTrie,
        tag_ids: np.ndarray,
        tag_lens: np.ndarray,
    ) -> None:
        self.result = result
        self.starts = starts  # region starts == value starts (int64)
        self.ends = ends  # region ends (int64)
        self.trie = trie
        self.tag_ids = tag_ids  # expected close-tag id per leaf
        self.tag_lens = tag_lens  # close-tag key length per leaf
        # Commit map (set up by compile when every leaf is an element
        # of a float64 array): leaf j lives at
        # ``_containers[_param_of[j]][_item_of[j]]``.
        self._containers: List[np.ndarray] = []
        self._param_of: Optional[np.ndarray] = None
        self._item_of: Optional[np.ndarray] = None
        # Vectorized double lane (set up by compile when eligible): the
        # one closing tag through '>' of a commit-mapped template, and
        # the byte length every region shares while they share one.
        self._vec_tag: Optional[np.ndarray] = None
        self._vec_len: Optional[int] = None
        # Which leaves are xsd:double (built on first typed commit).
        self._doubles: Optional[np.ndarray] = None
        self._stride: Optional[int] = None
        # Bytes each region has for a value's text, what a typed splice
        # may render there (None: every region holds any double).
        self._rooms: Optional[np.ndarray] = None
        self._derive_layout()

    def _derive_layout(self) -> None:
        """Re-derive what the region offsets decide: the stride — the
        distance between consecutive leaf starts when it is one constant
        (a stuffed array alone in its message), so a typed splice's leaf
        is arithmetic, not a search — whether every region has room for
        any double's text (then a typed splice formats nothing), and the
        vector lane's region length.
        """
        starts = self.starts
        # Room past DOUBLE_MAX_WIDTH (or below none) changes no answer:
        # clipped, a byte a leaf, and only kept while a region is narrower.
        rooms = np.clip(self.ends - starts - self.tag_lens - 1, 0, DOUBLE_MAX_WIDTH)
        roomy = bool(rooms.size) and int(rooms.min()) == DOUBLE_MAX_WIDTH
        self._rooms = None if roomy else rooms.astype(np.uint8)
        steps = np.diff(starts)
        self._stride = (
            int(steps[0])
            if steps.size and steps[0] > 0 and bool((steps == steps[0]).all())
            else None
        )
        self._vec_len = self._uniform_len() if self._vec_tag is not None else None

    def _uniform_len(self) -> Optional[int]:
        """The byte length every region shares, if they share one."""
        lens = self.ends - self.starts
        return int(lens[0]) if bool((lens == lens[0]).all()) else None

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        data: bytes,
        result: "ParseResult",
        descriptor: Optional[type] = None,
    ) -> "SeekTable":
        """Build a seek table from a freshly full-parsed template.

        Raises :class:`SkipScanFallback` when the template cannot be
        compiled; the deserializer then full-parses every changed
        message (content matches stay free) and tries to compile
        again from each one.

        A lane proof on *result* serves this one compile: compile takes
        it off the result, so a stored result does not keep the proven
        document alive.
        """
        proof, result.lane_proof = result.lane_proof, None
        if descriptor is not None:
            mismatch = descriptor.check(result.message)
            if mismatch is not None:
                raise SkipScanFallback("descriptor-mismatch", mismatch)
        regions = result.regions
        spans = result.spans
        k = int(regions.shape[0])
        if k == 0:
            raise SkipScanFallback("no-leaves")
        starts = regions[:, 0].astype(np.int64)
        ends = regions[:, 1].astype(np.int64)
        n = len(data)
        # Region invariants the seek arithmetic depends on: value span
        # starts its region, regions are sorted, non-overlapping, and
        # in bounds.  ``_field_regions`` produces exactly this, but the
        # table re-proves it rather than trusting a caller.
        if (
            not bool(np.all(spans[:, 0] == starts))
            or not bool(np.all(spans[:, 1] <= ends))
            or not bool(np.all(starts <= spans[:, 1]))
            or not bool(np.all(ends <= n))
            or not bool(np.all(starts[1:] >= ends[:-1]))
            or not bool(np.all(starts >= 0))
        ):
            raise SkipScanFallback("region-shape")

        # A full parse whose leaves all came from the leaf-run lane
        # carries the lane's proof of their one closing tag: every item
        # tag compared, every pad proven whitespace, over exactly these
        # regions of exactly this document.
        from repro.server.parser import LaneProof  # the parser imports repro.schema

        if isinstance(proof, LaneProof) and proof.covers(data, spans, regions):
            keys: Optional[dict] = {proof.tag: 0}
        else:
            keys = cls._single_close_tag(data, spans[:, 1], ends)
        if keys is not None:
            (key,) = keys
            tag_ids = np.zeros(k, dtype=np.int64)
            tag_lens = np.full(k, len(key), dtype=np.int64)
        else:
            keys = {}
            tag_ids = np.empty(k, dtype=np.int64)
            tag_lens = np.empty(k, dtype=np.int64)
            for j in range(k):
                vend = int(spans[j, 1])
                if vend >= n or data[vend] != _LT:
                    raise SkipScanFallback("no-close-tag", f"leaf {j}")
                gt = data.find(b">", vend, int(ends[j]))
                if gt < 0:
                    raise SkipScanFallback("no-close-tag", f"leaf {j}")
                key = data[vend:gt]
                if not key.startswith(b"</"):
                    raise SkipScanFallback("no-close-tag", f"leaf {j}: {key[:20]!r}")
                tag_ids[j] = keys.setdefault(key, len(keys))
                tag_lens[j] = len(key)
                # Everything after the closing tag up to the region end
                # must already be pad in the template itself.
                tail = data[gt + 1 : int(ends[j])]
                if tail.strip(b" \t\r\n"):
                    raise SkipScanFallback("region-shape", f"leaf {j} tail")
        trie = ByteTrie()
        for key, tid in keys.items():
            trie.insert(key, tid)

        table = cls(result, starts, ends, trie, tag_ids, tag_lens)
        table._setup_vector_lane(data, keys)
        return table

    @staticmethod
    def _single_close_tag(
        data: bytes, vends: np.ndarray, ends: np.ndarray
    ) -> Optional[dict]:
        """``{key: 0}`` when one closing tag provably ends every leaf.

        The homogeneous-array shape: leaf 0 names the tag, which is
        then compared at every value end, and one whitespace scan
        proves every tail is pad.  ``None`` for anything else — mixed
        tags or a malformed leaf — which the per-leaf walk in
        :meth:`compile` then classifies.
        """
        vend = int(vends[0])
        gt = data.find(b">", vend, int(ends[0]))
        if gt < 0 or not data.startswith(b"</", vend):
            return None
        tag = np.frombuffer(data[vend : gt + 1], dtype=np.uint8)
        buf = np.frombuffer(data, dtype=np.uint8)
        tails = vends + tag.size
        if (
            bool(np.any(tails > ends))
            or not bool(np.all(gather_rows(buf, vends, tag.size) == tag))
            or bool(np.any(whitespace_run_ends(buf, tails) < ends))
        ):
            return None
        return {data[vend:gt]: 0}

    def _setup_vector_lane(self, data: bytes, keys: dict) -> None:
        """Build the commit map, and arm the batched NumPy lane when the
        template allows it.

        The commit map needs every leaf to be a double in a float64
        array parameter.  The lane also needs all regions to have one
        uniform byte length and all leaves to share a single closing
        tag — the shape MAX-stuffed double arrays (the paper's headline
        workload) always produce.
        """
        containers: List[np.ndarray] = []
        k = int(self.starts.shape[0])
        param_of = np.empty(k, dtype=np.int64)
        item_of = np.empty(k, dtype=np.int64)
        for layout in self.result.layouts:
            param = layout.param
            if (
                param.kind != "array"
                or not isinstance(param.value, np.ndarray)
                or param.value.dtype != np.float64
            ):
                return
            pi = len(containers)
            containers.append(param.value)
            base, count = layout.leaf_base, layout.leaf_count
            param_of[base : base + count] = pi
            item_of[base : base + count] = np.arange(count)
        self._containers = containers
        self._param_of = param_of
        self._item_of = item_of
        if len(keys) != 1:
            return
        (key,) = keys
        self._vec_tag = np.frombuffer(key + b">", dtype=np.uint8)
        self._vec_len = self._uniform_len()

    # ------------------------------------------------------------------
    def approx_bytes(self) -> int:
        """Approximate retained bytes: the compiled arrays + trie keys.

        Feeds the :class:`~repro.hardening.overload.MemoryAccountant`
        ledger; the captured :class:`ParseResult` is charged with the
        deserializer template, not here.
        """
        total = (
            self.starts.nbytes
            + self.ends.nbytes
            + self.tag_ids.nbytes
            + self.tag_lens.nbytes
        )
        for arr in (
            self._vec_tag, self._param_of, self._item_of, self._doubles, self._rooms
        ):
            if arr is not None:
                total += arr.nbytes
        # The trie stores one key per distinct close tag — small, but
        # count it so a pathological many-distinct-tags template is
        # not free.
        total += 64 * max(1, int(self.tag_ids.max()) + 1 if self.tag_ids.size else 1)
        return total

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    @property
    def region_len(self) -> Optional[int]:
        """Byte length every region shares when the vectorized double
        lane is armed, else ``None``."""
        return self._vec_len

    def apply(
        self,
        data: Union[bytes, bytearray],
        incoming: np.ndarray,
        changed: np.ndarray,
        rows: Optional[np.ndarray] = None,
    ) -> Tuple[int, bool]:
        """Parse the *changed* regions of *incoming* and commit them.

        *incoming* is the message *data* as a uint8 view; *changed* the
        sorted leaf indices whose regions may hold new bytes (from the
        caller's template diff, or a delta frame's splice directory).
        *rows*, when the caller already has them, are those regions'
        bytes as a ``(len(changed), region_len)`` matrix — a frame
        payload of whole-region splices — and save the gather.  Returns
        ``(leaves_parsed, vectorized)``.  Raises
        :class:`SkipScanFallback` on any drift — nothing is committed
        in that case.
        """
        length = self._vec_len
        if length is not None:
            if rows is None:
                rows = gather_rows(incoming, self.starts[changed], length)
            parsed = self._apply_vectorized(rows, changed)
            if parsed is not None:
                return parsed, True
        return self._apply_per_leaf(data, changed), False

    def _apply_vectorized(
        self, mat: np.ndarray, changed: np.ndarray
    ) -> Optional[int]:
        """Batched parse of uniform double regions, one per row of *mat*.

        Returns ``None`` to route the batch to the per-leaf path (a
        value byte outside the strict charset, or a conversion NumPy
        and ``parse_double`` might disagree on); raises
        :class:`SkipScanFallback` for structural drift.
        """
        length = self._vec_len
        tag = self._vec_tag
        assert length is not None and tag is not None
        m = int(changed.size)
        # A row's first '<' ends its value and must open the closing
        # tag; a row without one reads as 0 and fails the tag compare.
        lens = (mat == _LT).argmax(axis=1)
        tlen = int(tag.shape[0])
        tag_ok = pad_ok = True
        for vlen, sel in length_groups(lens):
            if vlen + tlen > length:
                raise SkipScanFallback("tag-drift", "closing tag overruns region")
            tag_ok = tag_ok and bool((mat[sel, vlen : vlen + tlen] == tag).all())
            pad_ok = pad_ok and bool(WS_LUT.take(mat[sel, vlen + tlen :]).all())
        # Tag drift outranks pad drift, whichever group shows it first.
        if not tag_ok:
            raise SkipScanFallback("tag-drift", "closing tag differs")
        if not pad_ok:
            raise SkipScanFallback("pad-drift")
        values = parse_double_column(mat.reshape(-1), np.arange(m) * length, lens)
        if values is None:
            return None  # INF/NaN/odd bytes: per-leaf lexical parse
        # Commit (all validation above is done — two-phase contract).
        self._store_doubles(changed, values)
        return m

    def _store_doubles(self, leaves: np.ndarray, values: np.ndarray) -> None:
        """Scatter float64 *values* into the commit map's containers."""
        if len(self._containers) == 1:
            self._containers[0][self._item_of[leaves]] = values
            return
        param_of = self._param_of[leaves]
        item_of = self._item_of[leaves]
        for pi, container in enumerate(self._containers):
            mask = param_of == pi
            if bool(mask.any()):
                container[item_of[mask]] = values[mask]

    # ------------------------------------------------------------------
    # pad insertions
    # ------------------------------------------------------------------
    def rebased(
        self, data: Union[bytes, bytearray], at: np.ndarray, counts: np.ndarray
    ) -> Optional["SeekTable"]:
        """This table for *data* with *counts* space bytes inserted at
        each of the sorted offsets *at*, or ``None`` when it cannot
        follow them.

        Each insertion must land in one leaf region's trailing pad: at
        or before the region's end, past its start, with only
        whitespace from it to the end.  A region holds its value, then
        its closing tag, then pad, and the tag ends in ``>``, so
        whitespace up to the end proves the insertion is behind the tag
        and the leaf's value and markup are unchanged.  The rebased
        table shares everything but its ``starts``/``ends`` (one
        ``searchsorted`` and one cumulative sum) and what they decide:
        the stride and the vector lane.  *data* is the document this
        table describes: every region of it is well formed.
        """
        starts, ends = self.starts, self.ends
        k = starts.shape[0]
        leaf = np.searchsorted(ends, at)
        if leaf[-1] >= k or not bool((starts[leaf] < at).all()):
            return None
        tails = ends[leaf] - at
        if bool(tails.any()):
            before = np.cumsum(tails) - tails
            idx = np.arange(int(tails.sum())) + np.repeat(at - before, tails)
            if not bool(WS_LUT.take(np.frombuffer(data, dtype=np.uint8)[idx]).all()):
                return None
        step = np.bincount(leaf, weights=counts, minlength=k).astype(np.int64)
        shift = np.cumsum(step)
        table = copy.copy(self)
        table.starts = starts + (shift - step)
        table.ends = ends + shift
        table._derive_layout()
        return table

    # ------------------------------------------------------------------
    # typed splices
    # ------------------------------------------------------------------
    def typed_leaves(
        self, offsets: np.ndarray, values: np.ndarray
    ) -> Optional[np.ndarray]:
        """The leaf each typed splice at *offsets* (sorted) sets to
        *values*.

        ``None`` unless every offset is the region start of an
        ``xsd:double`` leaf whose region has room for the value's
        MINIMAL text and the closing tag: what rendering it later
        writes.  Regions of at least :data:`DOUBLE_MAX_WIDTH` value
        bytes hold any double, so only narrower ones are checked.
        Fewer than :data:`~repro.wire.frame.SMALL_FRAME` splices are
        checked one by one (:meth:`_typed_leaves_small`, which formats
        each narrow value), more as NumPy columns
        (:meth:`_typed_leaves_large`, which proves room first with
        :func:`~repro.lexical.floats.minimal_fits` and formats only the
        values it leaves unproven): the same checks, the same answer.
        """
        if offsets.shape[0] < wire_frame.SMALL_FRAME:
            return self._typed_leaves_small(offsets, values)
        return self._typed_leaves_large(offsets, values)

    def _typed_leaves_small(
        self, offsets: np.ndarray, values: np.ndarray
    ) -> Optional[np.ndarray]:
        starts = self.starts
        k = starts.shape[0]
        offs = offsets.tolist()
        stride = self._stride
        if stride is not None:
            first = int(starts[0])
            leaves = []
            for off in offs:
                leaf, misaligned = divmod(off - first, stride)
                if misaligned:
                    return None
                leaves.append(leaf)
            if not (0 <= leaves[0] and leaves[-1] < k):
                return None
        else:
            leaves = starts.searchsorted(offsets).tolist()
            if leaves[-1] >= k or any(
                int(starts[j]) != off for j, off in zip(leaves, offs)
            ):
                return None
        if self._param_of is None:
            doubles = self._double_leaves()
            if not all(doubles[j] for j in leaves):
                return None
        rooms = self._rooms
        if rooms is not None:
            for j, value in zip(leaves, values.tolist()):
                room = rooms[j]
                if room < DOUBLE_MAX_WIDTH and len(
                    format_double(value, FloatFormat.MINIMAL)
                ) > room:
                    return None
        return np.array(leaves, dtype=np.int64)

    def _typed_leaves_large(
        self, offsets: np.ndarray, values: np.ndarray
    ) -> Optional[np.ndarray]:
        starts = self.starts
        k = starts.shape[0]
        if self._stride is not None:
            leaves, misaligned = np.divmod(offsets - starts[0], self._stride)
            if np.count_nonzero(misaligned) or not (0 <= leaves[0] and leaves[-1] < k):
                return None
        else:
            leaves = np.searchsorted(starts, offsets)
            if leaves[-1] >= k or not bool((starts[leaves] == offsets).all()):
                return None
        if self._param_of is None and not bool(self._double_leaves()[leaves].all()):
            return None
        if self._rooms is None:
            return leaves
        room = self._rooms[leaves]
        unproven = np.flatnonzero(~minimal_fits(values, room))
        if unproven.size:
            texts = format_double_array(values[unproven], FloatFormat.MINIMAL)
            lens = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
            if bool((lens > room[unproven]).any()):
                return None
        return leaves

    def _double_leaves(self) -> np.ndarray:
        """Mask of the leaves whose type is ``xsd:double``."""
        if self._doubles is None:
            mask = np.zeros(self.starts.shape[0], dtype=bool)
            for layout in self.result.layouts:
                base, arity = layout.leaf_base, layout.arity
                end = base + layout.leaf_count
                for pos, xsd in enumerate(layout.leaf_types):
                    if xsd is DOUBLE:
                        mask[base + pos : end : arity] = True
            self._doubles = mask
        return self._doubles

    def commit_doubles(self, leaves: np.ndarray, values: np.ndarray) -> None:
        """Store *values* as the decoded values of *leaves* (validated
        by :meth:`typed_leaves`)."""
        if self._param_of is not None:
            self._store_doubles(leaves, values)
            return
        store = self.result.store_leaf
        for j, value in zip(leaves.tolist(), values.tolist()):
            store(j, value)

    def leaf_doubles(self, leaves: np.ndarray) -> np.ndarray:
        """The decoded values of the double *leaves*, as float64."""
        if self._param_of is None:
            load = self.result.load_leaf
            return np.array([load(j) for j in leaves.tolist()], dtype=np.float64)
        out = np.empty(leaves.shape[0], dtype=np.float64)
        param_of = self._param_of[leaves]
        item_of = self._item_of[leaves]
        for pi, container in enumerate(self._containers):
            mask = param_of == pi
            if bool(mask.any()):
                out[mask] = container[item_of[mask]]
        return out

    def _apply_per_leaf(
        self, data: Union[bytes, bytearray], changed: np.ndarray
    ) -> int:
        """Seek + trie-validate + parse each changed region singly."""
        starts = self.starts
        ends = self.ends
        n = len(data)
        pending: List[Tuple[int, object]] = []
        for j in changed.tolist():
            s, e = int(starts[j]), int(ends[j])
            lt = data.find(b"<", s, e)
            if lt < 0:
                raise SkipScanFallback("tag-drift", f"leaf {j}: no markup")
            tid, end = self.trie.match_at(data, lt, terminators=b">")
            if tid is None or tid != int(self.tag_ids[j]):
                raise SkipScanFallback("tag-drift", f"leaf {j}")
            if end >= n or data[end] != _GT:
                raise SkipScanFallback("tag-drift", f"leaf {j}: unterminated")
            pad = data[end + 1 : e]
            if pad.strip(b" \t\r\n"):
                raise SkipScanFallback("pad-drift", f"leaf {j}")
            raw = bytes(data[s:lt])
            xsd = self.result.leaf_type(j)
            if xsd.np_dtype is None:  # string leaf
                if _AMP in raw:
                    # Entity references need the real scanner; the full
                    # parse expands them with correct semantics.
                    raise SkipScanFallback("value-entity", f"leaf {j}")
                try:
                    value: object = raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise SkipScanFallback(
                        "value-parse", f"leaf {j}: invalid utf-8"
                    ) from None
            else:
                try:
                    value = xsd.parse(raw)
                except Exception:
                    # The full parse is authoritative for the error
                    # class (LexicalError vs SOAPError vs charref
                    # expansion making the value legal after all).
                    raise SkipScanFallback(
                        "value-parse", f"leaf {j}: {raw[:40]!r}"
                    ) from None
            pending.append((j, value))
        # Commit phase: nothing above mutated the cached decode.
        result = self.result
        for j, value in pending:
            result.store_leaf(j, value)
        return len(pending)
