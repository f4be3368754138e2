"""Tamper detection and bounded-replay repair over a sealed redo log.

Every committed write appends one redo entry (delta); every n-th modification
of a key additionally appends an anchor entry carrying the key's full content,
so repair never replays more than n deltas. Each transaction's entries are
hashed and the digest is MAC-signed by a key-isolated enclave stand-in, which
makes both the entries and the seals tamper-evident. The MAC is HMAC-SHA256,
computed from two SHA-256 states keyed once per enclave with the inner and
outer pads of RFC 2104, so a seal or a seal check copies those states instead
of re-keying; a seal's digest is one SHA-256 call over its txn id and lines.

The log doubles as the trusted view of "what the store should contain": a
stored record whose checksum fails, or whose (value, version) disagrees with
the latest sealed log state, is flagged as tampered and can be rebuilt from
the most recent anchor.

Each record kind's layout is written once, in `_LAYOUTS`, and every tag's
matcher, render format and converter are built from it. The log keeps each
record's canonical line, rendered or loaded once, for seal digests,
`verify_log` and `to_text`. Append and load build no entry or seal objects:
a seal is a row of its fields, and `records` decodes the lines on each read.
A loaded line must match the canonical form exactly, so rendering the record
it decodes to gives the same line back.
"""

from __future__ import annotations

import hashlib
import hmac
import re
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

from .engine import INITIAL_VALUE, Record, compute_checksum

MAGIC = "FRPLOG"
FORMAT_VERSION = "1"
DIGEST_ALGO = "sha256"
# canonical field forms: an int as str() writes it; a key, non-empty, with no
# `|`, newline or lone surrogate (which UTF-8 cannot encode); a hexdigest
_FORMS = {"i": "(0|-?[1-9][0-9]*)", "k": "([^|\n\ud800-\udfff]+)", "h": "([0-9a-f]{64})"}


class LogError(Exception):
    pass


class LogCorrupt(LogError):
    """Log bytes failed structural or cryptographic validation."""


class RecoveryRefused(LogError):
    """Recovery found the log suspect and rebuilt nothing.

    Raised when a seal overlapping the replayed range fails to verify, or
    when a replayed entry is covered by no valid seal.
    """


class UnknownTxn(LogError):
    pass


# byte -> byte XOR 0x36 / 0x5C, for bytes.translate
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class EnclaveSim:
    """Key-isolated signer standing in for enclave-shielded computation.

    The MAC key lives only inside this object and never reaches any
    serialized output; the log header carries a MAC *over* the header, not
    the key.

    `sign` is HMAC-SHA256 (RFC 2104) built from the two keyed SHA-256 states,
    so a signature costs two state copies and no re-keying: the inner state
    has hashed the key XOR 0x36 (`ipad`), the outer one the key XOR 0x5C
    (`opad`), each zero-padded to SHA-256's 64-byte block.
    """

    def __init__(self, seed: int):
        self._mac_key = hashlib.sha256(f"enclave:{seed}".encode()).digest()
        block = self._mac_key.ljust(64, b"\0")   # 32 bytes: no pre-hash needed
        self._inner = hashlib.sha256(block.translate(_IPAD))
        self._outer = hashlib.sha256(block.translate(_OPAD))

    def sign(self, digest: str) -> str:
        inner = self._inner.copy()
        inner.update(digest.encode())
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.hexdigest()

    def verify(self, digest: str, signature: str) -> bool:
        return hmac.compare_digest(self.sign(digest), signature)

    def __repr__(self):
        return "EnclaveSim(<key withheld>)"


class _Record:
    def line(self) -> str:      # the canonical line, rendered from the layout
        return _RENDER[type(self)] % tuple(vars(self).values())


@dataclass(frozen=True)
class RedoEntry(_Record):
    lsn: int
    txn_id: int
    key: str
    new_value: int
    mod_index: int


@dataclass(frozen=True)
class AnchorEntry(_Record):
    lsn: int
    key: str
    full_value: int
    full_version: int
    mod_index: int


@dataclass(frozen=True)
class TxnSeal(_Record):
    lsn: int
    txn_id: int
    first_lsn: int    # -1/-1 marks a seal over an empty range
    last_lsn: int
    digest: str
    signature: str


# each record kind's layout, written once: tag -> (record type, the _FORMS
# form of each of its fields in order); the tables below are built from it
_LAYOUTS = {"R": (RedoEntry, "iikii"), "A": (AnchorEntry, "ikiii"), "S": (TxnSeal, "iiiihh")}
# %-formats: as fast as an f-string, where str.format costs 0.1 µs more a line
_RENDER = {kind: "|".join([tag] + ["%s"] * len(forms)) for tag, (kind, forms) in _LAYOUTS.items()}
_is_key = re.compile(_FORMS["k"]).fullmatch


def _parser(tag: str, forms: str):
    """`tag`'s converter: a canonical line's fields, ints converted, or
    LogCorrupt (int() raises ValueError past 4,300 digits). It is generated
    code, as a loop over the fields costs up to 0.85 µs more a line."""
    match = re.compile(tag + "".join(r"\|" + _FORMS[form] for form in forms)).fullmatch
    fields = "".join(f"int(f[{i}])," if form == "i" else f"f[{i}],"
                     for i, form in enumerate(forms))
    return eval(f"lambda raw: ({fields}) if (m := match(raw)) and (f := m.groups())"
                " else refuse(raw)", {"match": match, "refuse": _refuse})


def _refuse(raw: str):
    raise LogCorrupt(f"unparseable or non-canonical record: {raw!r}")


_PARSE = {tag: _parser(tag, forms) for tag, (_, forms) in _LAYOUTS.items()}


def _decode(raw: str):
    """The record whose `line()` is exactly `raw`, or LogCorrupt."""
    try:
        fields = _PARSE.get(raw[:1], _refuse)(raw)
    except ValueError:      # int() refuses more than 4,300 digits
        raise LogCorrupt(f"not an integer in record: {raw[:80]!r}") from None
    return _LAYOUTS[raw[0]][0](*fields)


class RedoLog:
    """An append-only redo log. Records enter only through `append_redo`,
    `seal_txn` and `from_text`, each via the indexer of its kind (`_add_*`),
    so a reloaded log has the same lines and maps as the one that wrote it,
    and every record's lsn is its position in `_lines`."""

    def __init__(self, enclave: EnclaveSim, anchor_every: int = 4):
        if anchor_every < 1:
            raise ValueError("anchor_every must be >= 1")
        self._enclave = enclave
        self.anchor_every = anchor_every
        self._lines: list[str] = []     # each record's canonical line, by lsn
        # derived from each record by its indexer, on append and on load
        self._state: list = []      # lsn -> (value, version) of an entry, None for a seal
        self._latest: dict[str, tuple[int, int]] = {}   # key -> (value, version)
        # the indexers append through the defaultdict; readers use .get, so a
        # lookup of an unknown key adds nothing
        self._txn_lsns: defaultdict[int, list[int]] = defaultdict(list)
        self._sealed: set[int] = set()
        self._key_redos: defaultdict[str, list[int]] = defaultdict(list)
        self._key_anchors: defaultdict[str, list[int]] = defaultdict(list)
        self._seals: list = []      # each seal's TxnSeal fields as a row, in record order
        # derived by _index_seals from the first _indexed seals
        self._indexed = 0
        self._by_first: list = []   # non-empty seals by first_lsn, record order on ties
        self._firsts: list = []     # the first_lsn of each seal in _by_first
        self._reach: list = []      # _reach[j]: largest last_lsn in _by_first[:j + 1]
        self._verdicts: dict[int, bool] = {}   # seal lsn -> _seal_ok(seal)
        # running totals of _range_digest's work; recover reports its share
        self._seals_hashed = 0
        self._bytes_hashed = 0
        self.last_replay_count = 0
        self.last_seals_verified = 0
        self.last_seals_hashed = 0
        self.last_bytes_scanned = 0

    @property
    def records(self) -> tuple:
        return tuple(map(_decode, self._lines))

    @property
    def enclave(self) -> EnclaveSim:
        return self._enclave

    # -- append side --------------------------------------------------------

    def register_txn(self, txn_id: int) -> None:
        self._txn_lsns[txn_id]      # the lookup adds the txn, with no entries

    def append_redo(self, txn_id: int, key: str, new_value: int) -> int:
        # exact ints only: a bool or float renders a line from_text refuses,
        # and a str such as "5" would reload as an int
        if type(txn_id) is not int or type(new_value) is not int:
            raise ValueError(f"txn id and value must be ints, got {txn_id!r} and {new_value!r}")
        latest = self._latest.get(key)
        if latest is None and not _is_key(key):     # a held key matched already
            raise ValueError(f"illegal key for log: {key!r}")
        mod_index = (latest[1] if latest else 0) + 1
        lsn = len(self._lines)
        redo = (lsn, txn_id, key, new_value, mod_index)
        self._add_redo(_RENDER[RedoEntry] % redo, redo)
        if mod_index % self.anchor_every == 0:
            anchor = (lsn + 1, key, new_value, mod_index, mod_index)
            self._add_anchor(_RENDER[AnchorEntry] % anchor, anchor, txn_id)
        return lsn

    def seal_txn(self, txn_id: int) -> int:
        if txn_id not in self._txn_lsns:
            raise UnknownTxn(f"txn {txn_id} has no log entries and was never registered")
        if txn_id in self._sealed:
            raise LogError(f"txn {txn_id} already sealed")
        lsns = self._txn_lsns[txn_id]
        if lsns:
            first, last = lsns[0], lsns[-1]
            # lsns are only appended in increasing order: contiguous iff dense
            if last - first + 1 != len(lsns):
                raise LogError("txn entries not contiguous; appends must be serialized")
        else:
            first = last = -1
        lsn, digest = len(self._lines), self._range_digest(txn_id, first, last)
        seal = (lsn, txn_id, first, last, digest, self._enclave.sign(digest))
        self._add_seal(_RENDER[TxnSeal] % seal, seal)
        return lsn

    def _range_digest(self, txn_id: int, first: int, last: int) -> str:
        prefix = f"seal:{txn_id}"
        self._seals_hashed += 1
        if first < 0:
            return hashlib.sha256(prefix.encode()).hexdigest()
        data = (prefix + "\n" + "\n".join(self._lines[first:last + 1])).encode()
        # the UTF-8 bytes of the lines: not the ASCII prefix or the newlines
        self._bytes_hashed += len(data) - len(prefix) - (last + 1 - first)
        return hashlib.sha256(data).hexdigest()

    # -- verification ---------------------------------------------------------

    def verify_log(self) -> bool:
        """True iff every seal checks out; lsns are gap-free by construction."""
        self._index_seals()
        return all(self._verdict(seal) for seal in self._seals)

    def _index_seals(self) -> None:
        """Bring `_by_first`, `_firsts` and `_reach` up to date with the seals
        appended since the last call; an unchanged log costs one length
        compare."""
        seals = self._seals
        if self._indexed != len(seals):
            self._by_first = sorted((s for s in seals if s[2] >= 0), key=itemgetter(2))
            self._firsts = [s[2] for s in self._by_first]
            self._reach = list(accumulate((s[3] for s in self._by_first), max))
            self._indexed = len(seals)

    def _verdict(self, seal: tuple) -> bool:
        """`_seal_ok(seal)`, computed once per seal for the log's life: a
        seal's verdict reads only the records before it, which are never
        edited, and the enclave is fixed."""
        ok = self._verdicts.get(seal[0])
        if ok is None:
            ok = self._verdicts[seal[0]] = self._seal_ok(seal)
        return ok

    def _seal_ok(self, seal: tuple) -> bool:
        lsn, txn_id, first, last, digest, signature = seal
        if first < 0:
            # an empty range's digest binds only the txn id, not the -1/-1
            if (first, last) != (-1, -1):
                return False
        elif last < first or last >= lsn:
            return False    # a seal must follow its entries
        return (self._range_digest(txn_id, first, last) == digest
                and self._enclave.verify(digest, signature))

    # -- trusted state and repair ---------------------------------------------

    def expected_state(self, key: str) -> tuple[int, int]:
        return self._latest.get(key, (INITIAL_VALUE, 0))

    def value_at(self, key: str, version: int) -> int:
        """The value of `key`'s first redo at mod index `version`, else INITIAL_VALUE."""
        state = self._state
        return next((state[lsn][0] for lsn in self._key_redos.get(key, ())
                     if state[lsn][1] == version), INITIAL_VALUE)

    def detect_tamper(self, key: str, stored: Record) -> bool:
        if not stored.checksum_ok():
            return True
        return (stored.value, stored.version) != self.expected_state(key)

    def replay_plan(self, key: str):
        """(base_record, redo_lsns) recovery would use; replay is bounded by n."""
        anchors = self._key_anchors.get(key, [])
        if anchors:
            start = anchors[-1]
            value, version = self._state[start]
            base = Record(key, value, version, compute_checksum(key, value, version))
        else:
            base = Record.initial(key)
            start = -1
        redo_lsns = [l for l in self._key_redos.get(key, []) if l > start]
        return base, redo_lsns

    def recover(self, key: str) -> Record:
        """Rebuild `key` from its latest anchor plus the redo entries after it.

        Before replaying, recovery verifies every non-empty seal whose range
        overlaps the replayed range [anchor, last redo] in lsn order (also
        seals of other transactions inside it), and checks that each replayed
        entry lies in a verified seal; any failure raises RecoveryRefused.
        The anchor, the redo lsns and their (value, version) come from maps
        the indexers extend as each record is appended or loaded. The seals
        are found by bisection in an index brought up to date with the
        appended seals (see `_index_seals`), so a recovery costs the seals in
        its range, not the log length. Each seal is verified at most once in
        the log's life: its verdict is kept, and `verify_log` shares it.
        `last_replay_count` and `last_seals_verified` report the replayed
        entries and the seals checked; `last_seals_hashed` and
        `last_bytes_scanned` report the seals whose digest this call
        recomputed and the bytes of entry lines it hashed for them, both 0
        when every verdict was already known. A refused call reports 0
        replayed and 0 verified, and what it hashed.
        """
        self.last_replay_count = self.last_seals_verified = 0
        hashed, scanned = self._seals_hashed, self._bytes_hashed
        try:
            base, redo_lsns = self.replay_plan(key)
            anchors = self._key_anchors.get(key, [])
            touched = ([anchors[-1]] if anchors else []) + redo_lsns
            if touched:
                self.last_seals_verified = self._check_replay_range(
                    min(touched), max(touched), touched)
        finally:
            self.last_seals_hashed = self._seals_hashed - hashed
            self.last_bytes_scanned = self._bytes_hashed - scanned
        value, version = self._state[redo_lsns[-1]] if redo_lsns else (base.value, base.version)
        self.last_replay_count = len(redo_lsns)
        return Record(key, value, version, compute_checksum(key, value, version))

    def _check_replay_range(self, lo: int, hi: int, touched: list[int]) -> int:
        """Verify the seals overlapping [lo, hi]; return how many were verified."""
        self._index_seals()
        firsts, reach = self._firsts, self._reach
        # reach is non-decreasing, so the seals starting at or before hi whose
        # prefix of _by_first reaches lo form one slice of it; rows sort by lsn
        overlapping = sorted(s for s in self._by_first[bisect_left(reach, lo):
                                                       bisect_right(firsts, hi)]
                             if s[3] >= lo)
        for seal in overlapping:
            if not self._verdict(seal):
                raise RecoveryRefused(f"seal at lsn {seal[0]} failed verification")
        # a seal covering a touched lsn overlaps [lo, hi] and was just
        # verified, so the lsn is covered iff the seals starting by it reach it
        missing = [l for l in touched
                   if (j := bisect_right(firsts, l)) == 0 or reach[j - 1] < l]
        if missing:
            raise RecoveryRefused(f"entries {missing} not covered by any valid seal")
        return len(overlapping)

    # -- serialization --------------------------------------------------------

    def _header_line(self) -> str:
        prefix = f"{MAGIC}|{FORMAT_VERSION}|{DIGEST_ALGO}|{self.anchor_every}"
        return f"{prefix}|{self._enclave.sign(prefix)}"

    def to_text(self) -> str:
        return "\n".join([self._header_line(), *self._lines]) + "\n"

    @classmethod
    def from_text(cls, content: str, enclave: EnclaveSim) -> "RedoLog":
        if not content.endswith("\n"):
            raise LogCorrupt("missing trailing newline")
        lines = content[:-1].split("\n")

        head = lines[0].split("|")
        if len(head) != 5 or head[0] != MAGIC or head[1] != FORMAT_VERSION:
            raise LogCorrupt("bad header")
        if head[2] != DIGEST_ALGO:
            raise LogCorrupt(f"unsupported digest algorithm {head[2]!r}")
        n = _parse_int(head[3])
        if n < 1:
            raise LogCorrupt("bad anchor interval")
        prefix = "|".join(head[:4])
        if not (re.fullmatch(_FORMS["h"], head[4]) and enclave.verify(prefix, head[4])):
            raise LogCorrupt("header MAC mismatch")

        log = cls(enclave, anchor_every=n)
        add_redo, add_anchor, add_seal = log._add_redo, log._add_anchor, log._add_seal
        parser, refuse = _PARSE.get, _refuse
        prev = None     # the fields of the line before, if it is a redo entry
        try:
            for lsn, raw in enumerate(lines[1:]):
                tag = raw[:1]   # every field is converted, so an overlong one is reported first
                f = parser(tag, refuse)(raw)
                if f[0] != lsn:
                    raise LogCorrupt(f"lsn gap at {f[0]}")
                if tag == "R":
                    add_redo(raw, prev := f)
                    continue
                if tag == "A":      # in the txn whose redo of the same key it follows
                    add_anchor(raw, f, prev[1] if prev and prev[2] == f[1] else None)
                else:
                    add_seal(raw, f)
                prev = None
        except ValueError:      # int() refuses more than 4,300 digits
            raise LogCorrupt(f"not an integer in record: {raw[:80]!r}") from None
        return log

    # -- indexers ------------------------------------------------------------

    def _add_redo(self, line: str, redo: tuple) -> None:   # RedoEntry fields
        lsn, txn_id, key, value, mod_index = redo
        self._lines.append(line)
        self._state.append(state := (value, mod_index))
        self._latest[key] = state
        self._txn_lsns[txn_id].append(lsn)
        self._key_redos[key].append(lsn)

    def _add_anchor(self, line: str, anchor: tuple,     # AnchorEntry fields
                    txn_id) -> None:    # the txn whose range it rides in, or None
        lsn, key, value, version, _ = anchor
        self._lines.append(line)
        self._state.append((value, version))
        self._key_anchors[key].append(lsn)
        if txn_id is not None:
            self._txn_lsns[txn_id].append(lsn)

    def _add_seal(self, line: str, seal: tuple) -> None:    # a `_seals` row
        self._lines.append(line)
        self._state.append(None)
        self._seals.append(seal)
        self._sealed.add(seal[1])
        self._txn_lsns[seal[1]]     # a txn sealed with no entries is known too


def _parse_int(text: str) -> int:
    """The int that str() writes as `text`, or LogCorrupt."""
    try:
        if re.fullmatch(_FORMS["i"], text):
            return int(text)
    except ValueError:      # int() refuses more than 4,300 digits
        pass
    raise LogCorrupt(f"not a canonical integer: {text[:80]!r}")
