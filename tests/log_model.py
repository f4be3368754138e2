"""A model of `RedoLog`, written to be read, not to be fast.

It states what `recovery.py` says of the redo log: the lines that
`register_txn`, `append_redo` and `seal_txn` write, the grammar `from_text`
loads, the seal digests and the bytes they hash, and what `verify_log`,
`expected_state`, `value_at`, `replay_plan` and `recover` read from the
records. It keeps the records and the seal verdicts it has computed, and
finds every answer by a scan of the records. It calls no code of
`frpkernel.recovery` but the enclave's `sign` and `verify`, and takes its
exception classes. `test_recovery.py` runs it beside `RedoLog` and compares
what both report, so it is the executable statement of the log's format and
recovery rules. A change to them edits this file in the same change, and its
diff here states the change.

A comment naming a ROADMAP item marks behaviour that the item will change.
"""

import hashlib
import sys
from collections import namedtuple
from functools import lru_cache

from frpkernel.engine import INITIAL_VALUE, Record, compute_checksum
from frpkernel.recovery import LogCorrupt, LogError, RecoveryRefused, UnknownTxn

MAGIC, FORMAT_VERSION, DIGEST_ALGO = "FRPLOG", "1", "sha256"
INT_DIGITS = 4300       # the most digits int() converts by default

Redo = namedtuple("Redo", "lsn txn key value mod_index")
Anchor = namedtuple("Anchor", "lsn key value version mod_index")
# a seal over no entries has the range -1/-1
Seal = namedtuple("Seal", "lsn txn first last digest signature")
# each record kind's tag and the form of each field: i an int, k a key, h a hexdigest
KINDS = {"R": (Redo, "iikii"), "A": (Anchor, "ikiii"), "S": (Seal, "iiiihh")}
TAG = {kind: tag for tag, (kind, _) in KINDS.items()}


@lru_cache(maxsize=None)   # pure, like parse below
def render(rec) -> str:
    """A record's line: its tag and fields joined by `|`, ints as str() writes them."""
    return "|".join([TAG[type(rec)], *map(str, rec)])


def read_int(text: str):
    """The int that str() writes as `text`, however many digits, or None."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        value = int(text)
        return value if str(value) == text else None
    except ValueError:
        return None
    finally:
        sys.set_int_max_str_digits(limit)


def read_key(text: str):
    """A key is non-empty text that UTF-8 can encode (the split has taken out `|` and newlines)."""
    try:
        text.encode()
    except UnicodeEncodeError:
        return None
    return text or None


def read_hex(text: str):
    """A digest or MAC is 64 lowercase hex digits, as hexdigest() writes it."""
    return text if len(text) == 64 and set(text) <= set("0123456789abcdef") else None


READ = {"i": read_int, "k": read_key, "h": read_hex}


def too_long(text: str) -> bool:
    return len(text.lstrip("-")) > INT_DIGITS


@lru_cache(maxsize=None)   # a pure function, and the tests reload the same lines often
def parse(line: str):
    """The record `line` holds, parsed by split and checked by rendering
    back, or LogCorrupt. A line whose fields have their forms but holds an
    int of more digits than int() converts is refused as not an integer."""
    tag, *texts = line.split("|")
    kind, forms = KINDS.get(tag, (None, ""))
    fields = [READ[form](text) for form, text in zip(forms, texts)]
    if kind is None or len(texts) != len(forms) or None in fields:
        raise LogCorrupt(f"unparseable or non-canonical record: {line!r}")
    if any(form == "i" and too_long(text) for form, text in zip(forms, texts)):
        raise LogCorrupt(f"not an integer in record: {line[:80]!r}")
    rec = kind(*fields)
    assert render(rec) == line
    return rec


def record(key: str, value: int, version: int) -> Record:
    return Record(key, value, version, compute_checksum(key, value, version))


class LogModel:
    """Takes `RedoLog`'s constructor arguments; `entries` are its records."""

    def __init__(self, enclave, anchor_every: int = 4):
        self.enclave, self.anchor_every = enclave, anchor_every
        self.entries: list = []         # Redo, Anchor and Seal records, by lsn
        self.registered: set[int] = set()
        self.verdicts: dict[int, bool] = {}     # seal lsn -> verdict, for the log's life
        self.seals_hashed = self.bytes_hashed = 0   # running totals of digest()
        self.last_replay_count = self.last_seals_verified = 0
        self.last_seals_hashed = self.last_bytes_scanned = 0

    @property
    def records(self) -> tuple[str, ...]:
        return tuple(map(render, self.entries))

    def of(self, kind, key=None) -> list:
        return [e for e in self.entries if type(e) is kind and (key is None or e.key == key)]

    # -- the calls that write ------------------------------------------------

    def register_txn(self, txn_id: int) -> None:
        self.registered.add(txn_id)

    def append_redo(self, txn_id: int, key: str, value: int) -> int:
        """A redo at the next lsn, its mod index one past the key's last
        redo; every anchor_every-th mod index adds an anchor right after it
        with the value just written."""
        lsn, mod_index = len(self.entries), self.expected_state(key)[1] + 1
        self.entries.append(Redo(lsn, txn_id, key, value, mod_index))
        if mod_index % self.anchor_every == 0:
            self.entries.append(Anchor(lsn + 1, key, value, mod_index, mod_index))
        return lsn

    def owned(self, txn_id: int) -> list[int]:
        """A txn's entries: its redos, and each anchor that follows its redo of the same key."""
        lsns = []
        for e in self.entries:
            before = self.entries[e.lsn - 1] if e.lsn else None
            if (type(e) is Redo and e.txn == txn_id
                    or type(e) is Anchor and type(before) is Redo
                    and before.txn == txn_id and before.key == e.key):
                lsns.append(e.lsn)
        return lsns

    def seal_txn(self, txn_id: int) -> int:
        """A seal at the next lsn over the txn's entries, which must be one
        contiguous range: its digest, signed by the enclave."""
        sealed = {s.txn for s in self.of(Seal)}
        if txn_id not in self.registered | sealed | {r.txn for r in self.of(Redo)}:
            raise UnknownTxn(f"txn {txn_id} has no log entries and was never registered")
        if txn_id in sealed:
            raise LogError(f"txn {txn_id} already sealed")
        lsns = self.owned(txn_id)
        if lsns and lsns != list(range(lsns[0], lsns[-1] + 1)):
            raise LogError("txn entries not contiguous; appends must be serialized")
        first, last = (lsns[0], lsns[-1]) if lsns else (-1, -1)
        digest = self.digest(txn_id, first, last)
        lsn = len(self.entries)
        self.entries.append(Seal(lsn, txn_id, first, last, digest, self.enclave.sign(digest)))
        return lsn

    def digest(self, txn_id: int, first: int, last: int) -> str:
        """SHA-256 of `seal:<txn id>`, then of a newline before each line of
        the range, if it is not -1/-1. It counts one seal hashed and the
        UTF-8 bytes of those lines."""
        lines = [render(e) for e in self.entries[first:last + 1]] if first >= 0 else []
        self.seals_hashed += 1
        self.bytes_hashed += sum(len(line.encode()) for line in lines)
        text = f"seal:{txn_id}" + "".join("\n" + line for line in lines)
        return hashlib.sha256(text.encode()).hexdigest()

    # -- verification --------------------------------------------------------

    def verdict(self, seal: Seal) -> bool:
        """A seal holds if its range is -1/-1 or ends before the seal, and it
        carries the range's digest, signed by the enclave. The verdict is
        computed once per seal lsn."""
        if seal.lsn not in self.verdicts:
            if seal.first < 0:
                in_place = (seal.first, seal.last) == (-1, -1)
            else:
                in_place = seal.first <= seal.last < seal.lsn
            self.verdicts[seal.lsn] = in_place and (
                self.digest(seal.txn, seal.first, seal.last) == seal.digest
                and self.enclave.verify(seal.digest, seal.signature))
        return self.verdicts[seal.lsn]

    def verify_log(self) -> bool:
        """Every seal holds, checked in lsn order up to the first that fails."""
        return all(self.verdict(seal) for seal in self.of(Seal))

    # -- trusted state and repair ---------------------------------------------

    def expected_state(self, key: str) -> tuple[int, int]:
        # ROADMAP item 4: an unsealed redo counts here (torn tail)
        redos = self.of(Redo, key)
        return (redos[-1].value, redos[-1].mod_index) if redos else (INITIAL_VALUE, 0)

    def value_at(self, key: str, version: int) -> int:
        """The value of the key's first redo at mod index `version`."""
        return next((r.value for r in self.of(Redo, key) if r.mod_index == version),
                    INITIAL_VALUE)

    def replay_plan(self, key: str):
        """The key's last anchor, as a record, and the lsns of its redos
        after it; with no anchor, the initial record and all its redos."""
        anchors = self.of(Anchor, key)
        base = (record(key, anchors[-1].value, anchors[-1].version) if anchors
                else record(key, INITIAL_VALUE, 0))
        start = anchors[-1].lsn if anchors else -1
        # ROADMAP item 4: an unsealed redo is replayed too (torn tail)
        return base, [r.lsn for r in self.of(Redo, key) if r.lsn > start]

    def recover(self, key: str) -> Record:
        """The replay plan's last redo, or its base. First every non-empty
        seal whose range overlaps the lsns from the anchor to the last redo
        must hold, in lsn order, and cover each of those lsns. The counters
        report the redos replayed and the seals checked, 0 and 0 when
        refused, and the seals and bytes this call hashed."""
        self.last_replay_count = self.last_seals_verified = 0
        hashed, scanned = self.seals_hashed, self.bytes_hashed
        try:
            base, redo_lsns = self.replay_plan(key)
            anchors = self.of(Anchor, key)
            touched = [a.lsn for a in anchors[-1:]] + redo_lsns
            verified = self.check_replay(touched) if touched else 0
        finally:
            self.last_seals_hashed = self.seals_hashed - hashed
            self.last_bytes_scanned = self.bytes_hashed - scanned
        self.last_replay_count, self.last_seals_verified = len(redo_lsns), verified
        if not redo_lsns:
            return base
        last = self.entries[redo_lsns[-1]]
        return record(key, last.value, last.mod_index)

    def check_replay(self, touched: list[int]) -> int:
        lo, hi = min(touched), max(touched)
        overlapping = [s for s in self.of(Seal) if 0 <= s.first <= hi and s.last >= lo]
        for seal in overlapping:
            if not self.verdict(seal):
                raise RecoveryRefused(f"seal at lsn {seal.lsn} failed verification")
        missing = [lsn for lsn in touched
                   if not any(s.first <= lsn <= s.last for s in overlapping)]
        if missing:
            raise RecoveryRefused(f"entries {missing} not covered by any valid seal")
        return len(overlapping)

    # -- serialization --------------------------------------------------------

    def to_text(self) -> str:
        """A header line, `magic|version|algorithm|anchor_every|MAC` with the
        enclave's MAC over the rest, then a line per record."""
        prefix = f"{MAGIC}|{FORMAT_VERSION}|{DIGEST_ALGO}|{self.anchor_every}"
        return "\n".join([f"{prefix}|{self.enclave.sign(prefix)}", *self.records]) + "\n"

    @classmethod
    def from_text(cls, text: str, enclave) -> "LogModel":
        """The log `to_text` wrote, or LogCorrupt at the first fault: the
        header's, then each line's in order, its form before its lsn."""
        if not text.endswith("\n"):
            raise LogCorrupt("missing trailing newline")
        header, *lines = text[:-1].split("\n")
        head = header.split("|")
        if len(head) != 5 or head[:2] != [MAGIC, FORMAT_VERSION]:
            raise LogCorrupt("bad header")
        if head[2] != DIGEST_ALGO:
            raise LogCorrupt(f"unsupported digest algorithm {head[2]!r}")
        anchor_every = read_int(head[3])
        if anchor_every is None or too_long(head[3]):
            raise LogCorrupt(f"not a canonical integer: {head[3][:80]!r}")
        if anchor_every < 1:
            raise LogCorrupt("bad anchor interval")
        if not (read_hex(head[4]) and enclave.verify("|".join(head[:4]), head[4])):
            raise LogCorrupt("header MAC mismatch")
        model = cls(enclave, anchor_every)
        # ROADMAP item 4: a cut after any line loads, so a log cut after a
        # seal loads and verifies (truncation)
        for lsn, line in enumerate(lines):
            rec = parse(line)
            if rec.lsn != lsn:
                raise LogCorrupt(f"lsn gap at {rec.lsn}")
            model.entries.append(rec)
        return model
