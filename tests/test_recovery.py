import dataclasses
import hashlib
import hmac
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frpkernel.engine import CCAction, Engine, Record, WorkloadSpec, compute_checksum
from frpkernel.recovery import (
    AnchorEntry,
    EnclaveSim,
    LogCorrupt,
    LogError,
    RecoveryRefused,
    RedoEntry,
    RedoLog,
    TxnSeal,
    UnknownTxn,
    _decode,
)


def make_log(n=4, seed=99):
    return RedoLog(EnclaveSim(seed=seed), anchor_every=n)


def append_and_seal(log, txn_id, writes):
    log.register_txn(txn_id)
    for key, value in writes:
        log.append_redo(txn_id, key, value)
    log.seal_txn(txn_id)


def reload(log, lines=None):
    """`log` as `from_text` loads it from its serialized record lines,
    `lines` (objects with a `.line()`, by default `log.records`): where a
    tamperer's edit enters the program."""
    lines = log.records if lines is None else lines
    text = "\n".join([log.to_text().split("\n", 1)[0]]
                     + [rec.line() for rec in lines]) + "\n"
    return RedoLog.from_text(text, log.enclave)


def edited(log, *records):
    """`log` reloaded with each of `records` in place of the line at its lsn."""
    lines = list(log.records)
    for rec in records:
        lines[rec.lsn] = rec
    return reload(log, lines)


def shadow_replay(log):
    """Oracle: replay every redo entry from lsn 0, ignoring anchors."""
    state = {}
    for rec in log.records:
        if isinstance(rec, RedoEntry):
            state[rec.key] = (rec.new_value, rec.mod_index)
    return state


def test_anchor_cadence_every_fourth_modification():
    log = make_log(n=4)
    for i in range(1, 11):
        append_and_seal(log, i, [("x", 100 + i)])
    anchors = [rec for rec in log.records if isinstance(rec, AnchorEntry)]
    assert [a.mod_index for a in anchors] == [4, 8]
    # the n-th write's anchor carries the post-write full content
    assert anchors[0].full_value == 104
    assert anchors[0].full_version == 4


def test_anchor_every_write_when_n_is_one():
    log = make_log(n=1)
    for i in range(1, 6):
        append_and_seal(log, i, [("x", i)])
    redos = [rec for rec in log.records if isinstance(rec, RedoEntry)]
    anchors = [rec for rec in log.records if isinstance(rec, AnchorEntry)]
    assert len(redos) == len(anchors) == 5


def test_seal_empty_txn_valid():
    log = make_log()
    log.register_txn(42)
    lsn = log.seal_txn(42)
    seal = log.records[lsn]
    assert (seal.first_lsn, seal.last_lsn) == (-1, -1)
    assert log.verify_log()


def test_seal_unknown_txn_errors():
    log = make_log()
    with pytest.raises(UnknownTxn):
        log.seal_txn(7)


def test_double_seal_errors():
    log = make_log()
    append_and_seal(log, 1, [("x", 1)])
    with pytest.raises(LogError):
        log.seal_txn(1)


# a key UTF-8 cannot encode (a lone surrogate) could be appended but never
# sealed, digested or saved, so the key form refuses it with the old cases
@pytest.mark.parametrize("key", ["", "a|b", "a\nb", "\udcff", "k\ud800"])
def test_append_refuses_illegal_key_before_appending(key):
    log = make_log()
    append_and_seal(log, 1, [("a", 1)])
    log.register_txn(2)
    before = log.to_text()
    with pytest.raises(ValueError, match="illegal key"):
        log.append_redo(2, key, 5)
    assert log.to_text() == before
    log.seal_txn(2)
    assert RedoLog.from_text(log.to_text(), log.enclave).verify_log()


# each of these would render a line that from_text refuses, or one that
# reads back as another value ("5" as 5)
@pytest.mark.parametrize("txn_id, value", [(2, 1.5), (2, True), (2, "5"), (2, None),
                                           (True, 5), (2.0, 5), ("2", 5)])
def test_append_refuses_non_int_txn_or_value_before_appending(txn_id, value):
    log = make_log(n=1)
    append_and_seal(log, 1, [("a", 1)])
    log.register_txn(2)
    before = log.to_text()
    with pytest.raises(ValueError, match="must be ints"):
        log.append_redo(txn_id, "a", value)
    assert log.to_text() == before
    log.append_redo(2, "a", 5)
    log.seal_txn(2)
    loaded = RedoLog.from_text(log.to_text(), log.enclave)
    assert loaded.verify_log()
    assert loaded.recover("a").value == 5


@pytest.mark.parametrize("line", ["R|0|1|\ud800|5|1", "A|0|a\udfff|5|4|4"])
def test_load_refuses_key_utf8_cannot_encode(line):
    log = make_log()
    header = log.to_text().split("\n", 1)[0]
    with pytest.raises(LogCorrupt, match="non-canonical record"):
        RedoLog.from_text(f"{header}\n{line}\n", log.enclave)


def test_seal_refuses_interleaved_txn_and_second_seal():
    """A seal covers one contiguous lsn range, so a txn whose appends
    interleave with another's cannot be sealed, and a refused seal appends
    nothing. A txn is sealed once, whether it wrote entries or none."""
    log = make_log(n=2)
    for txn_id in (1, 2, 3):
        log.register_txn(txn_id)
    log.append_redo(1, "x", 1)
    log.append_redo(2, "y", 2)
    log.append_redo(1, "x", 3)      # with its anchor
    with pytest.raises(LogError, match="not contiguous"):
        log.seal_txn(1)
    assert len(log.records) == 4
    for txn_id in (2, 3):
        log.seal_txn(txn_id)
        with pytest.raises(LogError, match="already sealed"):
            log.seal_txn(txn_id)
    assert len(log.records) == 6 and log.verify_log()


def test_distinct_txns_distinct_digests():
    log = make_log()
    append_and_seal(log, 1, [("x", 5)])
    append_and_seal(log, 2, [("y", 5)])
    seals = [rec for rec in log.records if isinstance(rec, TxnSeal)]
    assert seals[0].digest != seals[1].digest
    # even empty-range seals differ across txns
    log.register_txn(10)
    log.register_txn(11)
    first, second = log.seal_txn(10), log.seal_txn(11)
    assert log.records[first].digest != log.records[second].digest


def test_tampered_entry_fails_verification():
    log = make_log()
    append_and_seal(log, 1, [("x", 5), ("y", 6)])
    assert log.verify_log()
    entry = log.records[0]
    tampered = edited(log, RedoEntry(entry.lsn, entry.txn_id, entry.key, 999,
                                     entry.mod_index))
    assert not tampered.verify_log()


def test_deleted_entry_leaves_lsn_gap():
    log = make_log()
    append_and_seal(log, 1, [("x", 5), ("y", 6)])
    with pytest.raises(LogCorrupt, match="lsn gap"):
        reload(log, log.records[1:])


def test_flipped_signature_detected():
    log = make_log()
    append_and_seal(log, 1, [("x", 5)])
    seal = next(rec for rec in log.records if isinstance(rec, TxnSeal))
    bad = "0" if seal.signature[0] != "0" else "1"
    tampered = edited(log, TxnSeal(seal.lsn, seal.txn_id, seal.first_lsn,
                                   seal.last_lsn, seal.digest,
                                   bad + seal.signature[1:]))
    assert not tampered.verify_log()


def test_non_hex_digest_or_mac_is_corrupt():
    """A MAC or digest that is no lowercase hex string ends in LogCorrupt
    at load, not in a TypeError from `hmac.compare_digest` later on: no
    single-bit flip makes valid non-ASCII UTF-8, so the sweeps miss it."""
    log = make_log()
    append_and_seal(log, 1, [("x", 5)])
    header, redo, seal = log.to_text().splitlines()
    head, _, mac = header.rpartition("|")
    fields = seal.split("|")
    digest_bad = "|".join(fields[:5] + ["é" + fields[5][1:], fields[6]])
    signature_bad = "|".join(fields[:6] + ["é" + fields[6][1:]])
    upper_bad = "|".join(fields[:6] + [fields[6].upper()])
    for lines in ([f"{head}|é{mac[1:]}", redo, seal], [header, redo, digest_bad],
                  [header, redo, signature_bad], [header, redo, upper_bad]):
        with pytest.raises(LogCorrupt):
            RedoLog.from_text("\n".join(lines) + "\n", log.enclave)


def missed_flips(log):
    """Every (byte, bit) of the serialized log whose flip neither fails to
    load nor fails `verify_log()` after loading."""
    raw = log.to_text().encode()
    missed = []
    for byte_idx in range(len(raw)):
        for bit in range(8):
            mutated = bytearray(raw)
            mutated[byte_idx] ^= 1 << bit
            try:
                text = bytes(mutated).decode("utf-8")
                if RedoLog.from_text(text, log.enclave).verify_log():
                    missed.append((byte_idx, bit))
            except (LogCorrupt, UnicodeDecodeError):
                pass
    return missed


def test_exhaustive_bit_flips_detected():
    log = make_log(n=2)
    append_and_seal(log, 1, [("x", 5), ("y", 6)])
    append_and_seal(log, 2, [("x", 7)])
    assert missed_flips(log) == []


def test_exhaustive_bit_flips_detected_with_empty_seal():
    """A read-only commit's seal covers the range -1/-1, which its digest
    does not bind: a flip of either bound must still be caught."""
    log = make_log(n=2)
    append_and_seal(log, 1, [("x", 5), ("y", 6)])
    append_and_seal(log, 2, [])
    append_and_seal(log, 3, [("x", 7)])
    assert [rec.lsn for rec in log.records
            if isinstance(rec, TxnSeal) and rec.last_lsn == -1] == [3]
    assert missed_flips(log) == []


def test_empty_seal_with_rewritten_range_fails():
    log = make_log()
    append_and_seal(log, 1, [("x", 5)])
    append_and_seal(log, 2, [])
    seal = log.records[-1]
    for first, last in ((-7, 1), (-1, 0), (-3, -1), (-1, -2)):
        tampered = edited(log, dataclasses.replace(seal, first_lsn=first,
                                                   last_lsn=last))
        assert not tampered.verify_log()
    assert log.verify_log() and reload(log).verify_log()


def test_detect_tamper_cases():
    log = make_log()
    append_and_seal(log, 1, [("x", 10)])
    append_and_seal(log, 2, [("x", 20)])

    clean = Record("x", 20, 2, compute_checksum("x", 20, 2))
    assert not log.detect_tamper("x", clean)

    value_flip = Record("x", 21, 2, clean.checksum)
    assert log.detect_tamper("x", value_flip)

    # rollback to the old state, with a checksum that matches it
    rollback = Record("x", 10, 1, compute_checksum("x", 10, 1))
    assert rollback.checksum_ok()
    assert log.detect_tamper("x", rollback)

    untouched = Record.initial("never")
    assert not log.detect_tamper("never", untouched)


def test_recover_replays_only_past_last_anchor():
    log = make_log(n=4)
    for i in range(1, 11):
        append_and_seal(log, i, [("x", 100 + i)])
    base, redo_lsns = log.replay_plan("x")
    assert base.version == 8
    assert len(redo_lsns) == 2
    rec = log.recover("x")
    assert log.last_replay_count == 2
    assert (rec.value, rec.version) == (110, 10)
    assert rec.checksum_ok()


def test_recover_never_written_key():
    log = make_log()
    rec = log.recover("ghost")
    assert (rec.value, rec.version) == (0, 0)
    assert rec.checksum_ok()


def test_recover_matches_shadow_oracle_over_random_history():
    eng_log = make_log(n=4)
    eng = Engine(log=eng_log, max_workers=4)
    spec = WorkloadSpec(key_space=6, zipf_theta=1.0, write_frac=0.7,
                        txn_len=3, arrival_rate=3.0, seed=21)
    eng.run_window(spec, lambda kind, heat: CCAction.LOCK_IMMEDIATE, duration=20)

    shadow = shadow_replay(eng_log)
    for key, (value, version) in shadow.items():
        # tamper, detect, repair
        eng.store.tamper(key, value=value + 1)
        assert eng_log.detect_tamper(key, eng.store.read(key))
        rec = eng_log.recover(key)
        assert (rec.value, rec.version) == (value, version)
        assert eng_log.last_replay_count <= eng_log.anchor_every
        # also agrees with what the engine committed
        eng.store.records[key] = rec
        assert not eng_log.detect_tamper(key, eng.store.read(key))


def test_recover_refused_when_replayed_range_tampered():
    log = make_log(n=4)
    for i in range(1, 4):
        append_and_seal(log, i, [("x", i)])
    entry = log.records[2]
    tampered = edited(log, RedoEntry(entry.lsn, entry.txn_id, entry.key, 999,
                                     entry.mod_index))
    with pytest.raises(RecoveryRefused):
        tampered.recover("x")


def test_refused_recover_reports_its_own_counters():
    log = make_log(n=4)
    for i in range(1, 4):
        append_and_seal(log, i, [("x", i), ("y", i)])
    log.recover("x")
    assert (log.last_replay_count, log.last_seals_verified,
            log.last_seals_hashed) == (3, 3, 3)
    y_lsn = log.replay_plan("y")[1][-1]
    tampered = edited(log, dataclasses.replace(log.records[y_lsn],
                                               new_value=99999))
    with pytest.raises(RecoveryRefused):
        tampered.recover("y")
    # the reloaded log knew no verdict, so all three seals over y's range
    # were hashed, the tampered last one included; none was replayed or passed
    redo_lines = [rec.line().encode() for rec in tampered.records
                  if isinstance(rec, RedoEntry)]
    assert (tampered.last_replay_count, tampered.last_seals_verified,
            tampered.last_seals_hashed) == (0, 0, 3)
    assert tampered.last_bytes_scanned == sum(map(len, redo_lines))
    # a retry is refused again on the kept verdicts and hashes nothing
    with pytest.raises(RecoveryRefused):
        tampered.recover("y")
    assert (tampered.last_replay_count, tampered.last_seals_verified,
            tampered.last_seals_hashed, tampered.last_bytes_scanned) == (0, 0, 0, 0)


def test_log_is_append_only():
    """Records enter only by append, seal or load: the record view and the
    enclave cannot be edited or reassigned in memory."""
    log = make_log(n=4, seed=1)
    append_and_seal(log, 1, [("x", 5)])
    records = log.records
    with pytest.raises(TypeError):
        log.records[0] = dataclasses.replace(records[0], new_value=999)
    with pytest.raises(AttributeError):
        log.records.pop()
    with pytest.raises(AttributeError):
        log.records.append(records[0])
    with pytest.raises(AttributeError):
        log.records = []
    with pytest.raises(AttributeError):
        log.enclave = EnclaveSim(seed=2)
    assert log.records == records and log.verify_log()
    assert log.recover("x").value == 5


def test_record_edit_drops_cached_verdicts():
    """An edit reaches a log only by reload, and the reloaded log starts with
    no verdict: the original's cached passes do not vouch for the edit."""
    log = make_log(n=4)
    for i in range(1, 7):
        append_and_seal(log, i, [("x", i), (f"k{i % 3}", i)])
    assert log.verify_log()
    log.recover("x")
    lsn = log.replay_plan("x")[1][-1]
    tampered = edited(log, dataclasses.replace(log.records[lsn], new_value=999))
    assert not tampered.verify_log()
    with pytest.raises(RecoveryRefused):
        tampered.recover("x")
    assert log.verify_log()
    assert log.recover("x").value == 6
    restored = edited(tampered, log.records[lsn])
    assert restored.verify_log()
    assert restored.recover("x").value == 6


def test_enclave_change_drops_cached_verdicts():
    """The same records under a second enclave (header re-MACed by it) are
    judged anew and refused; the first log's verdicts stay its own."""
    log = make_log(n=4, seed=1)
    for i in range(1, 7):
        append_and_seal(log, i, [("x", i)])
    assert log.verify_log()
    log.recover("x")
    other = EnclaveSim(seed=2)
    header, records = log.to_text().split("\n", 1)
    prefix = header.rpartition("|")[0]
    moved = RedoLog.from_text(f"{prefix}|{other.sign(prefix)}\n{records}", other)
    assert moved.enclave is other and moved.records == log.records
    assert not moved.verify_log()
    with pytest.raises(RecoveryRefused):
        moved.recover("x")
    assert log.enclave is not other
    assert log.verify_log()
    assert log.recover("x").value == 6


def test_recover_refused_for_unsealed_injected_entry():
    log = make_log(n=4)
    append_and_seal(log, 1, [("x", 5)])
    injected = RedoEntry(len(log.records), 9, "x", 666, 2)
    tampered = reload(log, [*log.records, injected])
    assert tampered.expected_state("x") == (666, 2)
    with pytest.raises(RecoveryRefused, match="not covered"):
        tampered.recover("x")


def test_save_load_roundtrip():
    log = make_log(n=2)
    append_and_seal(log, 1, [("x", 5), ("y", 6), ("x", 7)])
    log.register_txn(2)
    log.seal_txn(2)

    loaded = RedoLog.from_text(log.to_text(), log.enclave)
    assert loaded.verify_log()
    assert loaded.records == log.records
    assert loaded.anchor_every == 2
    assert (loaded.recover("x").value, loaded.recover("x").version) == (7, 2)
    # appends keep working after a reload
    append_and_seal(loaded, 3, [("x", 8)])
    assert loaded.verify_log()


def test_wrong_enclave_key_rejects_log():
    log = make_log(seed=1)
    append_and_seal(log, 1, [("x", 5)])
    with pytest.raises(LogCorrupt):
        RedoLog.from_text(log.to_text(), EnclaveSim(seed=2))


def test_enclave_key_never_reaches_serialized_output():
    enclave = EnclaveSim(seed=9)
    log = RedoLog(enclave, anchor_every=2)
    append_and_seal(log, 1, [("x", 5), ("y", 6)])
    text = log.to_text()
    assert enclave._mac_key.hex() not in text
    assert "key withheld" in repr(enclave)


@settings(max_examples=300, deadline=None)
@given(st.text(), st.integers(), st.binary(min_size=32, max_size=32))
@example("", 0, bytes(32))
@example("é键🙂" * 40, -3, bytes(range(32)))
def test_sign_is_hmac_sha256_of_the_enclave_key(msg, seed, other):
    """`sign` equals the standard library's HMAC-SHA256 under the enclave's
    key, and `verify` accepts that signature and rejects every other one."""
    enclave = EnclaveSim(seed)
    key = hashlib.sha256(f"enclave:{seed}".encode()).digest()
    expected = hmac.new(key, msg.encode(), hashlib.sha256).hexdigest()
    assert enclave.sign(msg) == expected
    assert enclave.verify(msg, expected)
    flipped = expected[:-1] + ("0" if expected[-1] != "0" else "1")
    assert not enclave.verify(msg, flipped)
    if other.hex() != expected:
        assert not enclave.verify(msg, other.hex())


def test_append_cost_one_redo_plus_fractional_anchor():
    for n in (1, 2, 4, 8):
        log = make_log(n=n)
        writes = 37
        for i in range(writes):
            append_and_seal(log, i, [("x", i)])
        redos = sum(isinstance(rec, RedoEntry) for rec in log.records)
        anchors = sum(isinstance(rec, AnchorEntry) for rec in log.records)
        assert redos == writes
        assert anchors == writes // n


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4, 8]),
    writes=st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 999)),
                    min_size=1, max_size=40),
)
def test_replay_bound_holds_for_all_histories(n, writes):
    log = make_log(n=n)
    for i, (key, value) in enumerate(writes):
        append_and_seal(log, i + 1, [(key, value)])
    for key in {k for k, _ in writes}:
        _, redo_lsns = log.replay_plan(key)
        assert len(redo_lsns) <= n
        rec = log.recover(key)
        assert (rec.value, rec.version) == shadow_replay(log)[key]


def test_seals_verified_independent_of_log_prefix():
    outcomes = []
    for prefix in (0, 2000):
        log = make_log(n=4)
        for i in range(prefix):
            append_and_seal(log, i + 1, [(f"u{i % 50}", i)])
        for j in range(6):
            append_and_seal(log, prefix + 1 + j, [("x", j), ("y", j)])
        assert log.verify_log()
        rec = log.recover("x")
        outcomes.append((rec, log.last_replay_count, log.last_seals_verified))
    assert outcomes[0] == outcomes[1]
    # anchor in the 4th txn, then the 5th and 6th txns' redos: three seals
    assert outcomes[0] == (Record("x", 5, 6, compute_checksum("x", 5, 6)), 2, 3)
    assert log.recover("never").version == 0 and log.last_seals_verified == 0


# -- differential oracle: recovery against the whole-log rescan it replaced ----

def reference_recover(log, key):
    """`RedoLog.recover` as it was before the seal index: the replay check
    rescans every record for the seals overlapping the replayed range.
    Returns (record, replayed entries, seals verified)."""
    base, redo_lsns = log.replay_plan(key)
    anchors = log._key_anchors.get(key, [])
    touched = ([anchors[-1]] if anchors else []) + redo_lsns
    records = log.records     # decoded from the log's lines on each read
    verified = 0
    if touched:
        lo, hi = min(touched), max(touched)
        covered = set()
        for rec in records:
            if not isinstance(rec, TxnSeal):
                continue
            if rec.first_lsn < 0 or rec.last_lsn < lo or rec.first_lsn > hi:
                continue
            if not log._seal_ok(dataclasses.astuple(rec)):
                raise RecoveryRefused(f"seal at lsn {rec.lsn} failed verification")
            covered.update(range(rec.first_lsn, rec.last_lsn + 1))
            verified += 1
        missing = [l for l in touched if l not in covered]
        if missing:
            raise RecoveryRefused(f"entries {missing} not covered by any valid seal")
    value, version = base.value, base.version
    for lsn in redo_lsns:
        entry = records[lsn]
        value, version = entry.new_value, entry.mod_index
    return (Record(key, value, version, compute_checksum(key, value, version)),
            len(redo_lsns), verified)


def reference_verify_log(log):
    """`RedoLog.verify_log()` over the whole log, as it was before the seal
    index."""
    return all(log._seal_ok(dataclasses.astuple(rec)) for rec in log.records
               if isinstance(rec, TxnSeal))


def outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:    # the same failure, of any kind, must recur
        return ("error", type(exc), str(exc))


def recovered(log, key):
    rec = log.recover(key)
    return rec, log.last_replay_count, log.last_seals_verified


ORACLE_KEYS = "abcd"
# drawn with these weights: a pop (but of the last record) or an lsn rewrite
# fails to load, which leaves the round on the unmutated log
MUTATIONS = ("value", "value", "value", "range", "swap", "duplicate",
             "append", "append", "pop", "lsn")


EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("txn"),
                  st.lists(st.tuples(st.sampled_from(ORACLE_KEYS),
                                     st.integers(0, 99)), max_size=3)),
        st.tuples(st.just("seal"), st.integers(0, 7)),
    ),
    min_size=12, max_size=40,
)


def interleaved_log(n, events, seal_rest):
    """A log whose txns are registered, appended and sealed in the order
    `events` gives: a seal may trail later txns' entries, a txn may write
    nothing, and unless `seal_rest` the txns never sealed stay unsealed.
    Returns the log and the last txn id used."""
    log = make_log(n=n)
    pending, txn_id = [], 0
    for kind, arg in events:
        if kind == "txn":
            txn_id += 1
            log.register_txn(txn_id)
            for key, value in arg:
                log.append_redo(txn_id, key, value)
            pending.append(txn_id)
        elif pending:
            log.seal_txn(pending.pop(arg % len(pending)))
    if seal_rest:
        for tid in pending:
            log.seal_txn(tid)
    return log, txn_id


def mutate(log, kind, at, other, fresh_txn):
    """`log` after one mutation: an appended txn, or an edit of its
    serialized record lines reloaded by `from_text`."""
    if kind == "append":
        append_and_seal(log, fresh_txn, [(ORACLE_KEYS[at % 4], other % 100)])
        return log
    records = list(log.records)
    if not records or not edit_records(records, kind, at, other):
        return log
    # a pop of any record but the last leaves a gap
    if kind == "lsn" or (kind == "pop" and at % (len(records) + 1) < len(records)):
        with pytest.raises(LogCorrupt, match="lsn gap"):
            reload(log, records)
        return log
    return reload(log, records)


def edit_records(records, kind, at, other):
    """Apply one edit of `kind`, a MUTATIONS kind but "append", to the
    non-empty list `records` of a log's records. False if there was
    nothing to edit."""
    i, j = at % len(records), other % len(records)
    rec = records[i]
    if kind == "value":
        if isinstance(rec, RedoEntry):
            records[i] = dataclasses.replace(rec, new_value=rec.new_value + 1)
        elif isinstance(rec, AnchorEntry):
            records[i] = dataclasses.replace(rec, full_value=rec.full_value + 1)
        else:
            records[i] = dataclasses.replace(rec, digest=rec.digest[::-1])
    elif kind == "range":
        seals = [k for k, r in enumerate(records) if isinstance(r, TxnSeal)]
        if not seals:
            return False
        k = seals[at % len(seals)]
        s = records[k]
        ranges = [(s.first_lsn - 1, s.last_lsn), (s.first_lsn, s.last_lsn + 1),
                  (-1, -1), (0, len(records) - 1), (s.last_lsn, s.first_lsn),
                  (j, j)]
        first, last = ranges[other % len(ranges)]
        records[k] = dataclasses.replace(s, first_lsn=first, last_lsn=last)
    elif kind == "pop":
        records.pop(i)
    elif kind == "swap":    # renumbered, so the lsns stay gap-free
        records[i], records[j] = (dataclasses.replace(records[j], lsn=i),
                                  dataclasses.replace(rec, lsn=j))
    elif kind == "duplicate":
        records[i] = dataclasses.replace(records[j], lsn=i)
    elif kind == "lsn":
        records[i] = dataclasses.replace(rec, lsn=rec.lsn + 1 + other % 3)
    return True


@settings(max_examples=250, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4]),
    events=EVENTS,
    seal_rest=st.booleans(),
    rounds=st.lists(
        st.lists(st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6),
                           st.integers(0, 10**6)), max_size=2),
        min_size=1, max_size=4,
    ),
)
def test_recover_matches_whole_log_rescan(n, events, seal_rest, rounds):
    """Recovery on the seal index agrees with the whole-log rescan on
    interleaved, partly unsealed logs whose serialized lines are tampered
    between recoveries: the same record, replay count and seals verified,
    or the same refusal message."""
    log, txn_id = interleaved_log(n, events, seal_rest)
    keys = list(ORACLE_KEYS) + ["ghost"]
    for mutations in rounds + [[]]:
        for key in keys:
            assert outcome(lambda: recovered(log, key)) == \
                outcome(lambda: reference_recover(log, key))
        assert outcome(log.verify_log) == outcome(lambda: reference_verify_log(log))
        for kind, at, other in mutations:
            txn_id += 1
            log = mutate(log, kind, at, other, txn_id)


def scanned_rollback_value(records, key, old_version):
    """The rollback value `recover-demo` used to inject: its scan of every
    decoded record for `key`'s redo at `old_version` (verbatim)."""
    old_value = 0
    for rec in records:
        if getattr(rec, "key", None) == key and getattr(rec, "mod_index", None) == old_version:
            old_value = rec.new_value
            break
    return old_value


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([1, 2, 4]), events=EVENTS, seal_rest=st.booleans())
def test_value_at_matches_scan_of_records(n, events, seal_rest):
    """`value_at` reads from the per-key state the value recover-demo's scan
    of every record found, for each written key and a ghost, at every
    version from below the first to past the last, on interleaved logs and
    their reloads."""
    log, _ = interleaved_log(n, events, seal_rest)
    for target in (log, RedoLog.from_text(log.to_text(), log.enclave)):
        records = target.records
        for key in list(ORACLE_KEYS) + ["ghost"]:
            for version in range(-1, target.expected_state(key)[1] + 2):
                assert target.value_at(key, version) == \
                    scanned_rollback_value(records, key, version)


def recovery_pass(log, verify_first):
    """Count the `_seal_ok` calls per seal lsn over an optional
    `verify_log()` followed by `recover` on every key; also return each
    recovery's (seals verified, seals hashed, bytes scanned)."""
    calls = Counter()
    seal_ok = log._seal_ok

    def counting(seal):     # a seal row, its lsn first
        calls[seal[0]] += 1
        return seal_ok(seal)

    log._seal_ok = counting
    if verify_first:
        assert log.verify_log()
    reports = []
    for key in list(ORACLE_KEYS) + ["ghost"]:
        log.recover(key)
        reports.append((log.last_seals_verified, log.last_seals_hashed,
                        log.last_bytes_scanned))
    return calls, reports


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([1, 2, 4]), events=EVENTS)
def test_each_seal_verified_once(n, events):
    """verify_log() then a recovery of every key checks each seal exactly
    once; recoveries alone check each seal at most once. Both report the
    same seals verified, and after verify_log() no recovery hashes. Appends
    after a verify_log() re-hash no earlier seal, and each new seal once."""
    log, txn_id = interleaved_log(n, events, seal_rest=True)
    seals = [rec for rec in log.records if isinstance(rec, TxnSeal)]
    warm_calls, warm = recovery_pass(log, verify_first=True)
    assert warm_calls == Counter(seal.lsn for seal in seals)
    assert all(hashed == scanned == 0 for _, hashed, scanned in warm)

    cold_log, _ = interleaved_log(n, events, seal_rest=True)
    cold_calls, cold = recovery_pass(cold_log, verify_first=False)
    assert set(cold_calls.values()) <= {1}
    assert [r[0] for r in cold] == [r[0] for r in warm]
    # every seal is intact, so each check recomputes its digest
    assert sum(r[1] for r in cold) == len(cold_calls)
    cold_records = cold_log.records
    assert sum(r[2] for r in cold) == sum(
        len(cold_records[lsn].line())
        for seal in seals if seal.lsn in cold_calls
        for lsn in range(seal.first_lsn, seal.last_lsn + 1))

    for writes in ([("a", 1), ("b", 2)], [], [("a", 3)]):
        txn_id += 1
        append_and_seal(log, txn_id, writes)
        grown_calls, grown = recovery_pass(log, verify_first=True)
        assert grown_calls == Counter([log.records[-1].lsn])
        assert all(hashed == scanned == 0 for _, hashed, scanned in grown)


def scanned_maps(records):
    """Reference for the maps RedoLog derives from its records, by a plain
    scan of `records`."""
    redos = [r for r in records if isinstance(r, RedoEntry)]
    anchors = [r for r in records if isinstance(r, AnchorEntry)]
    return {
        "_latest": {r.key: (r.new_value, r.mod_index) for r in redos},
        "_key_redos": {k: [r.lsn for r in redos if r.key == k]
                       for k in {r.key for r in redos}},
        "_key_anchors": {k: [a.lsn for a in anchors if a.key == k]
                         for k in {a.key for a in anchors}},
        "_sealed": {r.txn_id for r in records if isinstance(r, TxnSeal)},
    }


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4),
    txns=st.lists(st.tuples(st.lists(st.sampled_from(("a", "b", "c", "d")),
                                     max_size=4),
                            st.booleans()),
                  min_size=1, max_size=12),
)
def test_index_maps_match_plain_scan(n, txns):
    """Appends, seals and a reload all leave the derived maps equal to a
    scan of the records; each txn owns exactly the lsns its appends added
    (anchors included), and an empty registered txn owns none."""
    log = make_log(n=n)
    owned, unsealed = {}, []

    def check(target):
        for name, expected in scanned_maps(target.records).items():
            assert getattr(target, name) == expected, name
        assert target._txn_lsns == owned

    for txn_id, (keys, seal_now) in enumerate(txns, start=1):
        log.register_txn(txn_id)
        owned[txn_id] = []
        for i, key in enumerate(keys):
            before = len(log.records)
            assert log.append_redo(txn_id, key, 10 * txn_id + i) == before
            owned[txn_id].extend(range(before, len(log.records)))
            check(log)
        unsealed.append(txn_id)
        if seal_now:
            log.seal_txn(unsealed.pop())
            check(log)
    for txn_id in unsealed:     # seals may trail later txns' entries
        log.seal_txn(txn_id)
        check(log)

    count = {}
    records = log.records
    for rec in records:
        if isinstance(rec, RedoEntry):
            count[rec.key] = count.get(rec.key, 0) + 1
            assert rec.mod_index == count[rec.key]
            anchored = isinstance(records[rec.lsn + 1], AnchorEntry)
            assert anchored == (rec.mod_index % n == 0)
    check(RedoLog.from_text(log.to_text(), log.enclave))


# -- the loader's canonical-form match against parse-then-re-render ------------

_REF_HEX64 = re.compile("[0-9a-f]{64}")


def _ref_check_key(key: str) -> str:
    if "|" in key or "\n" in key or not key:
        raise ValueError(f"illegal key for log: {key!r}")
    return key


def _ref_parse_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise LogCorrupt(f"not an integer: {text!r}") from None
    if str(value) != text:
        raise LogCorrupt(f"non-canonical integer: {text!r}")
    return value


def _ref_parse_hex(text: str) -> str:
    """A sha256 hex digest or MAC as `hexdigest()` writes it."""
    if not _REF_HEX64.fullmatch(text):
        raise LogCorrupt(f"not a lowercase sha256 hex string: {text!r}")
    return text


def _ref_parse_record(raw: str):
    parts = raw.split("|")
    tag = parts[0] if parts else ""
    try:
        if tag == "R" and len(parts) == 6:
            return RedoEntry(_ref_parse_int(parts[1]), _ref_parse_int(parts[2]),
                             _ref_check_key(parts[3]), _ref_parse_int(parts[4]),
                             _ref_parse_int(parts[5]))
        if tag == "A" and len(parts) == 6:
            return AnchorEntry(_ref_parse_int(parts[1]), _ref_check_key(parts[2]),
                               _ref_parse_int(parts[3]), _ref_parse_int(parts[4]),
                               _ref_parse_int(parts[5]))
        if tag == "S" and len(parts) == 7:
            return TxnSeal(_ref_parse_int(parts[1]), _ref_parse_int(parts[2]),
                           _ref_parse_int(parts[3]), _ref_parse_int(parts[4]),
                           _ref_parse_hex(parts[5]), _ref_parse_hex(parts[6]))
    except ValueError as exc:
        raise LogCorrupt(str(exc)) from None
    raise LogCorrupt(f"unparseable record: {raw!r}")


def reference_load_line(raw):
    """How `from_text` turned one record line into a record before it
    matched the canonical form: parse field by field, then render the
    record again and refuse it unless that gives `raw` back (the four
    functions above are verbatim copies of the parser it used)."""
    rec = _ref_parse_record(raw)
    if rec.line() != raw:
        raise LogCorrupt(f"non-canonical record: {raw!r}")
    return rec


# field layouts by tag: i an int, k a key, h a sha256 hexdigest
LAYOUTS = {"R": "iikii", "A": "ikiii", "S": "iiiihh"}
KEY_CHARS = "ab7 \r\té€键🙂"
# digits that int() reads but str() never writes
FOREIGN_DIGITS = [str.maketrans("0123456789", "".join(chr(z + d) for d in range(10)))
                  for z in (0x660, 0x966, 0xFF10)]


@st.composite
def edited_record_lines(draw):
    """An R, A or S line, canonical but perhaps for its key, with up to
    three edits of its fields: a sign, zero, blank, `_` or foreign digit
    put into a field, a hexdigest in uppercase, a field emptied, dropped or
    repeated, or another tag."""
    tag = draw(st.sampled_from("RAS"))
    fields = [tag]
    for kind in LAYOUTS[tag]:
        if kind == "i":
            fields.append(str(draw(st.integers(-10**20, 10**20))))
        elif kind == "k":
            # mostly a legal key, else one that is empty or holds | or \n
            fields.append(draw(st.text(KEY_CHARS, min_size=1, max_size=5)
                               | st.text(KEY_CHARS + "|\n", max_size=3)))
        else:
            fields.append(draw(st.binary(min_size=32, max_size=32)).hex())
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(fields) - 1))
        text = fields[i]
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(
            ("plus", "zeros", "minus zero", "insert", "digits", "upper",
             "empty", "drop", "repeat", "tag")))
        if edit == "plus":
            fields[i] = "+" + text
        elif edit == "zeros":
            sign = "-" if text.startswith("-") else ""
            fields[i] = sign + "0" * draw(st.integers(1, 2)) + text[len(sign):]
        elif edit == "minus zero":
            fields[i] = "-0"
        elif edit == "insert":
            fields[i] = text[:at] + draw(st.sampled_from(" _\t |\n-+")) + text[at:]
        elif edit == "digits":
            fields[i] = text[:at] + text[at:].translate(draw(st.sampled_from(FOREIGN_DIGITS)))
        elif edit == "upper":
            fields[i] = text.upper()
        elif edit == "empty":
            fields[i] = ""
        elif edit == "drop":
            del fields[i]
        elif edit == "repeat":
            fields.insert(i, text)
        else:
            fields[0] = draw(st.sampled_from(["R", "A", "S", "r", "s", "X", "", "RR"]))
        if not fields:
            fields = [""]
    return "|".join(fields)


@settings(max_examples=600, deadline=None)
@given(raw=st.one_of(edited_record_lines(), st.text(max_size=30)))
def test_loader_accepts_what_parse_and_render_accepted(raw):
    """The canonical-form match accepts exactly the lines that parsing and
    rendering back accepted, builds an equal record from each, and refuses
    every other line with LogCorrupt."""
    expected = outcome(lambda: reference_load_line(raw))
    got = outcome(lambda: _decode(raw))
    assert expected[0] == "ok" or expected[1] is LogCorrupt
    assert got[:2] == expected[:2]
    if got[0] == "ok":
        assert type(got[1]) is type(expected[1]) and got[1] == expected[1]


def test_overlong_integer_field_is_corrupt():
    """An integer field with more digits than int() converts (4,300 by
    default) ends in LogCorrupt at load, in any record field and in the
    header's anchor interval, not in a ValueError from int()."""
    log = make_log()
    append_and_seal(log, 1, [("x", 5)])
    header, redo, seal = log.to_text().splitlines()
    huge = "9" * 5000

    def with_field(line, i):
        fields = line.split("|")
        fields[i] = ("-" if fields[i].startswith("-") else "") + huge
        return "|".join(fields)

    texts = [[header, with_field(redo, i), seal] for i in (1, 2, 4, 5)]
    texts += [[header, redo, with_field(seal, i)] for i in (1, 2, 3, 4)]
    texts.append([with_field(header, 3), redo, seal])
    for lines in texts:
        with pytest.raises(LogCorrupt):
            RedoLog.from_text("\n".join(lines) + "\n", log.enclave)


# -- the loader against the field-table loader it replaced ----------------------

# the canonical fields and field table the loader matched lines with
_OLD_INT, _OLD_KEY, _OLD_HEX = "(0|-?[1-9][0-9]*)", "([^|\n]+)", "([0-9a-f]{64})"
_OLD_FORMS = {
    "R": (re.compile(rf"R\|{_OLD_INT}\|{_OLD_INT}\|{_OLD_KEY}\|{_OLD_INT}\|{_OLD_INT}").fullmatch,
          lambda lsn, txn, key, value, mod: (int(lsn), int(txn), key, int(value), int(mod))),
    "A": (re.compile(rf"A\|{_OLD_INT}\|{_OLD_KEY}\|{_OLD_INT}\|{_OLD_INT}\|{_OLD_INT}").fullmatch,
          lambda lsn, key, value, version, mod:
          (int(lsn), key, int(value), int(version), int(mod))),
    "S": (re.compile(rf"S\|{_OLD_INT}\|{_OLD_INT}\|{_OLD_INT}\|{_OLD_INT}\|{_OLD_HEX}\|{_OLD_HEX}").fullmatch,
          lambda lsn, txn, first, last, digest, signature:
          (int(lsn), int(txn), int(first), int(last), digest, signature)),
}


def _old_fields(raw: str) -> tuple[str, tuple]:
    tag = raw[:1]
    match, convert = _OLD_FORMS.get(tag, (None, None))
    fields = match(raw) if match else None
    if fields is None:
        raise LogCorrupt(f"unparseable or non-canonical record: {raw!r}")
    try:
        return tag, convert(*fields.groups())
    except ValueError:      # int() refuses more than 4,300 digits
        raise LogCorrupt(f"not an integer in record: {raw[:80]!r}") from None


class OldLoad:
    """The record loop of `RedoLog.from_text` and the indexers it called,
    as they were when each seal was a `TxnSeal`: the lines, maps and seals
    it leaves from a log's record lines."""

    def __init__(self, record_lines):
        self._lines, self._state, self._seals = [], [], []
        self._latest, self._txn_lsns, self._key_redos, self._key_anchors = {}, {}, {}, {}
        self._sealed = set()
        prev = None     # the fields of the line before, if it is a redo entry
        for raw in record_lines:
            tag, fields = _old_fields(raw)
            if fields[0] != len(self._lines):
                raise LogCorrupt(f"lsn gap at {fields[0]}")
            if tag == "R":
                self._add_redo(raw, *fields)
            elif tag == "A":    # in the txn whose redo of the same key it follows
                self._add_anchor(raw, *fields[:4],
                                 prev[1] if prev and prev[2] == fields[1] else None)
            else:
                self._add_seal(raw, TxnSeal(*fields))
            prev = fields if tag == "R" else None

    def _add_redo(self, line, lsn, txn_id, key, value, mod_index):
        self._lines.append(line)
        self._state.append(state := (value, mod_index))
        self._latest[key] = state
        self._txn_lsns.setdefault(txn_id, []).append(lsn)
        self._key_redos.setdefault(key, []).append(lsn)

    def _add_anchor(self, line, lsn, key, value, version, txn_id):
        self._lines.append(line)
        self._state.append((value, version))
        self._key_anchors.setdefault(key, []).append(lsn)
        if txn_id is not None:
            self._txn_lsns.setdefault(txn_id, []).append(lsn)

    def _add_seal(self, line, seal):
        self._lines.append(line)
        self._state.append(None)
        self._seals.append(seal)
        self._sealed.add(seal.txn_id)
        self._txn_lsns.setdefault(seal.txn_id, [])


LOADED = ("_lines", "_state", "_latest", "_txn_lsns", "_sealed", "_key_redos",
          "_key_anchors")


def loaded_state(log, seal_fields):
    return {**{name: getattr(log, name) for name in LOADED},
            "seals": [seal_fields(seal) for seal in log._seals]}


# a line with both an lsn gap and an overlong field: the field is reported
@example(n=1, events=[("txn", [("a", 1)])], seal_rest=True, edits=[],
         spliced=(0, False, "R|7|1|x|5|1", 4))
@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4]),
    events=EVENTS,
    seal_rest=st.booleans(),
    edits=st.lists(st.tuples(st.sampled_from(sorted(set(MUTATIONS))),
                             st.integers(0, 10**6), st.integers(0, 10**6)),
                   max_size=2),
    spliced=st.none() | st.tuples(st.integers(0, 10**6), st.booleans(),
                                  edited_record_lines(), st.none() | st.integers(0, 6)),
)
def test_loader_matches_field_table_loader(n, events, seal_rest, edits, spliced):
    """`from_text` leaves the same lines, maps and seal fields as the
    field-table loader it replaced, or fails with the same exception and
    message, on interleaved logs after every kind of record edit and with
    an edited line spliced in at a drawn lsn (perhaps given that lsn, and
    perhaps with a field of more digits than int() converts)."""
    log, txn_id = interleaved_log(n, events, seal_rest)
    records = list(log.records)
    for kind, at, other in edits:
        if kind == "append":
            txn_id += 1
            append_and_seal(log, txn_id, [(ORACLE_KEYS[at % 4], other % 100)])
            records = list(log.records)
        elif records:
            edit_records(records, kind, at, other)
    lines = [rec.line() for rec in records]
    if spliced is not None:
        where, own_lsn, raw, overlong = spliced
        where %= len(lines) + 1
        parts = raw.split("|")
        if own_lsn and len(parts) > 1:
            parts[1] = str(where)
        if overlong is not None:
            parts[overlong % len(parts)] = "9" * 4301
        lines[where:where + 1] = ["|".join(parts)]
    header = log.to_text().split("\n", 1)[0]
    text = "\n".join([header] + lines) + "\n"
    assert outcome(lambda: loaded_state(RedoLog.from_text(text, log.enclave), tuple)) \
        == outcome(lambda: loaded_state(OldLoad(text[:-1].split("\n")[1:]),
                                        dataclasses.astuple))


# -- the kept lines against the records they render ----------------------------

TEXT_KEYS = ("a", "é", "键", "k🙂", "x y", "b\r")


def overlap_line_bytes(log, key):
    """UTF-8 bytes of the records' rendered lines under every non-empty seal
    whose range overlaps `key`'s replayed range [last anchor, last redo]."""
    records = log.records
    anchors = [r.lsn for r in records
               if isinstance(r, AnchorEntry) and r.key == key]
    start = anchors[-1] if anchors else -1
    touched = anchors[-1:] + [r.lsn for r in records if isinstance(r, RedoEntry)
                              and r.key == key and r.lsn > start]
    if not touched:
        return 0
    lo, hi = min(touched), max(touched)
    return sum(len(records[lsn].line().encode())
               for s in records
               if isinstance(s, TxnSeal) and s.first_lsn >= 0
               and s.first_lsn <= hi and s.last_lsn >= lo
               for lsn in range(s.first_lsn, s.last_lsn + 1))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 4),
    txns=st.lists(st.lists(st.tuples(st.sampled_from(TEXT_KEYS),
                                     st.integers(-10**12, 10**12)), max_size=3),
                  min_size=1, max_size=12),
)
def test_kept_lines_match_rendered_records(n, txns):
    """The serialized log is the header and each record's rendered line;
    a reload writes the same text back; and a recovery on a freshly loaded
    log scans the UTF-8 bytes of the lines its seals cover, non-ASCII keys
    included."""
    log = make_log(n=n)
    for txn_id, writes in enumerate(txns, start=1):
        append_and_seal(log, txn_id, writes)
    text = log.to_text()
    prefix = f"FRPLOG|1|sha256|{n}"
    assert text == "\n".join([f"{prefix}|{log.enclave.sign(prefix)}"]
                             + [rec.line() for rec in log.records]) + "\n"
    loaded = RedoLog.from_text(text, log.enclave)
    assert loaded.to_text() == text and loaded.records == log.records
    for key in TEXT_KEYS + ("ghost",):
        cold = RedoLog.from_text(text, log.enclave)
        cold.recover(key)
        assert cold.last_bytes_scanned == overlap_line_bytes(log, key)


def ref_range_digest(lines, txn_id, first, last):
    """`RedoLog._range_digest` in its two-call form, and the bytes it counted
    as hashed: the UTF-8 bytes of the lines, without the newlines."""
    h = hashlib.sha256(f"seal:{txn_id}".encode())
    if first < 0:
        return h.hexdigest(), 0
    data = ("\n" + "\n".join(lines[first:last + 1])).encode()
    h.update(data)
    return h.hexdigest(), len(data) - (last + 1 - first)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 4),
    txns=st.lists(st.lists(st.tuples(st.sampled_from(TEXT_KEYS),
                                     st.integers(-10**12, 10**12)), max_size=3),
                  min_size=1, max_size=12),
    ranges=st.lists(st.tuples(st.integers(0, 2**40), st.integers(0, 80),
                              st.integers(0, 8)), max_size=8),
)
def test_range_digest_matches_two_call_digest(n, txns, ranges):
    """The one-call seal digest equals the constructor-plus-update digest,
    and counts the same hashed bytes, on every seal of a generated log, its
    empty ranges and non-ASCII keys included, and on arbitrary ranges."""
    log = make_log(n=n)
    for txn_id, writes in enumerate(txns, start=1):
        append_and_seal(log, txn_id, writes)
    lines = [rec.line() for rec in log.records]
    cases = [(s.txn_id, s.first_lsn, s.last_lsn) for s in log.records
             if isinstance(s, TxnSeal)]
    cases += [(txn_id, -1, -1) for txn_id, _, _ in ranges]
    cases += [(txn_id, first % len(lines), min(first % len(lines) + width, len(lines) - 1))
              for txn_id, first, width in ranges]
    for txn_id, first, last in cases:
        hashed, scanned = log._seals_hashed, log._bytes_hashed
        digest, size = ref_range_digest(lines, txn_id, first, last)
        assert log._range_digest(txn_id, first, last) == digest
        assert (log._seals_hashed - hashed, log._bytes_hashed - scanned) == (1, size)


# -- differential oracle: the log against the calls that wrote it --------------

CALL_KEYS = ("a", "b", "é", "键🙂")
# when each txn is sealed: right after its appends, after every txn's
# appends, on the log and on its reload both, or never
SEAL_WHEN = ("now", "later", "after reload", "never")


def model_log(n, txns, enclave):
    """From the calls alone: the records a log holds after the appends and
    the "now" and "later" seals, the records after the "after reload" seals
    too, and each key's writes as (lsn, txn, value, anchor lsn or None)."""
    records, count, history, ranges = [], {}, {}, {}

    def seal(txn_id):
        first, last = ranges.get(txn_id, (-1, -1))
        h = hashlib.sha256(f"seal:{txn_id}".encode())
        if first >= 0:
            h.update(("\n" + "\n".join(r.line() for r in records[first:last + 1])).encode())
        digest = h.hexdigest()
        records.append(TxnSeal(len(records), txn_id, first, last, digest,
                               enclave.sign(digest)))

    for txn_id, (writes, when) in enumerate(txns, start=1):
        start = len(records)
        for key, value in writes:
            count[key] = count.get(key, 0) + 1
            lsn = len(records)
            records.append(RedoEntry(lsn, txn_id, key, value, count[key]))
            anchor = None
            if count[key] % n == 0:
                anchor = lsn + 1
                records.append(AnchorEntry(anchor, key, value, count[key], count[key]))
            history.setdefault(key, []).append((lsn, txn_id, value, anchor))
        if len(records) > start:
            ranges[txn_id] = (start, len(records) - 1)
        if when == "now":
            seal(txn_id)
    phases = []
    for phase in ("later", "after reload"):
        for txn_id, (_, when) in enumerate(txns, start=1):
            if when == phase:
                seal(txn_id)
        phases.append(list(records))
    return phases[0], phases[1], history


def shadow_recover(n, history, sealed, key):
    """What `recover(key)` returns, with the replay count, or raises, after
    the txns in `sealed` were sealed: replay from the last anchor, which
    rides in the range of its write's txn, and refuse if an entry replayed
    lies in an unsealed txn."""
    writes = history.get(key, [])
    anchored = len(writes) - len(writes) % n    # the last anchor's version
    touched = [(writes[anchored - 1][3], writes[anchored - 1][1])] if anchored else []
    touched += [(lsn, txn_id) for lsn, txn_id, _, _ in writes[anchored:]]
    missing = [lsn for lsn, txn_id in touched if txn_id not in sealed]
    if missing:
        raise RecoveryRefused(f"entries {missing} not covered by any valid seal")
    if not writes:
        return Record.initial(key), 0
    value, version = writes[-1][2], len(writes)
    return Record(key, value, version, compute_checksum(key, value, version)), \
        len(writes) - anchored


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 4),
    txns=st.lists(st.tuples(st.lists(st.tuples(st.sampled_from(CALL_KEYS),
                                               st.integers(-10**6, 10**6)),
                                     max_size=3),
                            st.sampled_from(SEAL_WHEN)),
                  max_size=10),
)
def test_log_matches_model_of_its_calls(n, txns):
    """A log's records, its reload's records and every recovery equal what
    the append and seal calls alone determine: on the log that made the
    calls, and on its reload after the txns left unsealed are sealed
    there. Txns may be empty, stay unsealed, or write a key twice."""
    enclave = EnclaveSim(seed=5)
    written, final, history = model_log(n, txns, enclave)
    log = RedoLog(enclave, anchor_every=n)
    for txn_id, (writes, when) in enumerate(txns, start=1):
        log.register_txn(txn_id)
        for key, value in writes:
            log.append_redo(txn_id, key, value)
        if when == "now":
            log.seal_txn(txn_id)
    for txn_id, (_, when) in enumerate(txns, start=1):
        if when == "later":
            log.seal_txn(txn_id)
    assert list(log.records) == written
    loaded = RedoLog.from_text(log.to_text(), enclave)
    assert loaded.records == log.records

    sealed = {txn_id for txn_id, (_, when) in enumerate(txns, start=1)
              if when != "never"}
    for target in (log, loaded):
        for txn_id, (_, when) in enumerate(txns, start=1):
            if when == "after reload":
                target.register_txn(txn_id)
                target.seal_txn(txn_id)
        assert list(target.records) == final
        assert RedoLog.from_text(target.to_text(), enclave).records == target.records
        for key in CALL_KEYS + ("ghost",):
            assert outcome(lambda: (target.recover(key), target.last_replay_count)) \
                == outcome(lambda: shadow_recover(n, history, sealed, key))
