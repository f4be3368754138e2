import hashlib
import hmac
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frpkernel.engine import CCAction, Engine, Record, WorkloadSpec, compute_checksum
from frpkernel.recovery import (
    EnclaveSim,
    LogCorrupt,
    LogError,
    RecoveryRefused,
    RedoLog,
    UnknownTxn,
)
from log_model import KINDS, LogModel, Redo


def make_log(n=4, seed=99):
    return RedoLog(EnclaveSim(seed=seed), anchor_every=n)


def make_pair(n=4, seed=99):
    """An empty log and its model, under one enclave."""
    log = make_log(n, seed)
    return log, LogModel(log.enclave, n)


def append_and_seal(log, txn_id, writes):
    log.register_txn(txn_id)
    for key, value in writes:
        log.append_redo(txn_id, key, value)
    log.seal_txn(txn_id)


def tagged(log, tag):
    """The fields, tag first, of each of `log`'s lines tagged `tag`."""
    return [line.split("|") for line in log.records if line.startswith(tag + "|")]


def reload(log, lines=None):
    """`log` as `from_text` loads it from the record lines `lines`, by
    default its own: where a tamperer's edit enters the program."""
    lines = log.records if lines is None else lines
    header = log.to_text().split("\n", 1)[0]
    return RedoLog.from_text("\n".join([header, *lines]) + "\n", log.enclave)


def edited(log, lsn, edits):
    """`log` reloaded with the fields of its line at `lsn` set as `edits`
    ({field index, tag at 0: value}) gives."""
    lines = list(log.records)
    fields = lines[lsn].split("|")
    for i, value in edits.items():
        fields[i] = str(value)
    lines[lsn] = "|".join(fields)
    return reload(log, lines)


def outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:    # the same failure, of any kind, must recur
        return ("error", type(exc), str(exc))


def both(log, model, method, *args):
    """`method(*args)` on the log and on the model, which must return the
    same or raise the same."""
    got = outcome(lambda: getattr(log, method)(*args))
    assert got == outcome(lambda: getattr(model, method)(*args))


def load_both(text, enclave):
    """`text` loaded by `from_text` and by the model, or None when both
    refuse it with the same LogCorrupt message."""
    expected = outcome(lambda: LogModel.from_text(text, enclave))
    got = outcome(lambda: RedoLog.from_text(text, enclave))
    if expected[0] == "error":
        assert got == expected and expected[1] is LogCorrupt
        return None
    assert got[0] == "ok", got
    return got[1], expected[1]


def observe(log, keys, versions=True):
    """What a caller reads from `log`, a RedoLog or a LogModel, in one
    order: its records and text; per key a recovery with its four counters
    (cold on a fresh log), the expected state, the replay plan and, with
    `versions`, the value at -1, 0 and each mod index in the key's redo
    lines and next to one; then `verify_log()`."""
    seen, redos = [log.records, log.to_text()], tagged(log, "R")
    for key in keys:
        seen += [outcome(lambda: log.recover(key)),
                 (log.last_replay_count, log.last_seals_verified,
                  log.last_seals_hashed, log.last_bytes_scanned),
                 log.expected_state(key), log.replay_plan(key)]
        if versions:
            near = {int(f[5]) + d for f in redos if f[3] == key for d in (-1, 0, 1)}
            seen.append([(v, log.value_at(key, v)) for v in sorted(near | {-1, 0})])
    return seen + [outcome(log.verify_log)]


def test_anchor_cadence_every_fourth_modification():
    log = make_log(n=4)
    for i in range(1, 11):
        append_and_seal(log, i, [("x", 100 + i)])
    anchors = tagged(log, "A")
    assert [a[5] for a in anchors] == ["4", "8"]
    # the n-th write's anchor carries the post-write full content
    assert anchors[0][3:5] == ["104", "4"]


def test_anchor_every_write_when_n_is_one():
    log = make_log(n=1)
    for i in range(1, 6):
        append_and_seal(log, i, [("x", i)])
    assert len(tagged(log, "R")) == len(tagged(log, "A")) == 5


def test_seal_empty_txn_valid():
    log = make_log()
    log.register_txn(42)
    lsn = log.seal_txn(42)
    assert log.records[lsn].split("|")[3:5] == ["-1", "-1"]
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
    # even empty-range seals differ across txns
    log.register_txn(10)
    log.register_txn(11)
    log.seal_txn(10)
    log.seal_txn(11)
    digests = [seal[5] for seal in tagged(log, "S")]
    assert len(set(digests)) == len(digests) == 4


def test_tampered_entry_fails_verification():
    log = make_log()
    append_and_seal(log, 1, [("x", 5), ("y", 6)])
    assert log.verify_log()
    assert not edited(log, 0, {4: 999}).verify_log()


def test_deleted_entry_leaves_lsn_gap():
    log = make_log()
    append_and_seal(log, 1, [("x", 5), ("y", 6)])
    with pytest.raises(LogCorrupt, match="lsn gap"):
        reload(log, log.records[1:])


def test_flipped_signature_detected():
    log = make_log()
    append_and_seal(log, 1, [("x", 5)])
    signature = log.records[1].split("|")[6]
    bad = "0" if signature[0] != "0" else "1"
    assert not edited(log, 1, {6: bad + signature[1:]}).verify_log()


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
    assert [seal[1] for seal in tagged(log, "S") if seal[4] == "-1"] == ["3"]
    assert missed_flips(log) == []


def test_empty_seal_with_rewritten_range_fails():
    log = make_log()
    append_and_seal(log, 1, [("x", 5)])
    append_and_seal(log, 2, [])
    for first, last in ((-7, 1), (-1, 0), (-3, -1), (-1, -2)):
        assert not edited(log, 2, {3: first, 4: last}).verify_log()
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

    shadow = LogModel.from_text(eng_log.to_text(), eng_log.enclave)
    for key in sorted({redo.key for redo in shadow.of(Redo)}):
        value, version = shadow.expected_state(key)
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
    with pytest.raises(RecoveryRefused):
        edited(log, 2, {4: 999}).recover("x")


def test_refused_recover_reports_its_own_counters():
    log = make_log(n=4)
    for i in range(1, 4):
        append_and_seal(log, i, [("x", i), ("y", i)])
    log.recover("x")
    assert (log.last_replay_count, log.last_seals_verified,
            log.last_seals_hashed) == (3, 3, 3)
    tampered = edited(log, log.replay_plan("y")[1][-1], {4: 99999})
    with pytest.raises(RecoveryRefused):
        tampered.recover("y")
    # the reloaded log knew no verdict, so all three seals over y's range
    # were hashed, the tampered last one included; none was replayed or passed
    assert (tampered.last_replay_count, tampered.last_seals_verified,
            tampered.last_seals_hashed) == (0, 0, 3)
    assert tampered.last_bytes_scanned == sum(len("|".join(redo).encode())
                                              for redo in tagged(tampered, "R"))
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
        log.records[0] = records[0].replace("|5|", "|999|")
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
    tampered = edited(log, log.replay_plan("x")[1][-1], {4: 999})
    assert not tampered.verify_log()
    with pytest.raises(RecoveryRefused):
        tampered.recover("x")
    assert log.verify_log()
    assert log.recover("x").value == 6
    restored = reload(tampered, log.records)
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
    tampered = reload(log, [*log.records, f"R|{len(log.records)}|9|x|666|2"])
    assert tampered.expected_state("x") == (666, 2)
    with pytest.raises(RecoveryRefused, match="not covered"):
        tampered.recover("x")


def test_save_load_roundtrip():
    log = make_log(n=2)
    append_and_seal(log, 1, [("x", 5), ("y", 6), ("x", 7)])
    log.register_txn(2)
    log.seal_txn(2)

    # a record is its line: `records` is the serialized log's record lines
    assert log.records == tuple(log.to_text().split("\n")[1:-1])
    loaded = RedoLog.from_text(log.to_text(), log.enclave)
    assert loaded.verify_log()
    assert loaded.records == log.records
    assert loaded.anchor_every == 2
    assert (loaded.recover("x").value, loaded.recover("x").version) == (7, 2)
    # appends keep working after a reload
    append_and_seal(loaded, 3, [("x", 8)])
    assert loaded.verify_log()
    assert loaded.records == tuple(loaded.to_text().split("\n")[1:-1])


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
        assert len(tagged(log, "R")) == writes
        assert len(tagged(log, "A")) == writes // n


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 4, 8]),
    writes=st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 999)),
                    min_size=1, max_size=40),
)
def test_replay_bound_holds_for_all_histories(n, writes):
    log, model = make_pair(n)
    for i, (key, value) in enumerate(writes):
        for target in (log, model):
            append_and_seal(target, i + 1, [(key, value)])
    for key in {k for k, _ in writes}:
        _, redo_lsns = log.replay_plan(key)
        assert len(redo_lsns) <= n
        assert log.recover(key) == model.recover(key)


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


# -- the log beside its model -------------------------------------------------

ORACLE_KEYS = "abcd"
KEYS = (*ORACLE_KEYS, "ghost")
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


def interleaved_pair(n, events, seal_rest):
    """A log and its model, both given the calls `events` stands for: txns
    are registered, appended and sealed in its order, a seal may trail
    later txns' entries, a txn may write nothing, and unless `seal_rest`
    the txns never sealed stay unsealed. Also returns the last txn id."""
    log, model = make_pair(n)
    pending, txn_id = [], 0
    for kind, arg in events:
        if kind == "txn":
            txn_id += 1
            both(log, model, "register_txn", txn_id)
            for key, value in arg:
                both(log, model, "append_redo", txn_id, key, value)
            pending.append(txn_id)
        elif pending:
            both(log, model, "seal_txn", pending.pop(arg % len(pending)))
    for tid in pending if seal_rest else ():
        both(log, model, "seal_txn", tid)
    return log, model, txn_id


def with_header(log, lines):
    return "\n".join([log.to_text().split("\n", 1)[0], *lines]) + "\n"


def edit_records(records, kind, at, other):
    """Apply one edit of `kind`, a MUTATIONS kind but "append", to the
    non-empty list `records` of a log's lines as field lists, tag first.
    False if there was nothing to edit."""
    i, j = at % len(records), other % len(records)
    fields = records[i]
    if kind == "value":     # a redo's or an anchor's value, or a seal's digest
        if fields[0] == "S":
            fields[5] = fields[5][::-1]
        else:
            at_value = 4 if fields[0] == "R" else 3
            fields[at_value] = str(int(fields[at_value]) + 1)
    elif kind == "range":
        seals = [f for f in records if f[0] == "S"]
        if not seals:
            return False
        seal = seals[at % len(seals)]
        first, last = int(seal[3]), int(seal[4])
        ranges = [(first - 1, last), (first, last + 1), (-1, -1),
                  (0, len(records) - 1), (last, first), (j, j)]
        seal[3:5] = map(str, ranges[other % len(ranges)])
    elif kind == "pop":
        records.pop(i)
    elif kind == "swap":    # renumbered, so the lsns stay gap-free
        records[i], records[j] = ([records[j][0], str(i), *records[j][2:]],
                                  [fields[0], str(j), *fields[2:]])
    elif kind == "duplicate":
        records[i] = [records[j][0], str(i), *records[j][2:]]
    elif kind == "lsn":
        fields[1] = str(int(fields[1]) + 1 + other % 3)
    return True


def mutate(log, model, kind, at, other, fresh_txn):
    """The log and its model after one mutation: a txn appended to both, or
    an edit of the log's lines loaded by both. An edit that does not load
    leaves them as they were."""
    if kind == "append":
        for target in (log, model):
            append_and_seal(target, fresh_txn, [(ORACLE_KEYS[at % 4], other % 100)])
        return log, model
    records = [line.split("|") for line in log.records]
    if not records or not edit_records(records, kind, at, other):
        return log, model
    return load_both(with_header(log, map("|".join, records)), log.enclave) or (log, model)


# the first redo of "a" copied over the last seal, then a write of "a": its
# new redo is a second one at version 2, with another value
@example(n=4, events=[("txn", [("a", 1)]), ("txn", [("a", 2)])], seal_rest=True,
         rounds=[[("duplicate", 3, 0), ("append", 0, 5)]])
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
    """Recovery, `verify_log`, `expected_state`, `replay_plan` and
    `value_at` at each written version agree with the model's scans of the whole
    log, on interleaved, partly unsealed logs whose serialized lines are
    tampered between rounds: the same records and values, replay counts,
    seals verified and hashed, and bytes scanned, or the same refusal."""
    log, model, txn_id = interleaved_pair(n, events, seal_rest)
    for mutations in rounds + [[]]:
        assert observe(log, KEYS) == observe(model, KEYS)
        for kind, at, other in mutations:
            txn_id += 1
            log, model = mutate(log, model, kind, at, other, txn_id)


@settings(max_examples=50, deadline=None)
@given(n=st.sampled_from([1, 2, 4]), events=EVENTS, seal_rest=st.booleans())
def test_every_record_boundary_cut_matches_model(n, events, seal_rest):
    """A generated log's text cut after each of its records loads, verifies
    and recovers every key as the model says. Today every cut loads, so a
    log cut after a seal passes as whole (ROADMAP item 4, whose fix makes a
    cut behind the last seal LogCorrupt, changes the model's load)."""
    log, _, _ = interleaved_pair(n, events, seal_rest)
    lines = log.records
    for cut in range(len(lines) + 1):
        loaded = load_both(with_header(log, lines[:cut]), log.enclave)
        if loaded:
            assert observe(loaded[0], KEYS, versions=False) == \
                observe(loaded[1], KEYS, versions=False)


def reports(log):
    """Each key's recovery counters: seals verified and hashed, bytes scanned."""
    for key in KEYS:
        log.recover(key)
        yield log.last_seals_verified, log.last_seals_hashed, log.last_bytes_scanned


def recovery_pass(log, verify_first):
    """The `_seal_ok` calls per seal lsn over an optional `verify_log()`
    and a recovery of every key, and each recovery's counters."""
    calls = Counter()
    seal_ok = log._seal_ok

    def counting(seal):     # a seal row, its lsn first
        calls[seal[0]] += 1
        return seal_ok(seal)

    log._seal_ok = counting
    if verify_first:
        assert log.verify_log()
    return calls, list(reports(log))


@settings(max_examples=100, deadline=None)
@given(n=st.sampled_from([1, 2, 4]), events=EVENTS)
def test_each_seal_verified_once(n, events):
    """verify_log() then a recovery of every key checks each seal exactly
    once; recoveries alone check each seal at most once. Both report the
    same seals verified, and after verify_log() no recovery hashes; alone,
    they hash what the model hashes. Appends after a verify_log() re-hash
    no earlier seal, and each new seal once."""
    log, _, txn_id = interleaved_pair(n, events, seal_rest=True)
    warm_calls, warm = recovery_pass(log, verify_first=True)
    seals = [lsn for lsn, line in enumerate(log.records) if line.startswith("S|")]
    assert warm_calls == Counter(seals)
    assert all(hashed == scanned == 0 for _, hashed, scanned in warm)

    cold_log, model, _ = interleaved_pair(n, events, seal_rest=True)
    cold_calls, cold = recovery_pass(cold_log, verify_first=False)
    assert set(cold_calls.values()) <= {1}
    assert [r[0] for r in cold] == [r[0] for r in warm]
    # every seal is intact, so each check recomputes its digest
    assert sum(r[1] for r in cold) == len(cold_calls)
    assert cold == list(reports(model))

    for writes in ([("a", 1), ("b", 2)], [], [("a", 3)]):
        txn_id += 1
        append_and_seal(log, txn_id, writes)
        grown_calls, grown = recovery_pass(log, verify_first=True)
        assert grown_calls == Counter([len(log.records) - 1])
        assert all(hashed == scanned == 0 for _, hashed, scanned in grown)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 4),
    txns=st.lists(st.tuples(st.lists(st.sampled_from(ORACLE_KEYS), max_size=4),
                            st.booleans()),
                  min_size=1, max_size=12),
)
def test_index_maps_match_plain_scan(n, txns):
    """After every append and seal, and after a reload, the log's records,
    expected states and replay plans equal the model's plain scans: each
    append returns the model's lsn, and each seal covers exactly the lsns
    its txn's appends added, anchors included, or -1/-1 for none."""
    log, model = make_pair(n)
    unsealed = []

    def check(target, reference):
        assert target.records == reference.records
        assert [(target.expected_state(k), target.replay_plan(k)) for k in KEYS] == \
            [(reference.expected_state(k), reference.replay_plan(k)) for k in KEYS]

    for txn_id, (keys, seal_now) in enumerate(txns, start=1):
        both(log, model, "register_txn", txn_id)
        for i, key in enumerate(keys):
            both(log, model, "append_redo", txn_id, key, 10 * txn_id + i)
            check(log, model)
        unsealed.append(txn_id)
        if seal_now:
            both(log, model, "seal_txn", unsealed.pop())
            check(log, model)
    for txn_id in unsealed:     # seals may trail later txns' entries
        both(log, model, "seal_txn", txn_id)
        check(log, model)
    check(*load_both(log.to_text(), log.enclave))


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
    for form in KINDS[tag][1]:
        if form == "i":
            fields.append(str(draw(st.integers(-10**20, 10**20))))
        elif form == "k":
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
            fields[i] = text[:at] + draw(st.sampled_from(" _\t |\n-+")) + text[at:]
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


def splice(lines, where, own_lsn, raw, overlong):
    """`lines` with `raw` in place of the line at `where` (or after the
    last), perhaps given that lsn, and perhaps with a field of more digits
    than int() converts."""
    where %= len(lines) + 1
    parts = raw.split("|")
    if own_lsn and len(parts) > 1:
        parts[1] = str(where)
    if overlong is not None:
        parts[overlong % len(parts)] = "9" * 4301
    return [*lines[:where], "|".join(parts), *lines[where + 1:]]


# a line with both an lsn gap and an overlong field: the field is reported
@example(raw="R|7|1|x|5|1", own_lsn=False, overlong=4)
@settings(max_examples=600, deadline=None)
@given(raw=st.one_of(edited_record_lines(), st.text(max_size=30)),
       own_lsn=st.booleans(), overlong=st.none() | st.integers(0, 6))
def test_loader_accepts_what_parse_and_render_accepted(raw, own_lsn, overlong):
    """`from_text` loads a one-record log exactly when the model's parse by
    split and check by rendering back accepts its line, and then reads the
    same from it; it refuses every other line with the model's message."""
    log = make_log()
    loaded = load_both(with_header(log, splice([], 0, own_lsn, raw, overlong)), log.enclave)
    if loaded:
        keys = {f[3] for f in tagged(loaded[0], "R")} | {f[2] for f in tagged(loaded[0], "A")}
        assert observe(loaded[0], keys, versions=False) == \
            observe(loaded[1], keys, versions=False)


# the same line spliced into a log
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
def test_loader_matches_model_on_edited_logs(n, events, seal_rest, edits, spliced):
    """`from_text` loads what the model loads, and both read the same from
    it, or both fail with the same message, on interleaved logs after every
    kind of record edit and with an edited line spliced in at a drawn lsn."""
    log, _, txn_id = interleaved_pair(n, events, seal_rest)
    records = [line.split("|") for line in log.records]
    for kind, at, other in edits:
        if kind == "append":
            txn_id += 1
            append_and_seal(log, txn_id, [(ORACLE_KEYS[at % 4], other % 100)])
            records = [line.split("|") for line in log.records]
        elif records:
            edit_records(records, kind, at, other)
    lines = ["|".join(fields) for fields in records]
    if spliced is not None:
        lines = splice(lines, *spliced)
    loaded = load_both(with_header(log, lines), log.enclave)
    if loaded:
        assert observe(loaded[0], KEYS, versions=False) == \
            observe(loaded[1], KEYS, versions=False)


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


# -- the log against the calls that wrote it ------------------------------------

CALL_KEYS = ("a", "b", "é", "键🙂")
TEXT_KEYS = ("a", "é", "键", "k🙂", "x y", "b\r")
# when each txn is sealed: right after its appends, after every txn's
# appends, on the log and on its reload both, or never
SEAL_WHEN = ("now", "later", "after reload", "never")


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 4),
    txns=st.lists(st.lists(st.tuples(st.sampled_from(TEXT_KEYS),
                                     st.integers(-10**12, 10**12)), max_size=3),
                  min_size=1, max_size=12),
)
def test_kept_lines_match_rendered_records(n, txns):
    """The serialized log is the model's header and rendered records; a
    reload writes the same text back; and a recovery on a freshly loaded
    log scans the UTF-8 bytes the model hashes, non-ASCII keys included."""
    log, model = make_pair(n)
    for txn_id, writes in enumerate(txns, start=1):
        for target in (log, model):
            append_and_seal(target, txn_id, writes)
    text = log.to_text()
    assert text == model.to_text()
    assert RedoLog.from_text(text, log.enclave).to_text() == text
    for key in TEXT_KEYS + ("ghost",):
        cold, cold_model = load_both(text, log.enclave)
        assert observe(cold, [key], versions=False) == observe(cold_model, [key], versions=False)


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
    """A log, its reload and every recovery agree with the model given the
    same append and seal calls: on the log that made the calls, and on its
    reload after the txns left unsealed are sealed there. Txns may be
    empty, stay unsealed, or write a key twice."""
    log, model = make_pair(n, seed=5)
    for txn_id, (writes, when) in enumerate(txns, start=1):
        both(log, model, "register_txn", txn_id)
        for key, value in writes:
            both(log, model, "append_redo", txn_id, key, value)
        if when == "now":
            both(log, model, "seal_txn", txn_id)
    for txn_id, (_, when) in enumerate(txns, start=1):
        if when == "later":
            both(log, model, "seal_txn", txn_id)
    for target, reference in ((log, model), load_both(log.to_text(), log.enclave)):
        for txn_id, (_, when) in enumerate(txns, start=1):
            if when == "after reload":
                both(target, reference, "register_txn", txn_id)
                both(target, reference, "seal_txn", txn_id)
        assert observe(target, CALL_KEYS + ("ghost",)) == \
            observe(reference, CALL_KEYS + ("ghost",))
        assert RedoLog.from_text(target.to_text(), log.enclave).records == target.records
