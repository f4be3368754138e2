#!/usr/bin/env python3
"""Corrupt stored records behind the engine's back, then repair from the log.

Every committed write leaves one sealed redo entry; every 4th write to a key
also leaves an anchor carrying the full record, so repair replays at most a
handful of deltas. Three styles of tampering are injected: a value edit, a
rollback to a stale-but-self-consistent state, and a checksum flip.
"""

from frpkernel.engine import CCAction, Engine, WorkloadSpec, compute_checksum
from frpkernel.recovery import EnclaveSim, RedoLog

enclave = EnclaveSim(seed=7)
log = RedoLog(enclave, anchor_every=4)
engine = Engine(log=log, max_workers=4)

spec = WorkloadSpec(key_space=5, zipf_theta=0.8, write_frac=0.7,
                    txn_len=3, arrival_rate=3.0, seed=11)
for window in range(3):
    engine.run_window(WorkloadSpec(**{**spec.__dict__, "seed": 11 + window}),
                      lambda kind, heat: CCAction.LOCK_IMMEDIATE, 30)

# each record is its log line, tagged R (redo), A (anchor) or S (seal)
tags = [line[0] for line in log.records]
print(f"history: {tags.count('R')} redo entries, {tags.count('A')} anchors, "
      f"{tags.count('S')} txn seals")
print("log tail:")
for line in log.records[-4:]:
    print("   ", line[:100])

victims = sorted(engine.store.records)[:3]
styles = ["value edit", "version rollback", "checksum flip"]
for key, style in zip(victims, styles):
    record = engine.store.read(key)
    if style == "value edit":
        engine.store.tamper(key, value=record.value + 999)
    elif style == "version rollback":
        old_version = record.version - 1
        engine.store.tamper(key, value=0, version=old_version,
                            checksum=compute_checksum(key, 0, old_version))
    else:
        flipped = ("0" if record.checksum[0] != "0" else "1") + record.checksum[1:]
        engine.store.tamper(key, checksum=flipped)

    stored = engine.store.read(key)
    detected = log.detect_tamper(key, stored)
    restored = log.recover(key)
    engine.store.records[key] = restored
    print(f"\n{key} <- {style}")
    print(f"   detected: {detected}")
    print(f"   replayed {log.last_replay_count} redo entries past the last anchor"
          f" (bound {log.anchor_every})")
    print(f"   restored value={restored.value} version={restored.version}, "
          f"clean={not log.detect_tamper(key, engine.store.read(key))}")

print(f"\nwhole log verifies: {log.verify_log()}")
text = log.to_text()
flipped = bytearray(text.encode())
flipped[len(flipped) // 2] ^= 1
try:
    tampered_ok = RedoLog.from_text(bytes(flipped).decode(), enclave).verify_log()
except Exception as exc:
    tampered_ok = f"rejected at load ({type(exc).__name__})"
print(f"after flipping one bit mid-log: {tampered_ok}")
