"""Generated-input oracle for scenario configs.

Each example takes the defaults of one scenario or a shipped config, mutates
it at one or two random paths (nested ones included) and runs the CLI
in-process. `--validate-only` must return 0 or 2 with no exception escaping
`main`, and the same with and without a `--seed` flag; a config it accepts
must then run with exit 0.
"""

import contextlib
import copy
import io
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from frpkernel.harness.cli import main
from frpkernel.harness.config import BLOCK_OF, DEFAULTS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

BASES = [{"scenario": name, block: DEFAULTS[block]} for name, block in BLOCK_OF.items()]
BASES += [yaml.safe_load(path.read_text()) for path in sorted(CONFIG_DIR.glob("*.yaml"))]

# stand for paths inside the example's directory: one that does not exist and
# an empty file
MISSING_FILE, EMPTY_FILE = object(), object()

# type swaps (a bool where a number is expected too), null, numbers out of or
# at the edge of a range, empty and junk containers, a missing or empty file;
# all small, so a run that validates stays well under a second
VALUES = [True, False, None, 0, 1, 2, -1, -3, 0.0, 0.5, 1.5, -0.5, 2.0,
          "", "x", [], {}, [True, 1], {"junk": 1}, MISSING_FILE, EMPTY_FILE]

# (which path, what to do there, the value to put)
MUTATIONS = st.tuples(st.integers(0, 10_000),
                      st.sampled_from(["set", "negate", "delete", "junk key"]),
                      st.sampled_from(range(len(VALUES))))


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _mutate(config, mutation, files: dict):
    index, action, value_index = mutation
    paths = list(_paths(config))
    path = paths[index % len(paths)]
    value = VALUES[value_index]
    value = files[value] if value in (MISSING_FILE, EMPTY_FILE) else copy.deepcopy(value)
    if not path:
        return {} if action == "delete" else value
    parent = config
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    target = parent[key]
    if action == "negate" and isinstance(target, (int, float)) \
            and not isinstance(target, bool):
        parent[key] = -target if target else -1
    elif action == "delete":
        del parent[key]
    elif action == "junk key" and isinstance(target, dict):
        target["junk"] = value
    else:
        parent[key] = value
    return config


def _cli(args):
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(args)
    return code, stderr.getvalue()


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(range(len(BASES))),
       mutations=st.lists(MUTATIONS, min_size=1, max_size=2),
       seed=st.sampled_from([[], ["--seed", "3"]]))
def test_validate_only_is_the_only_config_gate(base, mutations, seed):
    scenario = BASES[base]["scenario"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "empty.npz").write_bytes(b"")
        files = {MISSING_FILE: str(tmp / "missing.npz"), EMPTY_FILE: str(tmp / "empty.npz")}
        config = copy.deepcopy(BASES[base])
        for mutation in mutations:
            config = _mutate(config, mutation, files)
        path = tmp / "config.yaml"
        path.write_text(yaml.safe_dump(config))
        out = tmp / "out"

        code, err = _cli([scenario, "--config", str(path), "--validate-only",
                          "--out", str(out)] + seed)
        assert code in (0, 2), err
        # a valid --seed flag changes nothing about whether the config is valid
        unseeded, _ = _cli([scenario, "--config", str(path), "--validate-only",
                            "--out", str(out)])
        assert unseeded == code, err
        assert not out.exists()
        if code == 2:
            return
        code, err = _cli([scenario, "--config", str(path), "--out", str(out)] + seed)
        assert code == 0, err
