"""The one pin store, and the one command that re-records it.

A pin is a key and the value a run, schedule or artefact must reproduce
exactly.  Each family keeps its pins in ``tests/golden/<family>.json``, one
``"key": value`` line per key, keys sorted, values as sorted JSON (a bulky
artefact is pinned by its :func:`digest`).  Tests read a pin with
:func:`check` and a family's key set with :func:`check_keys`; both name the
changed, missing or orphan key with its old and new value.  After an
*intended* behaviour change, re-record with::

    PYTHONPATH=src python -m tests.golden

which recomputes every family through its test module's ``golden_values()``,
rewrites the stores and prints a per-key diff.  Pins compare as sorted JSON
text, so a pin that only changes type (``258`` to ``258.0``, ``false`` to
``0``) fails too.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from pathlib import Path
from typing import Any

STORE = Path(__file__).with_name("golden")
HINT = "re-record an intended change with: PYTHONPATH=src python -m tests.golden"
#: family -> the test module whose ``golden_values()`` recomputes it.
MODULES = {
    "bench_pins": "tests.test_bench_pins",
    "builder_digests": "tests.test_network_topology",
    "patch_pins": "tests.test_patch_pins",
    "pinned_runs": "tests.test_pinned_runs",
    "schedule_digests": "tests.test_schedule_digests",
}


def _json(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def canonical(value: Any) -> Any:
    """``value`` as the store holds it (tuples become lists, dict keys sorted)."""
    return json.loads(_json(value))


def digest(*chunks: bytes | str) -> str:
    """sha256 of the chunks in order, ``str`` chunks UTF-8 encoded."""
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk.encode() if isinstance(chunk, str) else chunk)
    return sha.hexdigest()


def load(family: str, store: Path = STORE) -> dict:
    return json.loads((store / f"{family}.json").read_text())


def check(family: str, key: str, value: Any, store: Path = STORE) -> None:
    """Fail unless ``value`` is the stored pin ``family[key]``."""
    __tracebackhide__ = True
    pins, new = load(family, store), _json(value)
    if key not in pins:
        raise AssertionError(f"{family}[{key!r}] is missing\n  new: {new}\n{HINT}")
    old = _json(pins[key])
    if new != old:
        raise AssertionError(f"{family}[{key!r}] changed\n  old: {old}\n  new: {new}\n{HINT}")


def check_keys(family: str, keys, store: Path = STORE) -> None:
    """Fail unless the store of ``family`` holds exactly ``keys``."""
    __tracebackhide__ = True
    pins, keys = load(family, store), set(keys)
    problems = [f"  missing: {key!r}" for key in sorted(keys - set(pins))]
    problems += [f"  orphan: {key!r} = {_json(pins[key])}" for key in sorted(set(pins) - keys)]
    if problems:
        raise AssertionError("\n".join([f"{family} keys differ from its tests:", *problems, HINT]))


def record(family: str, values: dict, store: Path = STORE) -> list[str]:
    """Rewrite the store of ``family`` with ``values``; return the per-key diff."""
    path = store / f"{family}.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    new = {key: canonical(value) for key, value in values.items()}
    diff = [f"- {family}[{key!r}]: {_json(old[key])}" for key in sorted(old.keys() - new.keys())]
    diff += [f"+ {family}[{key!r}]: {_json(new[key])}" for key in sorted(new.keys() - old.keys())]
    diff += [
        f"~ {family}[{key!r}]\n    old: {_json(old[key])}\n    new: {_json(new[key])}"
        for key in sorted(old.keys() & new.keys())
        if _json(old[key]) != _json(new[key])
    ]
    lines = [f"{json.dumps(key)}: {_json(new[key])}" for key in sorted(new)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return diff + [f"{family}: {len(new)} pins, {len(diff)} changed -> {path}"]


def _module_values(family: str) -> dict:
    return importlib.import_module(MODULES[family]).golden_values()


def main(families: dict | None = None, store: Path = STORE) -> None:
    """Re-record every family; ``families`` maps each to its values (a test seam)."""
    for family in sorted(families or MODULES):
        values = families[family]() if families else _module_values(family)
        print("\n".join(record(family, values, store)), flush=True)


if __name__ == "__main__":
    main()
