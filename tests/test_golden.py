"""The pin store helper and its re-recording command, on a temporary store."""

from __future__ import annotations

import json

import pytest

from tests import golden


@pytest.fixture
def store(tmp_path):
    golden.record("runs", {"b": {"rounds": 3, "ok": True}, "a": (1, 2.5)}, tmp_path)
    return tmp_path


def test_a_matching_value_passes(store):
    golden.check("runs", "a", (1, 2.5), store)
    golden.check("runs", "b", {"ok": True, "rounds": 3}, store)
    golden.check_keys("runs", ["a", "b"], store)


def test_a_changed_value_fails_naming_the_key_and_both_values(store):
    with pytest.raises(AssertionError, match=r"runs\['b'\] changed") as failure:
        golden.check("runs", "b", {"rounds": 4, "ok": True}, store)
    assert '"rounds": 3' in str(failure.value) and '"rounds": 4' in str(failure.value)


def test_a_missing_key_fails_naming_the_key(store):
    with pytest.raises(AssertionError, match=r"runs\['c'\] is missing"):
        golden.check("runs", "c", 7, store)
    with pytest.raises(AssertionError, match="missing: 'c'"):
        golden.check_keys("runs", ["a", "b", "c"], store)


def test_an_orphan_key_fails_naming_the_key_and_its_value(store):
    with pytest.raises(AssertionError, match=r"orphan: 'b' = \{\"ok\": true, \"rounds\": 3\}"):
        golden.check_keys("runs", ["a"], store)


def test_the_store_is_sorted_stable_json(store):
    text = (store / "runs.json").read_text()
    assert text == '{\n"a": [1, 2.5],\n"b": {"ok": true, "rounds": 3}\n}\n'
    assert golden.load("runs", store) == json.loads(text)
    golden.record("runs", {"a": [1, 2.5], "b": {"ok": True, "rounds": 3}}, store)
    assert (store / "runs.json").read_text() == text


def test_a_value_of_another_type_fails(store):
    golden.record("types", {"rounds": 258, "ok": False}, store)
    with pytest.raises(AssertionError, match=r"types\['rounds'\] changed"):
        golden.check("types", "rounds", 258.0, store)
    with pytest.raises(AssertionError, match=r"types\['ok'\] changed"):
        golden.check("types", "ok", 0, store)


def test_the_command_rewrites_every_family_and_prints_a_per_key_diff(store, capsys):
    golden.main({"runs": lambda: {"a": (1, 2.5), "c": 0}, "other": lambda: {"x": 1}}, store)
    assert golden.load("runs", store) == {"a": [1, 2.5], "c": 0}
    assert golden.load("other", store) == {"x": 1}
    printed = capsys.readouterr().out
    assert "- runs['b']" in printed and "+ runs['c']: 0" in printed and "runs['a']" not in printed


def test_every_family_has_a_store_and_every_store_a_family():
    assert sorted(golden.MODULES) == sorted(p.stem for p in golden.STORE.glob("*.json"))


@pytest.mark.parametrize("family", sorted(golden.MODULES))
def test_every_store_is_laid_out_as_the_command_writes_it(family, tmp_path):
    golden.record(family, golden.load(family), tmp_path)
    assert (tmp_path / f"{family}.json").read_bytes() == (golden.STORE / f"{family}.json").read_bytes()
