"""Self-tests for the repro.lint contract linter.

Every shipped rule gets at least one fixture proving it fires and one
proving the ``# repro: allow[...]`` suppression silences it (the
acceptance contract for the lint gate), plus engine-level coverage:
directive validation, unused allows, reporters, CLI exit codes, and the
standing requirement that the repository's own tree lints clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import DEFAULT_PATHS, run_lint
from repro.lint.__main__ import main as lint_main
from repro.lint.engine import categorize, lint_source
from repro.lint.rules import RULE_REGISTRY, all_rules
from repro.lint.suppress import ALLOW_RE, parse_suppressions

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_fixture(name: str, category: str = "src"):
    path = FIXTURES / name
    return lint_source(path, path.read_text(), category=category)


def line_of(name: str, needle: str, occurrence: int = 0) -> int:
    """1-based line number of the ``occurrence``-th line containing ``needle``."""
    hits = [
        i
        for i, text in enumerate((FIXTURES / name).read_text().splitlines(), 1)
        if needle in text
    ]
    return hits[occurrence]


def rule_lines(findings, rule: str) -> set[int]:
    return {f.line for f in findings if f.rule == rule}


# ----------------------------------------------------------------------
# rule catalogue sanity
# ----------------------------------------------------------------------


def test_rule_registry_shape():
    ids = sorted(RULE_REGISTRY)
    assert ids == [
        "REP101",
        "REP102",
        "REP103",
        "REP201",
        "REP301",
        "REP302",
        "REP303",
        "REP304",
        "REP401",
        "REP402",
        "REP403",
        "REP404",
    ]
    slugs = {rule.name for rule in all_rules()}
    assert len(slugs) == len(ids), "rule slugs must be unique"
    for rule in all_rules():
        assert rule.description
        assert rule.categories <= {"src", "bench", "test"}


# ----------------------------------------------------------------------
# determinism rules
# ----------------------------------------------------------------------


def test_rep101_fires_and_suppresses():
    active, suppressed = lint_fixture("determinism_bad.py")
    assert line_of("determinism_bad.py", "import random") in rule_lines(active, "REP101")
    assert line_of("determinism_bad.py", "random.choice") in rule_lines(active, "REP101")
    allowed = line_of("determinism_bad.py", "allow[REP101]")
    assert allowed not in rule_lines(active, "REP101")
    assert allowed in rule_lines(suppressed, "REP101")


def test_rep102_fires_on_seedless_and_global_state_only():
    active, suppressed = lint_fixture("determinism_bad.py")
    lines = rule_lines(active, "REP102")
    assert line_of("determinism_bad.py", "np.random.default_rng()") in lines
    assert line_of("determinism_bad.py", "np.random.seed(0)") in lines
    assert line_of("determinism_bad.py", "np.random.randint") in lines
    assert line_of("determinism_bad.py", "np.random.default_rng(1234)") not in lines
    assert line_of("determinism_bad.py", "allow[REP102]") in rule_lines(suppressed, "REP102")


def test_rep102_fires_inside_adaptive_fault_strategies():
    """A FaultStrategy.plan_round drawing outside the bound rng trips CI."""
    active, suppressed = lint_fixture("strategy_bad.py")
    lines = rule_lines(active, "REP102")
    assert line_of("strategy_bad.py", "np.random.default_rng()") in lines
    assert line_of("strategy_bad.py", "np.random.random()") in lines
    # the honest strategy draws only from the generator the layer passes in
    assert line_of("strategy_bad.py", "if rng.random() < 0.5:") not in lines
    assert line_of("strategy_bad.py", "rng.integers(0, 4, size=1)") not in lines
    waived = line_of("strategy_bad.py", "np.random.default_rng()", occurrence=1)
    assert waived not in lines
    assert waived in rule_lines(suppressed, "REP102")


def test_rep102_fires_inside_state_aware_fault_strategies():
    """A state-aware plan_round drawing outside the bound rng trips CI.

    The read-only StateView is for targeting only; randomness must still
    flow from the ``rng`` argument even when the draw is keyed off live
    protocol state.
    """
    active, suppressed = lint_fixture("state_strategy_bad.py")
    lines = rule_lines(active, "REP102")
    assert line_of("state_strategy_bad.py", "np.random.default_rng()") in lines
    assert line_of("state_strategy_bad.py", "np.random.random()") in lines
    # the honest strategy reads state but draws only from the bound rng
    assert line_of("state_strategy_bad.py", "if rng.random() < 0.5:") not in lines
    assert (
        line_of("state_strategy_bad.py", "rng.integers(0, frontier + 1, size=1)")
        not in lines
    )
    waived = line_of("state_strategy_bad.py", "np.random.default_rng()", occurrence=1)
    assert waived not in lines
    assert waived in rule_lines(suppressed, "REP102")


def test_rep103_fires_in_src_not_bench():
    active, _ = lint_fixture("determinism_bad.py")
    lines = rule_lines(active, "REP103")
    assert line_of("determinism_bad.py", "time.perf_counter()") in lines
    assert line_of("determinism_bad.py", "os.urandom(8)") in lines
    # previous-line suppression form
    allowed = line_of("determinism_bad.py", "time.perf_counter()", occurrence=1)
    assert allowed not in lines
    bench_active, _ = lint_fixture("determinism_bad.py", category="bench")
    assert not rule_lines(bench_active, "REP103"), "benchmarks may time themselves"
    assert rule_lines(bench_active, "REP101"), "stdlib random stays banned in bench"


def test_rep103_fires_outside_the_clock_seam():
    """Bare wall-clock reads outside repro.obs.clock.SystemClock trip CI.

    The Clock seam is the single sanctioned REP103 exception: only the
    justified inline ``allow`` on ``SystemClock.now`` survives.  A
    homegrown clock class or a self-timing profiler fires like any other
    wall-clock read — the name ``now`` sanctions nothing.
    """
    active, suppressed = lint_fixture("clock_seam_bad.py")
    lines = rule_lines(active, "REP103")
    assert line_of("clock_seam_bad.py", "time.perf_counter()", occurrence=0) in lines
    assert line_of("clock_seam_bad.py", "time.perf_counter()", occurrence=1) in lines
    assert line_of("clock_seam_bad.py", "time.perf_counter() - self.start") in lines
    sanctioned = line_of("clock_seam_bad.py", "# repro: allow[REP103] fixture")
    assert sanctioned not in lines
    assert sanctioned in rule_lines(suppressed, "REP103")


# ----------------------------------------------------------------------
# picklability
# ----------------------------------------------------------------------


def test_rep201_fires_on_lambda_closure_and_factory_returns():
    active, suppressed = lint_fixture("factories_bad.py")
    lines = rule_lines(active, "REP201")
    assert line_of("factories_bad.py", 'Scenario("broken", build=lambda') in lines
    assert line_of("factories_bad.py", 'register_scenario(Scenario("broken", build=nested_build))') in lines
    assert line_of("factories_bad.py", "return lambda: (name, n, seed)") in lines
    assert line_of("factories_bad.py", "return build") in lines
    # module-level callables and partials of them stay clean
    assert line_of("factories_bad.py", 'Scenario("fine", build=module_level_build)') not in lines
    assert line_of("factories_bad.py", "partial(module_level_build, 8)") not in lines
    assert line_of("factories_bad.py", "allow[REP201]") in rule_lines(suppressed, "REP201")


def test_rep201_fires_on_unpicklable_fault_model_factories():
    active, _ = lint_fixture("faults_bad.py")
    lines = rule_lines(active, "REP201")
    assert line_of("faults_bad.py", "faults=lambda n, seed:") in lines
    assert line_of("faults_bad.py", "faults=bound_faults") in lines
    assert line_of("faults_bad.py", "return build_model") in lines
    # a module-level fault builder stays clean
    assert line_of("faults_bad.py", "faults=module_level_faults") not in lines


# ----------------------------------------------------------------------
# engine contracts
# ----------------------------------------------------------------------


def test_rep301_requires_supports_and_to_nodes():
    active, suppressed = lint_fixture("kernel_contract.py")
    lines = rule_lines(active, "REP301")
    missing_both = line_of("kernel_contract.py", "class MissingBothKernel")
    missing_to_nodes = line_of("kernel_contract.py", "class MissingToNodesKernel")
    assert missing_both in lines
    assert missing_to_nodes in lines
    messages = [f.message for f in active if f.rule == "REP301"]
    assert sum(1 for f in active if f.rule == "REP301" and f.line == missing_both) == 2
    assert any("to_nodes" in m for m in messages)
    # complete and same-module-inheriting kernels pass
    assert line_of("kernel_contract.py", "class CompleteKernel") not in lines
    assert line_of("kernel_contract.py", "class InheritedKernel") not in lines
    waived = line_of("kernel_contract.py", "class WaivedKernel")
    assert waived not in lines
    assert waived in rule_lines(suppressed, "REP301")


def test_rep302_bans_per_node_objects_outside_to_nodes():
    active, suppressed = lint_fixture("kernels.py")
    lines = rule_lines(active, "REP302")
    assert line_of("kernels.py", "space = Subspace()") in lines
    # to_nodes materialisation is the sanctioned home for scalar objects
    assert line_of("kernels.py", "node.space = Subspace()") not in lines
    assert line_of("kernels.py", "node.message = Message()") not in lines
    assert line_of("kernels.py", "allow[REP302]") in rule_lines(suppressed, "REP302")


def test_rep302_only_in_kernel_modules():
    source = (FIXTURES / "kernels.py").read_text()
    active, _ = lint_source(FIXTURES / "not_a_kernel.py", source, category="src")
    assert not rule_lines(active, "REP302")


def test_rep303_rejects_batch_import_in_algorithms():
    path = FIXTURES / "algorithms" / "coded.py"
    active, _ = lint_source(path, path.read_text(), category="src")
    lines = rule_lines(active, "REP303")
    assert len(lines) == 2  # the import and the instantiation
    # identical code outside algorithms/ is fine
    outside, _ = lint_source(FIXTURES / "coded.py", path.read_text(), category="src")
    assert not rule_lines(outside, "REP303")


def test_rep304_confines_the_coded_window_to_blocks():
    path = FIXTURES / "algorithms" / "window_bad.py"
    active, suppressed = lint_source(path, path.read_text(), category="src")
    fixture = "algorithms/window_bad.py"
    assert [f.message.split("(")[0] for f in active if f.rule == "REP304"] == [
        "`for_message",
        "`Generation",
        "`decode_block",
        "`decode_payloads",
        "`choice",
    ]
    assert rule_lines(active, "REP304") == {
        line_of(fixture, "Generation.for_message(message)"),
        line_of(fixture, "return Generation(k=k"),
        line_of(fixture, "decode_block(config"),
        line_of(fixture, "self.rng.choice", occurrence=0),
    }
    allowed = line_of(fixture, "allow[REP304]")
    assert rule_lines(suppressed, "REP304") == {allowed}
    # blocks.py is the window's home, and outside algorithms/ the rule is off
    for home in (path.with_name("blocks.py"), FIXTURES / "window_bad.py"):
        quiet, _ = lint_source(home, path.read_text(), category="src")
        assert not rule_lines(quiet, "REP304")


def test_rep304_fires_on_a_stray_choice_in_greedy_forward(tmp_path):
    real = (REPO_ROOT / "src" / "repro" / "algorithms" / "greedy_forward.py").read_text()
    target = tmp_path / "algorithms" / "greedy_forward.py"
    assert not lint_source(target, real)[0]
    injected = real + "\n\ndef _stray(rng, items):\n    return rng.choice(items)\n"
    after = lint_source(target, injected)[0]
    assert [(f.rule, f.line) for f in after] == [("REP304", len(injected.splitlines()))]


# ----------------------------------------------------------------------
# hot-path hygiene
# ----------------------------------------------------------------------


def test_rep401_fires_in_element_loops_not_round_loops():
    active, suppressed = lint_fixture("kernels.py")
    lines = rule_lines(active, "REP401")
    assert line_of("kernels.py", "total += int(np.sum(rows[i]))") in lines
    assert line_of("kernels.py", "int(np.sum(rows)) + round_index") not in lines
    allowed = line_of("kernels.py", "allow[REP401]")
    assert allowed not in lines
    assert allowed in rule_lines(suppressed, "REP401")


def test_rep402_flags_division_and_float_literals():
    active, suppressed = lint_fixture("kernels.py")
    lines = rule_lines(active, "REP402")
    assert line_of("kernels.py", "return words / 2") in lines
    assert line_of("kernels.py", "return words * 0.5") in lines
    assert line_of("kernels.py", "return words // 2") not in lines
    assert line_of("kernels.py", "allow[REP402]") in rule_lines(suppressed, "REP402")


def test_rep403_fires_in_src_only():
    active, suppressed = lint_fixture("asserts_bad.py")
    lines = rule_lines(active, "REP403")
    assert line_of("asserts_bad.py", "assert value is not None") in lines
    allowed = line_of("asserts_bad.py", "allow[REP403] fixture")
    assert allowed not in lines
    assert allowed in rule_lines(suppressed, "REP403")
    test_active, _ = lint_fixture("asserts_bad.py", category="test")
    assert not rule_lines(test_active, "REP403"), "tests may assert freely"


def test_rep404_confines_the_layout_to_bits():
    active, suppressed = lint_fixture("layout_bad.py")
    findings = [f for f in active if f.rule == "REP404"]
    by_line = {}
    for finding in findings:
        by_line.setdefault(finding.line, []).append(finding.message.split(" outside")[0])
    assert by_line == {
        line_of("layout_bad.py", "(n + 63) // 64", occurrence=0): ["`(x + 63) // 64` word count"],
        line_of("layout_bad.py", "row[i >> 6]"): ["`x >> 6` word index", "`x & 63` bit offset"],
        line_of("layout_bad.py", "return 63 & i"): ["`x & 63` bit offset"],
        line_of("layout_bad.py", "int.from_bytes"): ["`from_bytes(...)`"],
        line_of("layout_bad.py", "mask.to_bytes"): ["`to_bytes(...)`"],
        line_of("layout_bad.py", "np.unpackbits"): ["`unpackbits(...)`", "`packbits(...)`"],
    }
    allowed = line_of("layout_bad.py", "allow[REP404]")
    assert rule_lines(suppressed, "REP404") == {allowed}
    source = (FIXTURES / "layout_bad.py").read_text()
    home, _ = lint_source(FIXTURES / "repro" / "bits.py", source, category="src")
    assert not rule_lines(home, "REP404")
    bench, _ = lint_fixture("layout_bad.py", category="bench")
    assert not rule_lines(bench, "REP404"), "the layout rule covers src/ only"


def test_rep404_fires_on_a_reinlined_byte_loop_in_topology_masks(tmp_path):
    real = (REPO_ROOT / "src" / "repro" / "network" / "topology.py").read_text()
    target = tmp_path / "topology.py"
    assert not lint_source(target, real)[0]
    call = "tuple(packed_to_masks(self._packed))"
    assert real.count(call) == 1
    inlined = real.replace(
        call, 'tuple(int.from_bytes(row.tobytes(), "little") for row in self._packed)'
    )
    after = lint_source(target, inlined)[0]
    line = next(i for i, text in enumerate(inlined.splitlines(), 1) if "int.from_bytes" in text)
    assert [(f.rule, f.line) for f in after] == [("REP404", line)]


# ----------------------------------------------------------------------
# directives (REP001, REP002) and engine behaviour
# ----------------------------------------------------------------------


def test_bad_directives_are_reported():
    active, _ = lint_fixture("asserts_bad.py")
    lines = rule_lines(active, "REP001")
    no_reason = line_of("asserts_bad.py", "allow[REP403]", occurrence=1)
    assert no_reason in lines
    # a reason-less allow suppresses nothing: REP403 still fires there
    assert no_reason in rule_lines(active, "REP403")
    assert line_of("asserts_bad.py", "allow[REP999]") in lines
    assert line_of("asserts_bad.py", "allowing everything forever") in lines


def test_unused_allows_are_reported():
    active, suppressed = lint_fixture("unused_allow.py")
    unused = {(f.line, f.message.split("]")[0]) for f in active if f.rule == "REP002"}
    assert unused == {
        (line_of("unused_allow.py", "no clock is read"), "allow[REP103"),
        (line_of("unused_allow.py", "does not reach the next line"), "allow[REP103"),
        (line_of("unused_allow.py", "only the assert fires"), "allow[REP103"),
    }
    # a trailing allow does not cover the next line; one on a line of its own does
    assert rule_lines(active, "REP103") == {line_of("unused_allow.py", "perf_counter() - start")}
    assert rule_lines(suppressed, "REP103") == {
        line_of("unused_allow.py", "perf_counter()", occurrence=1)
    }
    assert rule_lines(suppressed, "REP403") == {line_of("unused_allow.py", "assert value")}


def test_engine_findings_cannot_be_allowed():
    source = "x = 1  # repro: allow[REP002] try to silence the unused check\n"
    active, _ = lint_source(FIXTURES / "mod.py", source, category="src")
    assert [f.rule for f in active] == ["REP001"]
    slug = "assert x  # repro: allow[load-bearing-assert] slugs are not rule ids\n"
    active, _ = lint_source(FIXTURES / "mod.py", slug, category="src")
    assert sorted(f.rule for f in active) == ["REP001", "REP403"]


def test_every_allow_in_the_tree_is_load_bearing():
    """Deleting any allow comment makes the rule it names fire on its site."""
    checked = 0
    for directory in DEFAULT_PATHS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            lines = path.read_text().splitlines(keepends=True)
            for number, suppression in parse_suppressions("".join(lines))[0].items():
                text = lines[number - 1]
                code = text[: ALLOW_RE.search(text).start()].rstrip()
                edited = lines[:number - 1] + [code + "\n" if code else ""] + lines[number:]
                active, _ = lint_source(path, "".join(edited))
                assert suppression.rules <= {f.rule for f in active}, f"{path}:{number}"
                checked += 1
    assert checked >= 30


def test_directive_text_inside_strings_is_ignored():
    source = '"""docstring mentioning # repro: allow[REP403] syntax."""\n'
    active, suppressed = lint_source(FIXTURES / "doc.py", source, category="src")
    assert not active and not suppressed


def test_syntax_error_becomes_rep000():
    active, _ = lint_source(FIXTURES / "broken.py", "def broken(:\n", category="src")
    assert [f.rule for f in active] == ["REP000"]


def test_categorize():
    assert categorize(Path("src/repro/gf/packed.py")) == "src"
    assert categorize(Path("benchmarks/common.py")) == "bench"
    assert categorize(Path("tests/test_lint.py")) == "test"
    assert categorize(Path("tests/oracles/fault_edit.py")) == "src"


@pytest.mark.parametrize(
    "stray, rule",
    [("np.random.default_rng()", "REP102"), ("time.time()", "REP103")],
    ids=["seedless-rng", "wall-clock"],
)
def test_oracles_are_held_to_the_src_rules(tmp_path, stray, rule):
    real = (REPO_ROOT / "tests" / "oracles" / "fault_edit.py").read_text()
    oracles = tmp_path / "tests" / "oracles"
    oracles.mkdir(parents=True)
    target = oracles / "fault_edit.py"
    target.write_text(real)
    assert run_lint([oracles]).findings == []
    target.write_text(real + f"\nimport time\n\nimport numpy as np\n\n_STRAY = {stray}\n")
    assert [f.rule for f in run_lint([oracles]).findings] == [rule]


# ----------------------------------------------------------------------
# reporters, CLI
# ----------------------------------------------------------------------


def test_json_report_shape(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("def f(v):\n    assert v\n    return v\n")
    payload = run_lint([target]).to_json()
    assert payload["exit_code"] == 1
    assert payload["counts_by_rule"] == {"REP403": 1}
    (finding,) = payload["findings"]
    assert finding["rule"] == "REP403"
    assert finding["line"] == 2


def test_cli_exit_codes_and_output(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f():\n    return 1\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(v):\n    assert v\n    return v\n")

    assert lint_main([str(clean)]) == 0
    report = tmp_path / "report.json"
    assert lint_main([str(dirty), "--output", str(report)]) == 1
    assert "REP403[load-bearing-assert]" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert payload["counts_by_rule"] == {"REP403": 1}
    assert lint_main(["does-not-exist"]) == 2


# ----------------------------------------------------------------------
# the gate itself
# ----------------------------------------------------------------------


def test_repository_tree_lints_clean(tmp_path, monkeypatch):
    """The CI gate, enforced from tier-1 as well: the CLI's default paths
    (src, benchmarks, tests/oracles) are clean."""
    monkeypatch.chdir(REPO_ROOT)
    report = tmp_path / "lint-report.json"
    exit_code = lint_main(["--output", str(report)])
    payload = json.loads(report.read_text())
    assert payload["findings"] == []
    assert exit_code == 0
    assert payload["files_checked"] > 50
    assert any(f["path"].startswith("tests/oracles/") for f in payload["suppressed"])


def test_injected_seedless_rng_fails_the_gate(tmp_path):
    """The acceptance scenario: a seedless default_rng() in kernels.py trips CI."""
    real = (REPO_ROOT / "src" / "repro" / "simulation" / "kernels.py").read_text()
    target = tmp_path / "kernels.py"
    assert not lint_source(target, real, category="src")[0]
    injected = real + "\n_UNSEEDED = np.random.default_rng()\n"
    after = lint_source(target, injected, category="src")[0]
    assert [f.rule for f in after] == ["REP102"]
    assert after[0].line == len(injected.splitlines())
