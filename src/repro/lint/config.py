"""Linter configuration, read from ``[tool.repro-lint]`` in pyproject.toml.

All keys are optional; dashes and underscores are interchangeable::

    [tool.repro-lint]
    select = []                          # empty = every registered rule
    ignore = []                          # ids or slugs to disable
    kernel-modules = [...]               # default: DEFAULT_KERNEL_MODULES
    packed-modules = [...]               # default: DEFAULT_PACKED_MODULES
    exclude = ["**/lint_fixtures/**"]    # glob patterns, posix-relative

The module lists have one home, the defaults below; the repository's own
pyproject sets neither, so ``--no-config`` lints with the same lists.

``load_config`` walks upward from the first linted path to find the
project root; ``--no-config`` on the CLI skips the file entirely and
runs on built-in defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - py<3.11 fallback
    tomllib = None

#: Modules holding RoundKernel implementations: the per-node-object ban
#: (REP302) and hot-path rules apply here.
DEFAULT_KERNEL_MODULES = ("kernels.py", "coded_kernels.py")

#: Modules whose arrays are packed uint64 words: upcast hazards (REP402)
#: and per-element-loop checks (REP401) apply here.
DEFAULT_PACKED_MODULES = (
    "packed.py",
    "kernels.py",
    "coded_kernels.py",
    "topology.py",
    "stability.py",
    "dynamics.py",
    "bits.py",
)


@dataclass(frozen=True)
class LintConfig:
    root: Path = field(default_factory=Path.cwd)
    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()
    kernel_modules: tuple[str, ...] = DEFAULT_KERNEL_MODULES
    packed_modules: tuple[str, ...] = DEFAULT_PACKED_MODULES
    exclude: tuple[str, ...] = ()


def find_pyproject(start: Path) -> Path | None:
    """The nearest pyproject.toml at or above ``start``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def _str_tuple(value) -> tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    return ()


def load_config(start: Path | None = None, *, use_pyproject: bool = True) -> LintConfig:
    """Build the effective configuration for a run rooted near ``start``."""
    start = start if start is not None else Path.cwd()
    config = LintConfig(root=start.resolve() if start.is_dir() else start.resolve().parent)
    if not use_pyproject or tomllib is None:
        return config
    pyproject = find_pyproject(start)
    if pyproject is None:
        return config
    try:
        data = tomllib.loads(pyproject.read_text())
    except (OSError, tomllib.TOMLDecodeError):
        return config
    section = data.get("tool", {}).get("repro-lint")
    if not isinstance(section, dict):
        return replace(config, root=pyproject.parent)
    normalized = {key.replace("-", "_"): value for key, value in section.items()}
    return LintConfig(
        root=pyproject.parent,
        select=_str_tuple(normalized.get("select")),
        ignore=_str_tuple(normalized.get("ignore")),
        kernel_modules=_str_tuple(normalized.get("kernel_modules")) or DEFAULT_KERNEL_MODULES,
        packed_modules=_str_tuple(normalized.get("packed_modules")) or DEFAULT_PACKED_MODULES,
        exclude=_str_tuple(normalized.get("exclude")),
    )
