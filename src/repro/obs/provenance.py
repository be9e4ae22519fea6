"""Source-tree provenance hashing for trace manifests.

A trace is only comparable against another trace produced by the *same
code*: every manifest is stamped with :func:`source_digest`, a content
digest of the installed ``repro`` package sources.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

__all__ = ["source_digest"]


_SOURCE_DIGEST: str | None = None


def source_digest() -> str:
    """Digest of the ``repro`` package sources producing this process's traces.

    Every ``*.py`` under ``src/repro`` is visited in sorted relative-path
    order, and both the path relative to ``src`` and the file's bytes feed
    one sha256, so renames, moves and edits all change the digest.
    Truncated to 12 hex chars — collision resistance against *accidental*
    reuse, not an adversary.  Cached per process: the sources cannot
    change under a running interpreter in any way the already-imported
    modules would notice.
    """
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        package_root = Path(__file__).resolve().parents[1]  # src/repro
        digest = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root.parent)).encode())
            digest.update(path.read_bytes())
        _SOURCE_DIGEST = digest.hexdigest()[:12]
    return _SOURCE_DIGEST
