"""Import rdom from the ``src`` tree of the checkout the benchmark runs in.

Every benchmark script runs from the repository root and calls
``import_rdom`` before anything else. It refuses to fall back to an rdom
installed elsewhere, so a directory without the sources fails loudly.
"""

from __future__ import annotations

import sys
from pathlib import Path


def import_rdom():
    src = Path.cwd() / "src"
    if not (src / "rdom" / "__init__.py").is_file():
        raise SystemExit(f"error: no rdom sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import rdom

    if Path(rdom.__file__).resolve().parent != (src / "rdom").resolve():
        raise SystemExit(f"error: imported rdom from {rdom.__file__}, not from {src}")
    return rdom
