"""Regenerate the benchmark's pinned outputs.

    python3 perfbench/pin.py

Writes ``pins/figures.json`` (every ``ALL_FIGURES`` series at scale
1.0) and ``pins/stream_digests.json`` (the outcome digest of both
streams of the ``serving`` workload for seeds ``0 .. PINNED_SEEDS-1``).  Re-pinning is a
deliberate act: a changed series or digest means a model output or a
serving decision changed, which must be justified on its own before the
pins move.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.checks import DIGEST_PIN, FIGURE_PIN, PINNED_SEEDS  # noqa: E402
from perfbench.run import CHILD_ENV, run_pass  # noqa: E402

#: Pinned stream name -> the ``serving`` context line with its digest.
STREAMS = {"stream_steady": "steady_outcome_digest", "stream_slo_chaos": "chaos_outcome_digest"}


def pin_digests() -> None:
    digests: dict[str, dict[str, str]] = {name: {} for name in STREAMS}
    for seed in range(PINNED_SEEDS):
        result = run_pass("serving", seed, traced=False, timeout=170.0)
        if "error" in result:
            raise SystemExit(f"serving seed {seed}: {result['error']}")
        for name, extra in STREAMS.items():
            digests[name][str(seed)] = result["extras"][extra][0]
            print(f"{name} seed {seed}: {digests[name][str(seed)]}", flush=True)
    DIGEST_PIN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"pinned {PINNED_SEEDS} seeds x {len(STREAMS)} streams to {DIGEST_PIN}")


def main() -> int:
    if any(os.environ.get(k) != v for k, v in CHILD_ENV.items()):
        # Pin under exactly the environment the benchmark's passes get.
        env = {**os.environ, **CHILD_ENV}
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())], env)
    from repro.bench.compare import snapshot

    FIGURE_PIN.parent.mkdir(exist_ok=True)
    payload = snapshot(FIGURE_PIN, scale=1.0)
    print(f"pinned {len(payload['figures'])} figures to {FIGURE_PIN}")
    pin_digests()
    return 0


if __name__ == "__main__":
    sys.exit(main())
