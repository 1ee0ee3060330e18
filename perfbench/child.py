"""One cold study run in a fresh process; prints one JSON line of measurements.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``src`` on
``PYTHONPATH`` (``run.py`` builds the environment).  The spec names the
registered ``study``, its ``scale``, ``trials``, the study ``seed``, a
fresh ``store_dir`` (or ``null`` for no store), whether to ``trace``
the layers, and ``setup_only`` to stop after set-up.

``setup_s`` covers importing :mod:`repro.experiments`, building the
plan and opening the store; ``wall_s`` runs from the first unit to the
rendered output, exactly what ``repro-experiments`` times between
parsing its arguments and printing.  The rendered text is hashed, not
printed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def _tree_bytes(root: Path) -> int:
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


def main(spec: dict) -> dict:
    start = time.perf_counter()
    import repro.experiments as rx
    from repro.experiments.config import SCALES

    store = rx.ResultStore(spec["store_dir"]) if spec["store_dir"] is not None else None
    ctx = rx.StudyContext(
        scale=SCALES[spec["scale"]],
        seed=spec["seed"],
        trials=spec["trials"],
        jobs=1,
        store=store,
    )
    study = rx.get_study(spec["study"])
    plan = study.plan(ctx)
    out: dict = {"setup_s": time.perf_counter() - start}
    if spec["setup_only"]:
        return out

    tracer = None
    if spec["trace"]:
        from layers import Tracer, layer_metrics

        tracer = Tracer().install()
    try:
        start = time.perf_counter()
        text = study.render(rx.run_study(study, ctx, plan=plan))
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if store is not None:
        store.close()

    import numpy

    out.update(
        wall_s=wall_s,
        digest=hashlib.sha256(text.encode()).hexdigest(),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=numpy.__version__,
        repro_env=sorted(k for k in os.environ if k.startswith("REPRO_")),
    )
    if tracer is not None:
        counts = dict(tracer.counts)
        if spec["store_dir"] is not None:
            counts["store.put.bytes"] = _tree_bytes(Path(spec["store_dir"]))
        out["layers"] = layer_metrics(tracer.self_s, counts, wall_s)
        out["absent_layers"] = tracer.absent_layers
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
