"""Reference figures: the criterion-07 and criterion-12 configurations, traced once.

These runs take minutes each, longer than a benchmark run should, so they
are not workloads; the README records their figures.  Usage, from the root
of a checkout::

    python3 perfbench/reference.py criterion-07
    python3 perfbench/reference.py criterion-12
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cywbench import global_iteration  # noqa: E402

import tracing  # noqa: E402
from workloads import admissible_target, bump_base  # noqa: E402


CONFIGS = {
    # tests/test_acceptance.py::_bump_target
    "criterion-07": (("bump-t3", 2, 0.40, bump_base), "closed"),
    # tests/test_acceptance.py::test_criterion_12_robin_path
    "criterion-12": (("ball-negR", 2, 0.55, lambda x: 2.0 + 0.5 * x[:, 2]), "robin"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", choices=sorted(CONFIGS))
    args = parser.parse_args(argv)
    target_args, bc_mode = CONFIGS[args.config]
    inputs = admissible_target(*target_args)
    mesh, geom, S = inputs["mesh"], inputs["geom"], inputs["S"]
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    with tracing.installed(tracer):
        try:
            global_iteration.prescribe(mesh, geom, S, bc_mode=bc_mode)
            outcome = "returned"
        except global_iteration.PipelineError as err:
            outcome = f"failed at {err.stage}"
    wall = time.perf_counter() - t0
    metrics = {k: v for k, v in tracing.pass_metrics(tracer).items() if v}
    print(json.dumps({"config": args.config, "outcome": outcome, "prescribe_wall_s": wall,
                      "metrics": metrics}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
