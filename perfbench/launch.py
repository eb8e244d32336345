"""One benchmark process: fixes the BLAS thread count, imports heatvalve, runs.

    python3 perfbench/launch.py cli RESULT CONFIG TRACE CLI-ARGS...
    python3 perfbench/launch.py oracle RESULT PARAMS-JSON

``cli`` imports ``heatvalve.cli``, loads CONFIG (the set-up a user pays on
every invocation), installs the span tracer if TRACE is 1, then calls
``heatvalve.cli.main(CLI-ARGS)`` once.  ``oracle`` compares one small
instance of the engine with the brute-force Fock-space oracle and records
the environment.  Both write a JSON result to RESULT; timestamps are
``time.perf_counter()`` values, which share the system monotonic clock with
the parent process.
"""

import os
import sys
import time

# Fixed before numpy loads.  One thread: on two CPUs, a second BLAS thread
# that spins between calls made the run-to-run spread of the throughput
# three to six times larger, because anything else that runs stalls it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


def _import_cli():
    import heatvalve
    import heatvalve.cli

    if Path(heatvalve.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"heatvalve imported from {heatvalve.__file__}, not {SRC}")
    return heatvalve.cli


def run_cli(config: str, trace: bool, argv: list[str]) -> dict:
    cli = _import_cli()
    from heatvalve.config import load_config

    load_config(config)
    setup_done = time.perf_counter()
    tracer = absent = None
    if trace:
        import importlib
        import pkgutil

        import heatvalve
        from tracer import Tracer

        modules = {"": heatvalve}
        for info in pkgutil.iter_modules(heatvalve.__path__):
            modules[info.name] = importlib.import_module(f"heatvalve.{info.name}")
        tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
        absent = tracer.install(modules)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    code = cli.main(argv)
    end = time.perf_counter()
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    result = {"setup_done": setup_done, "start": start, "end": end, "cpu_s": cpu_s,
              "exit_code": code, "peak_rss_mb": after.ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.dump()
        result["absent"] = absent
    return result


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
    }


def run_oracle(params: dict) -> dict:
    _import_cli()
    import numpy as np

    from heatvalve import fock
    from heatvalve.experiments import simulate_trace
    from heatvalve.valve import (
        InternalCouplingSpec, ValveConfig, apply_internal_couplings, sample_bath,
    )

    ic = params.pop("internal_coupling_scale")
    cfg = ValveConfig(**params, t_hot=1.0, t_cold=0.0,
                      internal_coupling=None if ic is None else InternalCouplingSpec(scale=ic))
    times = np.linspace(0.0, 20.0, 81)
    engine = simulate_trace(cfg, times).total
    bath = sample_bath(cfg)
    if cfg.internal_coupling is not None:
        bath = apply_internal_couplings(cfg, bath)
    exact = fock.exact_current(cfg, bath, times)
    return {"modes": cfg.modes, "max_abs_dev": float(np.abs(engine - exact).max()),
            "environment": environment()}


def main(argv: list[str]) -> int:
    mode, result_path = argv[0], Path(argv[1])
    if mode == "cli":
        result = run_cli(argv[2], argv[3] == "1", argv[4:])
    elif mode == "oracle":
        result = run_oracle(json.loads(argv[2]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
