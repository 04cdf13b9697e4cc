"""lmtrees benchmark: power-study and CLI workloads, one process, one worker.

    python3 perfbench/run.py --workload stump_select --seed 0 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs a fixed
slice of the workload untraced and then traced, and prints the per-layer
metrics taken from the spans.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the workloads, metrics and output checks.
"""

import os

# pin BLAS and OpenMP pools before numpy loads; child processes inherit this
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_SAMPLES = 3
# workloads.py imports lmtrees, which has to wait until set-up is timed
WORKLOAD_NAMES = ("stump_select", "tree_post", "large_fit_prune")
CLI_METRICS = {"fit": "fit_s", "prune_cc": "prune_cc_s", "prune_bic": "prune_bic_s"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "fit_s": "s",
    "prune_cc_s": "s",
    "prune_bic_s": "s",
    "peak_rss_mb": "MB",
}


def measure_setup() -> tuple[float, float, float, float]:
    """Import lmtrees and build the k = 1 and k = 2 null tables.

    Returns the wall seconds of the whole set-up, of the k = 1 and of
    the k = 2 build, and the set-up time scaled by calibration.py.  numpy
    is imported first, so its own import time is not counted.  Only
    meaningful in a process that has not imported lmtrees yet.
    """
    import calibration

    def warm() -> tuple[float, float]:
        import lmtrees

        imported = time.perf_counter()
        lmtrees.suplm_pvalue(1.0, 1, 25, 250)
        built_k1 = time.perf_counter()
        lmtrees.suplm_pvalue(1.0, 2, 25, 250)
        return built_k1 - imported, time.perf_counter() - built_k1

    (k1, k2), wall, scaled = calibration.Calibration().time(warm)
    return wall, k1, k2, scaled


def setup_in_child() -> tuple[float, float, float, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-sample"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return tuple(json.loads(proc.stdout.strip().splitlines()[-1]))


def git_state() -> tuple[str | None, bool | None]:
    def git(*argv: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *argv], capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None, None
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def provenance(args, np) -> dict:
    sha, dirty = git_state()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "git_sha": sha,
        "git_dirty": dirty,
    }


class Checker:
    """Compares unit outputs against the reference digests, or, without a
    reference, against the first run of the same unit in this process."""

    def __init__(self, reference: dict[str, str]) -> None:
        self.reference = reference
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, expected_ops: int, result, error: str | None = None) -> None:
        problems = [error] if error else list(result.problems)
        if result is not None:
            for key, value in result.digests.items():
                want = self.reference.get(key) or self.seen.get(key)
                self.seen.setdefault(key, value)
                if want is not None and want != value:
                    problems.append(f"{key}: digest {value}, expected {want}")
        ops = result.ops if result is not None and result.ops else expected_ops
        self.attempted += ops
        if problems:
            self.failed += ops
            self.problems.extend(problems)
            for line in problems[:5]:
                print(f"FAILED {line}", file=sys.stderr)


def checked(checker: Checker, expected_ops: int, call, *args):
    """Run one unit or CLI command; a failure is counted and reported, and
    the run goes on."""
    try:
        result = call(*args)
    except Exception:
        checker.record(expected_ops, None, traceback.format_exc(limit=3).strip())
        return None
    checker.record(expected_ops, result)
    return result


def run_unit(workload, index: int, checker: Checker):
    return checked(checker, workload.ops_per_unit, workload.run_unit, index)


def _timed(samples: dict, result) -> None:
    if result is not None:
        samples.setdefault(result.key, []).append((result.seconds, result.scaled))


def end_to_end(args, workload, checker: Checker, setup: list) -> tuple[dict, dict]:
    """Returns the end-to-end metrics and the same figures as raw wall time."""
    # every unit and CLI command has fixed inputs, so repeats of one key are
    # comparable; the simulate workloads run the CLI pass after each unit,
    # so both sample the same stretches of host speed.  A run times whole
    # cycles of units, so every run covers the same units whatever the
    # host's speed, and starts another cycle only if it should end in time.
    samples: dict[str, list[tuple[float, float]]] = {}
    ops_of: dict[str, int] = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        cycle_start = time.perf_counter()
        for index in range(workload.units):
            result = run_unit(workload, index, checker)
            _timed(samples, result)
            if result is not None:
                ops_of[result.key] = result.ops
            if workload.cli_probe:
                for kind in workload.cycle.SEQUENCE:
                    _timed(samples, checked(checker, 1, workload.cycle.run, kind))
        now = time.perf_counter()
        if now + (now - cycle_start) > deadline:
            break
    figures = {}
    for column, name in ((1, "metric"), (0, "raw")):
        typical = {k: statistics.median(v[column] for v in vs) for k, vs in samples.items()}
        op_seconds = workload.cycle_seconds([typical[k] for k in ops_of])
        values = {
            "setup_s": statistics.median(s[3] if column else s[0] for s in setup),
            "ops_per_s": sum(ops_of.values()) / op_seconds if op_seconds else 0.0,
        }
        for kind, metric in CLI_METRICS.items():
            values[metric] = typical.get(kind, 0.0)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        figures[name] = values
    metrics = {name: (figures["metric"][name], unit) for name, unit in END_TO_END_UNITS.items()}
    return metrics, figures["raw"]


def _segment(workload, checker: Checker, tracer=None) -> tuple[int, float, list]:
    ops = 0
    seconds = 0.0
    results = []
    for index in range(workload.trace_units):
        if tracer is not None:
            tracer.op_id = index
        result = run_unit(workload, index, checker)
        if result is None:
            continue
        ops += result.ops
        seconds += result.scaled
        results.append(result)
    return ops, seconds, results


def completeness(name: str, values: dict, counters, results: list) -> list[str]:
    """Traced call counts must equal the counts the outputs imply."""
    derived: dict[str, int] = {}
    for result in results:
        for key, value in result.derived.items():
            derived[key] = derived.get(key, 0) + value
    tests = values["inference.run_strategy.calls"]
    selections = values["inference.select_variable.calls"]
    grows = values["tree.grow.calls"]
    columns = 11 if name == "large_fit_prune" else 10
    checks = [(f"run_strategy calls = {columns} x select_variable calls", tests, columns * selections)]
    if name == "stump_select":
        checks.append(("select_variable calls = records", selections, derived.get("records", 0)))
        checks.append(("run_strategy calls = tested variables in records", tests, derived.get("tests", 0)))
    else:
        checks.append(("select_variable calls = tested nodes of grown trees", selections,
                       counters["tree.nodes_tested"]))
    if name == "tree_post":
        checks.append(("grow calls = 11 x records", grows, 11 * derived.get("records", 0)))
    if name == "large_fit_prune":
        checks.append(("grow calls = fits + 6 x cc prunes", grows,
                       derived.get("fits", 0) + 6 * derived.get("cc", 0)))
        checks.append(("cli.main.fit calls = fit commands", values["cli.main.fit.calls"],
                       derived.get("fits", 0)))
    return [f"trace completeness: {label}: traced {got}, outputs imply {want}"
            for label, got, want in checks if got != want]


def null_table_bytes() -> int:
    """Bytes of the arrays the supLM null-table cache holds now; 0 when
    the package keeps no such cache."""
    import numpy as np

    from lmtrees import inference

    cache = getattr(inference, "_NULL_TABLES", None)
    held = 0
    for value in vars(cache).values() if cache is not None else ():
        arrays = value.values() if isinstance(value, dict) else [value]
        held += sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    return held


def traced(args, workload, checker: Checker, setup: list) -> dict[str, float]:
    import layers
    import spans

    run_unit(workload, 0, checker)  # lazy null-table sorts and caches fill before either slice
    untraced_ops, untraced_s, _ = _segment(workload, checker)
    tracer = spans.Tracer()
    layers.install(tracer)
    workload.cycle.tracer = tracer
    traced_ops, traced_s, results = _segment(workload, checker, tracer)
    values = layers.metrics(tracer.layer_totals(), tracer.counters)
    checker.problems.extend(completeness(args.workload, values, tracer.counters, results))
    untraced_rate = untraced_ops / untraced_s if untraced_s else 0.0
    traced_rate = traced_ops / traced_s if traced_s else 0.0
    values.update({
        "inference.null_table.build_s.k1": setup[0][1],
        "inference.null_table.build_s.k2": setup[0][2],
        "inference.null_table.bytes": null_table_bytes(),
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead_frac": untraced_rate / traced_rate - 1.0 if traced_rate else 0.0,
        "trace.spans": len(tracer.spans),
        "failed_frac": checker.failed / checker.attempted if checker.attempted else 1.0,
    })
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    specs = layers.metric_specs()
    return {name: (values[name], unit) for name, (unit, _) in specs.items()}


def load_reference(args) -> dict[str, str]:
    """Reference digests that apply to this run: all of them for the
    reference seed, otherwise only those of the CLI commands, whose input
    does not depend on the seed."""
    if args.tiny or args.record_reference or not REFERENCE.exists():
        return {}
    stored = json.loads(REFERENCE.read_text()).get("workloads", {}).get(args.workload, {})
    if args.seed == REFERENCE_SEED:
        return stored
    return {key: value for key, value in stored.items() if key.startswith("cli.")}


def record_reference(args, workload, checker: Checker) -> None:
    for index in range(workload.units):
        run_unit(workload, index, checker)
    if workload.cli_probe:
        for kind in workload.cycle.KINDS:
            checked(checker, 1, workload.cycle.run, kind)
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    stored["seed"] = REFERENCE_SEED
    stored.setdefault("workloads", {})[args.workload] = dict(sorted(checker.seen.items()))
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument("--record-reference", action="store_true",
                        help=f"store this run's output digests as the seed-{REFERENCE_SEED} reference")
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_sample and args.workload is None:
        parser.error("--workload is required")
    if args.record_reference and (args.seed != REFERENCE_SEED or args.tiny):
        parser.error(f"--record-reference needs --seed {REFERENCE_SEED} and full sizes")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lmtrees" / "__init__.py").is_file():
        print(f"error: no lmtrees sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_sample:
        print(json.dumps(measure_setup()))
        return 0

    setup = [measure_setup()]
    if not args.trace and not args.record_reference:
        samples = 1 if args.tiny else SETUP_SAMPLES
        setup += [setup_in_child() for _ in range(samples - 1)]

    import numpy as np

    import calibration
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        kind = workloads.WORKLOADS[args.workload]
        cal = calibration.Calibration(kind.kernel)
        workload = kind(args.seed, args.tiny, workdir, cal)
        checker = Checker(load_reference(args))
        if args.record_reference:
            record_reference(args, workload, checker)
            print(json.dumps({"recorded": args.workload, "digests": checker.seen}))
            return 0 if not checker.failed else 1
        raw = None
        if args.trace:
            metrics = traced(args, workload, checker, setup)
        else:
            metrics, raw = end_to_end(args, workload, checker, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = provenance(args, np)
    info["attempted"] = checker.attempted
    info["setup_samples_s"] = [s[0] for s in setup]
    info["host_factor"] = cal.factor()
    info["reference_digests"] = len(checker.reference)
    correct = checker.failed == 0 and not checker.problems
    print("provenance " + json.dumps(info, sort_keys=True))
    print("digests " + json.dumps(dict(sorted(checker.seen.items()))))
    if raw is not None:
        print("raw_wall " + json.dumps(raw))
    for line in checker.problems:
        print(f"problem {line}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": info, "digests": checker.seen, "problems": checker.problems,
                    "raw_wall": raw, **result}, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
