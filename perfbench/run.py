"""Benchmark of the magcurves CLI, run in-process through ``magcurves.cli.main``.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 36 --trace 0

Run from the root of a magcurves checkout; the package is imported from its
``src/`` directory.  One client runs a closed loop: each operation starts
after the previous one returned, and its output is checked before the next.
Workloads, metrics and the reasons for them are in perfbench/README.md.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics from
spans recorded around the package's entry points (see spans.py).
"""
import os

# Before numpy loads: one BLAS/OpenMP thread per process, so that the two
# workers of ``sweep --jobs 2`` stay within two cores.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

WORKLOADS = ("sweep-grid", "verify-default", "exact-roundtrip")
SETUP_REPEATS = 11
# setup_s is reported in seconds on a host where the reference kernel takes
# this long: about its time in the slow phase of the 2-vCPU host the
# benchmark was tuned on (see reference_s and README.md).
REFERENCE_HOST_S = 0.016
CURVE_TOL = 1e-3


def load_package():
    """Import magcurves from the checkout's src/, or exit 1 without a result."""
    if not (SRC / "magcurves" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'magcurves'}; "
                 "run from the root of a magcurves checkout")
    sys.path.insert(0, str(SRC))
    import magcurves
    if Path(magcurves.__file__).resolve().parent != (SRC / "magcurves").resolve():
        sys.exit(f"perfbench: imported magcurves from {magcurves.__file__}, not from {SRC}")


class SetUp:
    """Generates the inputs SETUP_REPEATS times, each in a fresh interpreter
    that imports magcurves; every repetition must write the same bytes.  The
    first one runs before the window and the others are spread over it, so
    that their median samples the host at many moments, not at one.  Like a
    command, each repetition is bracketed by runs of the reference kernel."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.argv = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
                     "--seed", str(seed)]
        self.work = work
        self.runs: list[tuple[float, float]] = []  # (seconds, in reference-kernel times)
        reference_s()  # warm-up
        self.inputs = self.run_one()

    def run_one(self) -> Path:
        out = self.work / f"inputs-{len(self.runs)}"
        before = reference_s()
        t0 = time.perf_counter()
        subprocess.run(self.argv + ["--out", str(out)], check=True)
        seconds = time.perf_counter() - t0
        self.runs.append((seconds, seconds / (0.5 * (before + reference_s()))))
        return out

    def catch_up(self, share: float) -> bool:
        """Run repetitions until the given share of those after the first is
        done; return whether any ran."""
        done = len(self.runs)
        while (len(self.runs) < SETUP_REPEATS
               and len(self.runs) - 1 < share * (SETUP_REPEATS - 1)):
            self.run_one()
        return len(self.runs) > done

    def median_s(self) -> tuple[float, float]:
        """Run the repetitions still due and check them.  Return the median
        wall time, and the median in reference-kernel times converted to
        seconds at REFERENCE_HOST_S per kernel run."""
        self.catch_up(1.0)
        names = sorted(p.name for p in self.inputs.iterdir())
        for i in range(1, SETUP_REPEATS):
            other = self.work / f"inputs-{i}"
            if sorted(p.name for p in other.iterdir()) != names or any(
                    (self.inputs / n).read_bytes() != (other / n).read_bytes() for n in names):
                sys.exit(f"perfbench: input generation is not deterministic ({self.argv[2:]})")
        return (statistics.median(r[0] for r in self.runs),
                REFERENCE_HOST_S * statistics.median(r[1] for r in self.runs))


def call_cli(argv: list[str]) -> tuple[int, str, float]:
    """One ``magcurves`` command in-process: (exit code, stdout, seconds)."""
    from magcurves import cli
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    seconds = time.perf_counter() - t0
    if code != 0:
        print(f"perfbench: magcurves {' '.join(argv)} exited {code}: {err.getvalue().strip()}",
              file=sys.stderr)
    return code, out.getvalue(), seconds


def reference_s() -> float:
    """Wall time of a fixed piece of work that uses numpy and Python the way
    the package does (small-vector steps in a Python loop, then float
    formatting) but runs none of its code, so it measures only the host.

    On a shared host the CPU runs at one of two speeds, about 1.8x apart,
    for phases of a second to minutes.  A command's time divided by the mean
    of the reference runs just before and just after it cancels the phase it
    ran in; a change in the package moves the command and not the kernel."""
    t0 = time.perf_counter()
    x = np.linspace(0.1, 0.6, 6)
    a = np.eye(6)[::-1] * 0.5
    for _ in range(1200):
        x = x + 1e-3 * (a @ x + np.sin(x))
    ",".join(repr(float(v)) for v in np.tile(x, 900))
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# workloads: op() runs one operation and returns whether its output was right
# ---------------------------------------------------------------------------

class Workload:
    """Times every CLI command by name, separately for untraced and traced
    operations.  Each command run is bracketed by runs of the reference
    kernel, and its time is also kept in units of their mean."""

    samples_per_command: int

    def __init__(self):
        self.samples: dict[bool, dict[str, list[tuple[float, float]]]] = {False: {}, True: {}}
        reference_s()  # warm-up
        self.ref_s = reference_s()

    def cli(self, name: str, argv: list[str], traced: bool) -> tuple[int, str]:
        code, stdout, seconds = call_cli(argv)
        ref_s = reference_s()
        self.samples[traced].setdefault(name, []).append(
            (seconds, seconds / (0.5 * (self.ref_s + ref_s))))
        self.ref_s = ref_s
        return code, stdout

    def runs(self, traced: bool) -> int:
        """Runs of the least-run command (0 before the first)."""
        table = self.samples[traced]
        return min((len(v) for v in table.values()), default=0)

    def command_s(self, traced: bool, name: str, normalised: bool = False) -> float:
        """Median over the command's first samples_per_command runs."""
        runs = self.samples[traced][name][:self.samples_per_command]
        return statistics.median(r[normalised] for r in runs)

    def op_s(self, traced: bool, normalised: bool = False, names=None) -> float:
        """One operation: the sum of its commands' medians."""
        table = self.samples[traced]
        return sum(self.command_s(traced, name, normalised)
                   for name in (table if names is None else names))


class Sweep(Workload):
    """``magcurves sweep`` over the seeded grid with --jobs 1, then with
    --jobs 2.  Every row is judged against kappa*_pred here, since the
    command exits 0 with cells out of tolerance, and every CSV must equal the
    first one byte for byte, whatever --jobs."""

    item = "cells"
    samples_per_command = 4

    def __init__(self, inputs: Path, work: Path):
        super().__init__()
        self.config = inputs / "sweep.json"
        doc = json.loads(self.config.read_text())
        self.tol = doc["tol"]
        self.items_per_op = (len(doc["n_values"]) * len(doc["s_values"])
                             * len(doc["q_values"]) * len(doc["cos_theta_values"]))
        self.work = work
        self.reference: bytes | None = None
        self.rows = 0
        self.rows_in_tol = 0

    def _in_tol(self, row: dict) -> bool:
        k1p, k2p = float(row["kappa1_pred"]), float(row["kappa2_pred"])
        k1m, k2m = float(row["kappa1_meas"]), float(row["kappa2_meas"])
        if not (math.isfinite(k1m) and abs(k1m - k1p) <= self.tol):
            return False
        if math.isfinite(k2m):
            return abs(k2m - k2p) <= self.tol
        return k2p <= self.tol  # kappa2 is undefined only where it should vanish

    def op(self, traced: bool) -> bool:
        """Both --jobs values; a traced op runs --jobs 1 only, because spans
        recorded in pool workers are lost."""
        return all([self._sweep(jobs, traced) for jobs in ((1,) if traced else (1, 2))])

    def _sweep(self, jobs: int, traced: bool) -> bool:
        out = self.work / f"sweep-jobs{jobs}.csv"
        code, stdout = self.cli(f"sweep-jobs{jobs}", ["sweep", "--config", str(self.config),
                                                      "--out", str(out), "--jobs", str(jobs)],
                                traced)
        if code != 0:
            return False
        data = out.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        in_tol = sum(self._in_tol(r) for r in rows)
        self.rows += len(rows)
        self.rows_in_tol += in_tol
        if self.reference is None:
            self.reference = data
        return (json.loads(stdout)["rows"] == len(rows) == self.items_per_op
                and in_tol == len(rows) and data == self.reference)

    def summary(self, op_s: float) -> list[tuple[str, float, str]]:
        """Rates from the median sweep of each --jobs value (0 if none ran)."""
        rate1, rate2 = (self.items_per_op / self.command_s(False, name)
                        if name in self.samples[False] else 0.0
                        for name in ("sweep-jobs1", "sweep-jobs2"))
        return [("sweep.cells_per_s", rate1, "cells/s"),
                ("sweep.cells_per_s_jobs2", rate2, "cells/s"),
                ("sweep.pool_efficiency", rate2 / (2.0 * rate1) if rate1 else 0.0, "ratio")]


class Verify(Workload):
    """``magcurves verify --seed N`` at default sizes.  The report must pass
    and every call must print the same bytes."""

    item = "reports"
    items_per_op = 1
    samples_per_command = 13

    def __init__(self, inputs: Path, work: Path):
        super().__init__()
        self.argv = json.loads((inputs / "verify.json").read_text())["argv"]
        self.sha256: str | None = None
        self.checks = 0
        self.checks_passed = 0
        self.kind_cases = 0
        self.kind_matches = 0

    def op(self, traced: bool) -> bool:
        code, stdout = self.cli("verify", self.argv, traced)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.sha256 is None:
            self.sha256 = digest
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        self.checks += len(report["checks"])
        self.checks_passed += sum(c["passed"] for c in report["checks"])
        mismatches = next(c["max_err"] for c in report["checks"]
                          if c["name"] == "empirical_kind_agreement")
        self.kind_cases += report["cases"]
        self.kind_matches += report["cases"] - int(mismatches)
        return code == 0 and report["passed"] is True and digest == self.sha256

    def summary(self, op_s: float) -> list[tuple[str, float, str]]:
        return [("verify.report_s", op_s, "s")]


class Roundtrip(Workload):
    """``closed-form --out f.csv`` then ``classify --traj f.csv`` per config;
    the measured class must match predict_class in kind, kappa1 and kappa2."""

    item = "files"
    samples_per_command = 29

    def __init__(self, inputs: Path, work: Path):
        super().__init__()
        from magcurves.classify import predict_class
        self.configs = sorted(inputs.glob("closed-form-*.json"))
        self.items_per_op = len(self.configs)
        self.expected = []
        for path in self.configs:
            doc = json.loads(path.read_text())
            self.expected.append(predict_class(doc["q"], doc["cos_theta"], doc["s"]))
        self.work = work
        self.kind_cases = 0
        self.kind_matches = 0

    def op(self, traced: bool) -> bool:
        ok = True
        for i, (config, want) in enumerate(zip(self.configs, self.expected)):
            out = self.work / f"roundtrip-{i}.csv"
            code, _ = self.cli(f"closed-form-{i}", ["closed-form", "--config", str(config),
                                                    "--out", str(out)], traced)
            ok &= code == 0
            code, stdout = self.cli(f"classify-{i}", ["classify", "--traj", str(out)], traced)
            if code != 0:
                ok = False
                continue
            got = json.loads(stdout)
            self.kind_cases += 1
            self.kind_matches += got["class"] == want.kind.value
            ok &= (got["class"] == want.kind.value
                   and abs(got["kappa1"] - want.kappa1) <= CURVE_TOL
                   and abs(got["kappa2"] - want.kappa2) <= CURVE_TOL)
        return ok

    def summary(self, op_s: float) -> list[tuple[str, float, str]]:
        return [("roundtrip.files_per_s", self.items_per_op / op_s, "files/s")]


WORKLOAD_CLASSES = {"sweep-grid": Sweep, "verify-default": Verify, "exact-roundtrip": Roundtrip}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children."""
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT)
    except OSError:  # no git on the host
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine_record() -> dict:
    import numpy
    model = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh
                      if ln.startswith("model name")), model)
    digest = hashlib.sha256()
    for path in sorted((SRC / "magcurves").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "thread_env": {var: os.environ[var] for var in THREAD_ENV},
        "machine_settings_changed": False,
        "note": "no machine setting was changed: the file cache is not dropped "
                "and the CPU frequency is not pinned",
    }


def layer_metrics(tracer, wl) -> dict:
    """Per-layer metrics; counts and busy times are per traced operation,
    and ratios or per-unit costs read 0 where the layer did no work."""
    ops = tracer.op
    totals = tracer.totals()

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def count(name, key):
        return get(name, key) / ops

    def busy(name):
        return get(name, "busy_s") / ops

    def cost(name, key, scale):
        """busy time per unit of work, scaled to us or ms"""
        return scale * ratio(get(name, "busy_s"), get(name, key))

    integ, fren, cls, samp = ("dynamics.integrate", "frenet.apparatus",
                              "classify.trajectory", "closed_form.sample")
    m = {
        "dynamics.integrate.calls": (count(integ, "calls"), "count"),
        "dynamics.integrate.steps": (count(integ, "steps"), "count"),
        "dynamics.integrate.busy_s": (busy(integ), "s"),
        "dynamics.integrate.us_per_step": (cost(integ, "steps", 1e6), "us"),
        "dynamics.integrate.divergences": (count(integ, "divergences"), "count"),
        "frenet.apparatus.calls": (count(fren, "calls"), "count"),
        "frenet.apparatus.samples": (count(fren, "samples"), "count"),
        "frenet.apparatus.busy_s": (busy(fren), "s"),
        "frenet.apparatus.us_per_sample": (cost(fren, "samples", 1e6), "us"),
        "classify.trajectory.calls": (count(cls, "calls"), "count"),
        "classify.trajectory.busy_s": (busy(cls), "s"),
        "classify.trajectory.ms_per_call": (cost(cls, "calls", 1e3), "ms"),
        "classify.kind_match_ratio": (ratio(getattr(wl, "kind_matches", 0),
                                            getattr(wl, "kind_cases", 0)), "ratio"),
        "closed_form.sample.samples": (count(samp, "samples"), "count"),
        "closed_form.sample.busy_s": (busy(samp), "s"),
        "closed_form.sample.us_per_sample": (cost(samp, "samples", 1e6), "us"),
        "closed_form.residual.busy_s": (busy("closed_form.residual"), "s"),
        "io.write.rows": (count("io.write", "rows"), "count"),
        "io.write.bytes": (count("io.write", "bytes"), "B"),
        "io.write.busy_s": (busy("io.write"), "s"),
        "io.write.us_per_row": (cost("io.write", "rows", 1e6), "us"),
        "io.read.rows": (count("io.read", "rows"), "count"),
        "io.read.busy_s": (busy("io.read"), "s"),
        "io.read.us_per_row": (cost("io.read", "rows", 1e6), "us"),
    }
    for suite in ("structure", "connection", "curves", "classification"):
        m[f"verify.{suite}.busy_s"] = (busy(f"verify.{suite}"), "s")
    m["verify.checks_passed_ratio"] = (ratio(getattr(wl, "checks_passed", 0),
                                             getattr(wl, "checks", 0)), "ratio")
    m["sweep.run.busy_s"] = (busy("sweep.run"), "s")
    m["sweep.run.self_s"] = (count("sweep.run", "self_s"), "s")
    m["sweep.write_csv.busy_s"] = (busy("sweep.write_csv"), "s")
    m["sweep.cells_in_tol_ratio"] = (ratio(getattr(wl, "rows_in_tol", 0),
                                           getattr(wl, "rows", 0)), "ratio")
    if isinstance(wl, Sweep):
        m.update((name, (value, unit)) for name, value, unit in wl.summary(0.0))
    else:
        m.update({"sweep.cells_per_s": (0.0, "cells/s"),
                  "sweep.cells_per_s_jobs2": (0.0, "cells/s"),
                  "sweep.pool_efficiency": (0.0, "ratio")})
    m["cli.main.calls"] = (count("cli.main", "calls"), "count")
    m["cli.main.self_s"] = (count("cli.main", "self_s"), "s")
    # a traced sweep runs --jobs 1 only, so compare the same commands
    m["trace.overhead_ratio"] = (wl.op_s(True, True) / wl.op_s(False, True, wl.samples[True]),
                                 "ratio")
    m["trace.ops"] = (ops, "count")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description="magcurves benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    load_package()
    from spans import Tracer

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = SetUp(args.workload, args.seed, work)

    wl = WORKLOAD_CLASSES[args.workload](setup.inputs, work)
    attempted = failed = 0

    def run_op(traced: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        try:
            ok = wl.op(traced)
        except Exception:  # an operation that crashes counts as failed; keep measuring
            traceback.print_exc()
            ok = False
        failed += not ok

    # Traced operations alternate with untraced ones, so both see the same
    # phases of the host.  The window runs for --seconds and then until every
    # command has samples_per_command untraced runs (one in a traced run), so
    # the statistics take the same number of samples on every commit, however
    # fast the program is; 2 x --seconds is the hard limit.
    tracer = Tracer()
    want = 1 if args.trace else wl.samples_per_command
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        enough = wl.runs(False) >= want and wl.runs(True) >= args.trace
        if elapsed >= 2 * args.seconds or (elapsed >= args.seconds and enough):
            break
        if setup.catch_up(elapsed / args.seconds):
            wl.ref_s = reference_s()  # the next command's first bracket
        run_op(traced=False)
        if args.trace:
            tracer.op += 1
            with tracer.installed():
                run_op(traced=True)
    if wl.runs(False) == 0:
        sys.exit("perfbench: no command completed")

    op_s, op_ref = wl.op_s(False), wl.op_s(False, normalised=True)
    setup_wall_s, setup_s = setup.median_s()
    print("perfbench machine " + json.dumps(machine_record(), sort_keys=True))
    print(f"perfbench workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted - tracer.op} untraced and {tracer.op} traced ops in "
          f"{time.perf_counter() - start:.3g} s, closed loop, one client")
    print(f"  op {op_s:.6g} s, {op_ref:.6g} reference-kernel times, each command at its "
          f"median of {min(want, wl.runs(False))} runs; {wl.items_per_op} {wl.item} per op")
    print(f"  set-up {setup_wall_s:.6g} s wall, median of {SETUP_REPEATS}")
    if args.trace == 0:
        for name, value, unit in wl.summary(op_s):
            print(f"  {name} {value:.6g} {unit}")
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_ref": (op_ref, "ref"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        metrics = layer_metrics(tracer, wl)
        tracer.dump(work / "spans.json")
        print(f"  spans written to {work / 'spans.json'}")
    if isinstance(wl, Verify):
        print(f"  verify report sha256 {wl.sha256}")
    print(f"  fail_ratio {failed / attempted:.6g} failed/attempted ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
