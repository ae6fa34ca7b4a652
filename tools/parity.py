"""Check that two source trees give the same outputs for every subcommand.

    python3 tools/parity.py --against DIR
    python3 tools/parity.py --against DIR --acceptance

DIR is another checkout of the repository, for example a ``git archive`` of
the parent commit. The script runs one fixed, seeded list of ``curveprob``
commands at tiny sizes in this tree and in DIR. Each command is a fresh
``python -m curveprob.harness.cli`` with that tree's ``src`` first on
``PYTHONPATH`` and one BLAS thread, run in a scratch directory of the tree's
own, so each tree chains its own ``simulate`` -> ``fit`` -> query outputs.

It compares CSV outputs byte for byte; JSON outputs and JSON on stdout with
``runtime_seconds`` left out; model files by what each tree's own
``from_json`` reads from its file, in a fresh one-thread interpreter:
``coef_w``, the means, the residuals, the covariate eigenpairs, the noise
eigenpairs up to the Gaussian sampler's rank and the header scalars; and,
for a few single bad inputs, the exit code and the last line of stderr, the
message. It prints one line per output and exits 1 on any difference or on
a valid command that fails.

With ``--acceptance`` it runs ``pytest -m acceptance`` instead, in each tree
in turn (a few minutes each), at one BLAS thread, and compares the
``[acceptance]`` lines the two runs print, one by one: one line each, and
exit 1 on any difference or on a run that prints none.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]

_SMALL = ["--grid-d", "16", "--mc", "60", "--seed", "1"]
_ORACLE = [*_SMALL, "--n", "30", "--predictors", "2", "--reps", "2", "--oracle-size", "100"]
_QUERY = ["--model", "model.json", "--x", "x.csv"]
_LEVEL = "level:alpha=7,z=0.5"
# one event of each kind that estimate reads besides level; the contrast
# curve is the covariate's, on the model's grid
_EVENTS = {"excursion": "excursion:d=7,c=0.25", "boundary": "boundary:lo=4,hi=10",
           "complement": f"complement:{_LEVEL}", "contrast": "contrast:gamma=@x.csv,a=49"}
_DAYS = ["--doy", "doy.txt", "--dow", "dow.txt"]

# (name, argv) of commands that must succeed; each writes the file after
# --out, and what it prints on stdout is compared as JSON. The covariate
# files x.csv and x2.csv are written after the simulate steps.
VALID = [
    ("simulate far_paparoditis", ["simulate", "--dgp", "far_paparoditis", "--n", "20",
                                  "--grid-d", "16", "--seed", "3", "--b", "0.4",
                                  "--burn-in", "5", "--out", "paparoditis.csv"]),
    ("simulate far_synthetic", ["simulate", "--dgp", "far_synthetic", "--n", "90",
                                "--grid-d", "16", "--seed", "3", "--out", "synthetic.csv"]),
    ("simulate brownian", ["simulate", "--dgp", "brownian", "--n", "90", "--grid-d", "16",
                           "--seed", "4", "--out", "brownian.csv"]),
    ("fit", ["fit", "--series", "synthetic.csv", "--out", "model.json"]),
    ("fit --exog", ["fit", "--series", "synthetic.csv", "--exog", "brownian.csv",
                    "--truncation", "pve:0.9", "--out", "model_exog.json"]),
    ("estimate boot", ["estimate", *_QUERY, "--event", _LEVEL, "--out", "estimate_boot.json"]),
    ("estimate gauss", ["estimate", *_QUERY, "--event", _LEVEL, "--method", "gauss",
                        "--mc", "200", "--seed", "7"]),
    ("estimate boot --exog", ["estimate", "--model", "model_exog.json", "--x", "x2.csv",
                              "--event", _LEVEL]),
    *((f"estimate {method} {kind}", ["estimate", *_QUERY, "--event", spec, "--method", method,
                                     "--mc", "200", "--seed", "7"])
      for kind, spec in _EVENTS.items() for method in ("boot", "gauss")),
    ("quantile", ["quantile", *_QUERY, "--family", "level-alpha:z=0.5,lo=0,hi=25",
                  "--p", "0.9", "--method", "gauss", "--mc", "200", "--seed", "7"]),
    ("quantile max-below", ["quantile", *_QUERY, "--family", "max-below:lo=0,hi=25",
                            "--p", "0.9", "--method", "gauss", "--mc", "200", "--seed", "7"]),
    ("quantile level-z", ["quantile", *_QUERY, "--family", "level-z:alpha=7", "--p", "0.6"]),
    ("band", ["band", *_QUERY, "--nominal", "0.9", "--method", "gauss", "--mc", "200",
              "--seed", "7", "--out", "band.csv"]),
    ("band boot", ["band", *_QUERY, "--nominal", "0.9", "--out", "band_boot.csv"]),
    ("deseasonalize", ["deseasonalize", "--series", "synthetic.csv", *_DAYS, "--window", "7",
                       "--out", "adjusted.csv"]),
    ("baseline nw", ["baseline", "nw", "--train-series", "synthetic.csv", "--x", "x.csv",
                     "--event", _LEVEL]),
    ("baseline glm", ["baseline", "glm", "--train-series", "synthetic.csv", "--x", "x.csv",
                      "--event", _LEVEL, "--components", "2"]),
    ("baseline glm --link probit", ["baseline", "glm", "--train-series", "synthetic.csv",
                                    "--x", "x.csv", "--event", _LEVEL, "--components", "2",
                                    "--link", "probit"]),
    ("coverage-exp", ["coverage-exp", *_SMALL, "--n", "30", "--reps", "4", "--b", "0.4",
                      "--out", "coverage.csv"]),
    ("rmse-exp", ["rmse-exp", *_ORACLE, "--methods", "boot,gauss,glm,nw", "--out", "rmse.csv"]),
    ("quantile-exp", ["quantile-exp", *_ORACLE, "--search-hi", "12", "--out", "quantile.json"]),
    ("entropy-eval", ["entropy-eval", "--response", "synthetic.csv", "--exog", "brownian.csv",
                      *_DAYS, "--ar-order", "2", "--alphas", "6,7,8",
                      "--methods", "boot,gauss,glm,nw", "--mc", "60", "--out", "entropy.csv"]),
    # the reproducibility criterion's three commands, as the acceptance suite runs them
    ("criterion 8 coverage-exp", ["coverage-exp", "--n", "30", "--reps", "6", "--grid-d", "20",
                                  "--mc", "150", "--seed", "99", "--out", "cov8.csv"]),
    ("criterion 8 rmse-exp", ["rmse-exp", "--n", "30", "--predictors", "4", "--reps", "4",
                              "--grid-d", "20", "--oracle-size", "400", "--mc", "150",
                              "--methods", "boot,gauss", "--seed", "55", "--out", "rmse8.csv"]),
    ("criterion 8 simulate", ["simulate", "--dgp", "far_synthetic", "--n", "15",
                              "--grid-d", "20", "--seed", "13", "--out", "sim8.csv"]),
]

# prints, as JSON, what a tree's from_json reads from the model file argv[1]
_READ_MODEL = """
import base64, dataclasses, json, sys
from curveprob.flm import from_json

m = from_json(open(sys.argv[1], encoding="utf-8").read())
lam, vecs = m.noise_spectrum.leading(m.noise_spectrum.sampler_rank())
arrays = {"coef_w": m.coef_w, "x_mean_coords": m.x_mean_coords, "y_mean": m.y_mean,
          "residual_matrix": m.residual_matrix,
          "covariate_eigenvalues": m.covariate_spectrum.eigenvalues,
          "covariate_eigenvectors": m.covariate_spectrum.eigenvectors,
          "noise_eigenvalues": lam, "noise_eigenvectors": vecs}
doc = {key: {"shape": list(a.shape), "f8le": base64.b64encode(a.astype("<f8").tobytes()).decode()}
       for key, a in arrays.items()}
doc.update(grid_d=m.grid.resolution, n_curve_parts=m.n_curve_parts, n_scalars=m.n_scalars,
           n_components=m.n_components, centered=m.centered, dof_correction=m.dof_correction,
           truncation=dataclasses.asdict(m.truncation))
print(json.dumps(doc))
"""

# (name, argv) of single bad inputs: the exit code and the message are compared
BAD = [
    ("simulate --b on a first-order process", ["simulate", "--dgp", "far_synthetic",
                                               "--n", "5", "--b", "0.4", "--out", "bad.csv"]),
    ("simulate --n 0", ["simulate", "--n", "0", "--out", "bad.csv"]),
    ("simulate --burn-in -1", ["simulate", "--n", "5", "--burn-in", "-1", "--out", "bad.csv"]),
    *((f"fit --truncation {rule}", ["fit", "--series", "synthetic.csv", "--truncation", rule,
                                    "--out", "bad.json"])
      for rule in ("pve:abc", "pve:1.5", "fixed:0", "threshold:mn=0.5")),
    ("baseline glm --components 0", ["baseline", "glm", "--train-series", "synthetic.csv",
                                     "--x", "x.csv", "--event", _LEVEL, "--components", "0"]),
    ("entropy-eval --pve 1.5", ["entropy-eval", "--response", "synthetic.csv", *_DAYS,
                                "--pve", "1.5", "--out", "bad.csv"]),
    ("entropy-eval --methods boot,bogus", ["entropy-eval", "--response", "synthetic.csv",
                                           *_DAYS, "--methods", "boot,bogus",
                                           "--out", "bad.csv"]),
    ("estimate --event bogus", ["estimate", *_QUERY, "--event", "bogus:d=1"]),
    ("quantile --family bogus", ["quantile", *_QUERY, "--family", "bogus:lo=0,hi=1",
                                 "--p", "0.5"]),
    ("quantile range never reached", ["quantile", *_QUERY, "--family",
                                      "max-below:lo=-50,hi=-49", "--p", "0.5"]),
    ("coverage-exp --n 2", ["coverage-exp", *_SMALL, "--n", "2", "--reps", "2",
                            "--out", "bad.csv"]),
    ("coverage-exp --b 1e308", ["coverage-exp", *_SMALL, "--n", "20", "--reps", "1",
                                "--b", "1e308", "--out", "bad.csv"]),
    ("coverage-exp --out bad.txt", ["coverage-exp", *_SMALL, "--n", "20", "--reps", "1",
                                    "--out", "bad.txt"]),
    ("rmse-exp --n 2", ["rmse-exp", *_ORACLE, "--n", "2", "--out", "bad.csv"]),
    ("rmse-exp --dgp unknown", ["rmse-exp", *_ORACLE, "--dgp", "unknown", "--out", "bad.csv"]),
    ("quantile-exp --n 1", ["quantile-exp", *_ORACLE, "--n", "1", "--out", "bad.csv"]),
]


def _write_covariates(work: Path) -> None:
    """x.csv holds the last curve of the tree's own far_synthetic series, and
    x2.csv adds the last brownian path, the covariate of the --exog model."""
    header, *rows = (work / "synthetic.csv").read_text(encoding="utf-8").splitlines()
    last_brownian = (work / "brownian.csv").read_text(encoding="utf-8").splitlines()[-1]
    (work / "x.csv").write_text(f"{header}\n{rows[-1]}\n", encoding="utf-8")
    (work / "x2.csv").write_text(f"{header}\n{rows[-1]}\n{last_brownian}\n", encoding="utf-8")


def _tree_env(tree: Path) -> dict:
    """The environment that runs ``tree``'s package at one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _run_tree(tree: Path, work: Path) -> dict:
    """{name: (exit code, stdout, stderr)} of every command, run in ``work``,
    and of reading each model file that ``fit`` writes, under the name of its
    output file."""
    env = _tree_env(tree)
    (work / "doy.txt").write_text("".join(f"{d % 365}\n" for d in range(90)), encoding="utf-8")
    (work / "dow.txt").write_text("".join(f"{d % 7}\n" for d in range(90)), encoding="utf-8")
    results = {}
    for name, argv in VALID + BAD:
        proc = subprocess.run([sys.executable, "-m", "curveprob.harness.cli", *argv], cwd=work,
                              env=env, capture_output=True, text=True, timeout=300)
        results[name] = (proc.returncode, proc.stdout, proc.stderr)
        if argv[0] == "fit" and not proc.returncode:
            out = argv[argv.index("--out") + 1]
            read = subprocess.run([sys.executable, "-c", _READ_MODEL, out], cwd=work, env=env,
                                  capture_output=True, text=True, timeout=300)
            results[out] = (read.returncode, read.stdout, read.stderr)
        if name == "simulate brownian" and (work / "synthetic.csv").exists() and not proc.returncode:
            _write_covariates(work)
    return results


def _decode(node):
    """JSON with each base64 float64 matrix as an array; runtimes are left out."""
    if isinstance(node, dict):
        if set(node) == {"shape", "f8le"}:
            raw = np.frombuffer(base64.b64decode(node["f8le"]), dtype="<f8")
            return raw.reshape(node["shape"])
        return {k: _decode(v) for k, v in node.items() if k != "runtime_seconds"}
    if isinstance(node, list):
        return [_decode(v) for v in node]
    return node


def _differences(a, b, path="") -> list:
    """Paths at which two decoded documents differ, bit for bit."""
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        same = a.shape == b.shape and a.astype("<f8").tobytes() == b.astype("<f8").tobytes()
        return [] if same else [path or "."]
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return [f"{path}{{keys}}"]
        return [d for k in sorted(a) for d in _differences(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (x, y) in enumerate(zip(a, b)) for d in _differences(x, y, f"{path}[{i}]")]
    return [] if type(a) is type(b) and repr(a) == repr(b) else [path or "."]


def _compare_json(text_a: str, text_b: str) -> list:
    try:
        return _differences(_decode(json.loads(text_a)), _decode(json.loads(text_b)))
    except json.JSONDecodeError as exc:
        return [f"not JSON ({exc})"]


def _compare_file(a: Path, b: Path) -> list:
    if not a.exists() or not b.exists():
        return ["missing in " + ("this tree" if not a.exists() else "the other tree")]
    if a.suffix == ".json":
        return _compare_json(a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8"))
    return [] if a.read_bytes() == b.read_bytes() else ["bytes differ"]


def compare(here: dict, there: dict, work_here: Path, work_there: Path) -> list:
    """(label, differences) per output; a valid command that fails is a difference."""
    lines = []
    for name, argv in VALID:
        (code_a, out_a, _), (code_b, out_b, _) = here[name], there[name]
        if code_a or code_b:
            lines.append((name, [f"exit codes {code_a} and {code_b}"]))
            continue
        if argv[0] == "fit":
            out = argv[argv.index("--out") + 1]
            (read_a, model_a, _), (read_b, model_b, _) = here[out], there[out]
            diff = ([f"reading it exits {read_a} and {read_b}"]
                    if read_a or read_b else _compare_json(model_a, model_b))
            lines.append((f"{name}: {out} as read", diff))
        elif "--out" in argv:
            out = argv[argv.index("--out") + 1]
            lines.append((f"{name}: {out}", _compare_file(work_here / out, work_there / out)))
        if out_a or out_b:
            lines.append((f"{name}: stdout", _compare_json(out_a, out_b)))
    for name, _ in BAD:
        (code_a, _, err_a), (code_b, _, err_b) = here[name], there[name]
        diff = [] if code_a == code_b else [f"exit codes {code_a} and {code_b}"]
        # the message is the last line; warnings above it name files and line numbers
        err_a, err_b = (err.strip().rsplit("\n", 1)[-1] for err in (err_a, err_b))
        if err_a != err_b:
            diff.append(f"stderr {err_a!r} and {err_b!r}")
        lines.append((f"{name}: exit {code_a}", diff))
    return lines


def acceptance_lines(output: str) -> list:
    """The ``[acceptance]`` lines of a pytest run's terminal output, in order."""
    return [line[line.index("[acceptance]"):].rstrip()
            for line in output.splitlines() if "[acceptance]" in line]


def _run_acceptance(tree: Path) -> list:
    proc = subprocess.run([sys.executable, "-m", "pytest", "-m", "acceptance", "-q",
                           "-p", "no:cacheprovider", "tests"], cwd=tree, env=_tree_env(tree),
                          capture_output=True, text=True, timeout=3600)
    return acceptance_lines(proc.stdout)


def compare_acceptance(here: list, there: list) -> list:
    """(label, differences) per ``[acceptance]`` line, paired in order; a run
    that prints no line is a difference."""
    if not here or not there:
        return [("[acceptance] lines", [f"{len(here)} and {len(there)} lines printed"])]
    lines = []
    for i in range(max(len(here), len(there))):
        a, b = (run[i] if i < len(run) else None for run in (here, there))
        label = (a or b).split(":", 1)[0].removeprefix("[acceptance] ")
        lines.append((label, [] if a == b else [f"{a!r} and {b!r}"]))
    return lines


def report(lines: list, here: Path, other: Path) -> int:
    """Print one line per output and a summary; 1 on any difference."""
    for label, diff in lines:
        print(f"DIFF  {label}  ({'; '.join(diff[:5])})" if diff else f"same  {label}")
    bad = sum(bool(diff) for _, diff in lines)
    print(f"{len(lines) - bad} of {len(lines)} outputs are the same in {here} and {other}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, type=Path,
                        help="the other source tree (holding src/curveprob)")
    parser.add_argument("--acceptance", action="store_true",
                        help="compare the [acceptance] lines of each tree's acceptance suite")
    args = parser.parse_args(argv)
    other = args.against.resolve()
    if not (other / "src" / "curveprob").is_dir():
        parser.error(f"{other} holds no src/curveprob")
    if args.acceptance:
        return report(compare_acceptance(_run_acceptance(HERE), _run_acceptance(other)),
                      HERE, other)
    with tempfile.TemporaryDirectory(prefix="curveprob-parity-") as scratch:
        work_here, work_there = Path(scratch, "here"), Path(scratch, "there")
        work_here.mkdir()
        work_there.mkdir()
        with ThreadPoolExecutor(max_workers=2) as pool:
            here = pool.submit(_run_tree, HERE, work_here)
            there = pool.submit(_run_tree, other, work_there)
            lines = compare(here.result(), there.result(), work_here, work_there)
    return report(lines, HERE, other)


if __name__ == "__main__":
    raise SystemExit(main())
