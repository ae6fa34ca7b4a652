"""Contract tests of the command line.

Each subcommand declares exactly the options its handler reads. Every
option that ``build_parser()`` declares is given bad and edge values,
and model files, CSV cells and index lines are mutated, and whole curve
files are scaled until their squares overflow. Whatever the input,
``main`` must exit 0, 2 or 3 and never let an exception escape (which the
installed command would print as a traceback). Size options only get values
up to 3, so no case allocates much memory.
"""

import argparse
import ast
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from curveprob.harness import cli, experiments
from curveprob.harness.cli import build_parser, main
from curveprob.harness.io import load_curves, save_curves

from model_doc import MATRICES, decode, set_cell

FLOATS = ["-1", "0", "0.5", "nan", "inf", "-inf", "1e308", "1e400", "abc"]
SIZES = ["-1", "0", "1", "2", "3", "abc"]
SIZE_OPTIONS = {"--n", "--reps", "--mc", "--predictors", "--oracle-size", "--grid-d",
                "--window", "--ar-order", "--components"}
# string options that hold a number inside a spec
SPECS = {"--event": "extremal:d={}", "--family": "max-below:lo=-5,hi={}",
         "--truncation": "pve:{}", "--alphas": "1,{}", "--zs": "{}", "--x-scalars": "{}"}
FILES = ("series", "model", "x", "doy", "dow", "empty")
VALUES_PER_OPTION = 3
MUTATIONS_PER_FILE = 12


def base_args(files, tmp):
    """A small valid invocation of each subcommand: option -> value."""
    query = {"--model": files["model"], "--x": files["x"]}
    experiment = {"--n": "3", "--reps": "1", "--grid-d": "3", "--mc": "3",
                  "--predictors": "1", "--oracle-size": "3", "--out": tmp / "exp.csv"}
    daily = {"--doy": files["doy"], "--dow": files["dow"]}
    return {
        "simulate": {"--n": "3", "--grid-d": "3", "--out": tmp / "sim.csv"},
        "fit": {"--series": files["series"], "--out": tmp / "fit.json"},
        "estimate": {**query, "--event": "extremal:d=0", "--mc": "3"},
        "quantile": {**query, "--family": "max-below:lo=-5,hi=5", "--p": "0.5", "--mc": "3"},
        "band": {**query, "--mc": "3", "--out": tmp / "band.csv"},
        "coverage-exp": {k: v for k, v in experiment.items()
                         if k not in ("--predictors", "--oracle-size")},
        "rmse-exp": experiment,
        "quantile-exp": experiment,
        "entropy-eval": {"--response": files["series"], **daily, "--ar-order": "1",
                         "--mc": "3", "--out": tmp / "entropy.csv"},
        "deseasonalize": {"--series": files["series"], **daily, "--window": "3",
                          "--out": tmp / "adjusted.csv"},
        "baseline": {"estimator": "nw", "--train-series": files["series"], "--x": files["x"],
                     "--event": "extremal:d=0", "--out": tmp / "baseline.json"},
    }


def candidates(action, files):
    """The values an option is tried with."""
    flag = action.option_strings[0] if action.option_strings else action.dest
    if isinstance(action, argparse._StoreTrueAction):
        return [None]
    if action.choices:
        return list(action.choices) + ["abc"]
    if flag in SIZE_OPTIONS or action.type is int:
        return SIZES
    if action.type is float:
        return FLOATS
    if flag in SPECS:
        return [SPECS[flag].format(v) for v in FLOATS]
    if flag == "--out":  # relative names land in the test's working directory
        return ["out.csv", "out.json", "abc", ""]
    return [str(files[name]) for name in FILES] + ["abc", ""]


def flatten(args) -> list:
    argv = [str(args.pop("estimator"))] if "estimator" in args else []
    for flag, value in args.items():
        argv += [flag] if value is None else [flag, str(value)]
    return argv


def outcome(argv, capsys):
    """The exit code of ``main(argv)``, or the exception that escaped it, and
    what it wrote to stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001  any escape breaks the contract
        code = f"{type(exc).__name__}: {exc}"
    return code, capsys.readouterr().err


@pytest.fixture(scope="module")
def contract_files(tmp_path_factory):
    """A 40-day series on 8 intervals, its fitted model, one covariate, day
    indices and an empty file; no case writes to them."""
    tmp_path = tmp_path_factory.mktemp("contract")
    series = tmp_path / "series.csv"
    assert main(["simulate", "--n", "40", "--grid-d", "8", "--seed", "3",
                 "--out", str(series)]) == 0
    model = tmp_path / "model.json"
    assert main(["fit", "--series", str(series), "--truncation", "pve:0.85",
                 "--out", str(model)]) == 0
    x = tmp_path / "x.csv"
    save_curves(load_curves(series)[-1:], x)
    (tmp_path / "doy.csv").write_text("\n".join(str(k) for k in range(40)))
    (tmp_path / "dow.csv").write_text("\n".join(str(k % 7) for k in range(40)))
    (tmp_path / "empty.csv").write_text("")
    return {"series": series, "model": model, "x": x, "doy": tmp_path / "doy.csv",
            "dow": tmp_path / "dow.csv", "empty": tmp_path / "empty.csv"}


def check(cases, capsys):
    broken = [(argv, code) for argv in cases
              if (code := outcome(argv, capsys)[0]) not in (0, 2, 3)]
    assert not broken, "\n".join(f"{argv} -> {code}" for argv, code in broken)


SUBCOMMANDS = next(a for a in build_parser()._subparsers._group_actions
                   if isinstance(a, argparse._SubParsersAction)).choices


def args_read(name, functions) -> set:
    """The ``args.<option>`` attributes that the function ``name`` reads,
    following every module-level function it passes ``args`` to."""
    read = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) in functions
              and any(getattr(a, "id", None) == "args" for a in node.args)):
            read |= args_read(node.func.id, functions)
    return read


def test_every_subcommand_declares_exactly_the_options_its_handler_reads():
    functions = {node.name: node for node in ast.parse(inspect.getsource(cli)).body
                 if isinstance(node, ast.FunctionDef)}
    for name, parser in SUBCOMMANDS.items():
        declared = {a.dest for a in parser._actions if a.dest != "help"}
        assert declared == args_read(parser.get_default("fn").__name__, functions), name


@pytest.mark.parametrize("argv", [
    ["fit", "--series", "series.csv", "--grid-d", "3"],
    ["fit", "--series", "series.csv", "--seed", "5"],
    ["deseasonalize", "--series", "series.csv", "--doy", "doy.csv", "--seed", "1"],
    ["baseline", "nw", "--train-series", "s.csv", "--x", "x.csv", "--event", "extremal:d=0",
     "--grid-d", "3"],
    # --reps 0: where the option is accepted, the run stops at once
    ["rmse-exp", "--n", "30", "--reps", "0", "--target", "quantile"],
    ["quantile-exp", "--n", "30", "--reps", "0", "--event", "extremal:d=0"],
    ["rmse-exp", "--n", "30", "--reps", "0", "--search-hi", "8"],
    ["band", "--model", "model.json", "--x", "x.csv", "--literal-abs"],
    ["baseline", "nw", "--train-series", "s.csv", "--x", "x.csv", "--event", "extremal:d=0",
     "--x-scalars", "1"],
])
def test_an_option_no_handler_reads_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_every_option_keeps_the_exit_contract(command, contract_files, tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)  # default output names land here
    rng = random.Random(f"options {command}")
    base = base_args(contract_files, tmp_path)[command]
    cases = [[command, *flatten(dict(base))]]
    for action in SUBCOMMANDS[command]._actions:
        if action.dest == "help":
            continue
        key = action.option_strings[0] if action.option_strings else action.dest
        values = candidates(action, contract_files)
        for value in rng.sample(values, min(VALUES_PER_OPTION, len(values))):
            cases.append([command, *flatten({**base, key: value})])
    check(cases, capsys)


def mutate_file(path, rng, value):
    """Replace one cell (CSV or index file), or one field, one matrix cell,
    one character of a matrix's base64 text or one entry of its shape (model
    file) with ``value``."""
    text = path.read_text()
    if path.suffix == ".json":
        doc = json.loads(text)
        key = rng.choice(sorted(doc))
        if key in MATRICES:
            target = rng.choice(["cell", "f8le", "shape"])
            if target == "cell" and value != "abc":
                size = len(decode(doc[key]).flat)
                return set_cell(text, key, rng.randrange(size), float(value))
            if target == "shape":
                shape = doc[key]["shape"]
                shape[rng.randrange(len(shape))] = "@@"
            else:
                encoded = doc[key]["f8le"]
                at = rng.randrange(len(encoded))
                doc[key]["f8le"] = encoded[:at] + value + encoded[at + 1:]
        else:
            doc[key] = "@@"
        token = value if value != "abc" else '"abc"'
        token = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(token, token)
        return json.dumps(doc).replace('"@@"', token)
    lines = text.splitlines()
    r = rng.randrange(len(lines))
    cells = lines[r].split(",")
    cells[rng.randrange(len(cells))] = value
    lines[r] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, command", [
    ("model", ["estimate", "--model", "{model}", "--x", "{x}", "--event", "extremal:d=0",
               "--method", "gauss", "--mc", "3"]),
    ("x", ["estimate", "--model", "{model}", "--x", "{x}", "--event", "extremal:d=0"]),
    ("series", ["fit", "--series", "{series}", "--out", "{out}"]),
    ("doy", ["deseasonalize", "--series", "{series}", "--doy", "{doy}", "--dow", "{dow}",
             "--window", "3", "--out", "{out}"]),
])
def test_a_mutated_input_file_keeps_the_exit_contract(name, command, contract_files,
                                                     tmp_path, capsys):
    rng = random.Random(f"files {name}")
    original = contract_files[name]
    cases = []
    for i in range(MUTATIONS_PER_FILE):
        mutated = tmp_path / f"mutated_{i}{original.suffix}"
        mutated.write_text(mutate_file(original, rng, rng.choice(FLOATS + SIZES)))
        paths = {**contract_files, name: mutated, "out": tmp_path / "out.csv"}
        cases.append([a.format(**paths) for a in command])
    check(cases, capsys)


OVERFLOW_SCALE = 1e200  # curve values stay finite, their squares and products do not


def test_curve_files_scaled_to_overflow_keep_the_exit_contract(contract_files, tmp_path,
                                                               capsys):
    scaled = {}
    for name in ("series", "x"):
        scaled[name] = tmp_path / f"scaled_{name}.csv"
        save_curves(OVERFLOW_SCALE * load_curves(contract_files[name]), scaled[name])
    cases = []
    for files in ({**contract_files, "series": scaled["series"]},
                  {**contract_files, "x": scaled["x"]}, {**contract_files, **scaled}):
        for command, args in base_args(files, tmp_path).items():
            if not {str(path) for path in scaled.values()} & {str(v) for v in args.values()}:
                continue
            cases.append([command, *flatten(dict(args))])
            if command == "baseline":
                cases.append([command, *flatten({**args, "estimator": "glm"})])
    broken = []
    for argv in cases:
        code, err = outcome(argv, capsys)
        if code not in (0, 2, 3) or code and err.count("\n") != 1:
            broken.append(f"{argv} -> {code}: {err!r}")
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_curve_files_scaled_to_overflow_write_one_stderr_line_in_a_fresh_process(
        scale, contract_files, tmp_path):
    # pytest captures the warnings of the in-process tests; a fresh
    # interpreter would print any that reach it
    series = tmp_path / "scaled.csv"
    save_curves(scale * load_curves(contract_files["series"]), series)
    query = ["--x", contract_files["x"], "--event", "extremal:d=0"]
    commands = [
        ["fit", "--series", series, "--out", tmp_path / "fit.json"],
        ["baseline", "nw", "--train-series", series, *query],
        ["baseline", "nw", "--train-series", series, *query, "--bandwidth", "1"],
        ["baseline", "glm", "--train-series", series, *query],
        ["baseline", "glm", "--train-series", series, *query, "--link", "probit"],
        ["entropy-eval", "--response", series, "--doy", contract_files["doy"],
         "--dow", contract_files["dow"], "--out", tmp_path / "entropy.csv"],
    ]
    src = str(Path(cli.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for argv in commands:
        done = subprocess.run([sys.executable, "-m", "curveprob.harness.cli", *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 3, (argv, done.stderr)
        assert done.stderr.startswith("degenerate input: ") and done.stderr.count("\n") == 1, (
            argv, done.stderr)


@pytest.mark.parametrize("command", [
    ["estimate", "--model", "{model}", "--x", "{x}"],
    ["baseline", "nw", "--train-series", "{series}", "--x", "{x}"],
    ["rmse-exp", "--n", "3", "--reps", "1", "--grid-d", "8", "--mc", "3", "--predictors", "1",
     "--oracle-size", "3", "--out", "{out}"],
])
def test_a_contrast_curve_on_another_grid_is_a_usage_error(command, contract_files, tmp_path,
                                                           capsys, monkeypatch):
    # the contract files are on grid 8, the contrast curve on grid 10
    gamma = tmp_path / "gamma.csv"
    save_curves(np.ones((1, 11)), gamma)
    monkeypatch.setattr(experiments, "oracle_event_probability",
                        lambda *args: pytest.fail("an oracle truth was computed"))
    paths = {**contract_files, "out": tmp_path / "out.csv"}
    argv = [a.format(**paths) for a in command] + ["--event", f"contrast:gamma=@{gamma},a=0.5"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: contrast curve is on grid 10")
