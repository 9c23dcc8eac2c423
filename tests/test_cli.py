import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from opmeans import inequalities, multimeans
from opmeans.errors import OpmeansError
from opmeans.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_SEARCH_EXHAUSTED,
    build_parser,
    main,
)
from opmeans.inequalities import FAMILIES, check_compression_reverse, run_cell
from opmeans.psd_core import matrix_from_json, random_spd, validate_spd


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def matrix_json(a):
    return {"dim": a.shape[0], "entries": [[float(x) for x in row] for row in a]}


def test_mean_karcher_of_identities(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [1 / 3] * 3})
    mats = write(tmp_path, "mats.json", [matrix_json(np.eye(2))] * 3)
    code = main(["mean", "--spec", spec, "--matrices", mats])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert out["iterations"] == 0
    np.testing.assert_allclose(out["value"]["entries"], np.eye(2), atol=1e-12)


def test_mean_power_alpha_one_is_arithmetic(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"kind": "power", "weights": [0.5, 0.5], "alpha": 1.0})
    mats = write(
        tmp_path, "mats.json", [matrix_json(np.diag([1.0, 2.0])), matrix_json(np.diag([3.0, 4.0]))]
    )
    code = main(["mean", "--spec", spec, "--matrices", mats])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    np.testing.assert_allclose(out["value"]["entries"], np.diag([2.0, 3.0]), atol=1e-9)


def test_mean_karcher_commuting_weighted_geometric(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [0.4, 0.6]})
    mats = write(
        tmp_path, "mats.json", [matrix_json(np.diag([1.0, 2.0])), matrix_json(np.diag([3.0, 0.5]))]
    )
    code = main(["mean", "--spec", spec, "--matrices", mats])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    expect = np.diag([3.0**0.6, 2.0**0.4 * 0.5**0.6])
    np.testing.assert_allclose(out["value"]["entries"], expect, atol=1e-9)


def test_mean_input_error(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [1.0]})
    mats = write(tmp_path, "mats.json", [{"dim": 2, "entries": [[1.0, 0.0], [0.0, -1.0]]}])
    code = main(["mean", "--spec", spec, "--matrices", mats])
    capsys.readouterr()
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "deformed", "weights": [0.5, 0.5], "base": {"kind": "arithmetic", "weights": [0.5, 0.5]}},
        {"kind": "deformed", "sigma": {"kind": "harmonic", "params": {"alpha": 0.5}}},
        {"kind": "power", "weights": [0.5, 0.5]},
        {"kind": "power", "weights": [0.5, 0.5], "alpha": "half"},
        {"kind": "adjoint"},
    ],
)
def test_mean_incomplete_spec_is_input_error(tmp_path, capsys, spec):
    spec_path = write(tmp_path, "spec.json", spec)
    mats = write(tmp_path, "mats.json", [matrix_json(np.eye(2)), matrix_json(2 * np.eye(2))])
    code = main(["mean", "--spec", spec_path, "--matrices", mats])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert "MissingParameter" in err


@pytest.mark.parametrize("weights", [[True, False], ["0.5", "0.5"]])
def test_mean_weights_that_are_not_numbers_are_input_errors(tmp_path, capsys, weights):
    # Python reads true as 1 and "0.5" as 0.5; the wire format takes numbers only
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": weights})
    mats = write(tmp_path, "mats.json", [matrix_json(np.eye(2)), matrix_json(2 * np.eye(2))])
    code = main(["mean", "--spec", spec, "--matrices", mats])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == "" and "InvalidWeights: weights must be a list of numbers" in err


@pytest.mark.parametrize(
    "flags", [["--tol", "-1"], ["--max-iters", "0"], ["--tol", "inf"], ["--tol", "nan"]]
)
def test_mean_bad_solver_flags_are_input_errors(tmp_path, capsys, flags):
    # no subcommand takes a solver setting, so these flags are unknown
    # options: a usage error before any input is read
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [0.5, 0.5]})
    mats = write(tmp_path, "mats.json", [matrix_json(np.eye(2)), matrix_json(2 * np.eye(2))])
    for argv in (
        ["mean", "--spec", spec, "--matrices", mats, "--no-certify", *flags],
        ["verify", campaign(tmp_path), *flags],
    ):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT, argv
        assert out == "" and "usage:" in err, argv


def test_subcommand_options_are_pinned():
    # the options of each subcommand are part of the interface; none of them
    # is a solver tolerance or iteration cap
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    options = {
        name: sorted(s for a in parser._actions for s in a.option_strings)
        for name, parser in sub.choices.items()
    }
    assert options == {
        "mean": ["--help", "--matrices", "--no-certify", "--output", "--spec", "-h"],
        "verify": ["--help", "--output", "--recheck", "--threads", "-h"],
        "search": ["--help", "--mode", "--output", "--r", "--tau", "-h"],
        "kantorovich": ["--help", "--output", "-h"],
    }


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # one parser serves every call in a process; a call gives the same exit
    # code and output whether it comes first or after other subcommands
    assert build_parser() is build_parser()
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [0.5, 0.5]})
    mats = write(tmp_path, "mats.json", [matrix_json(np.eye(2)), matrix_json(np.diag([2.0, 3.0]))])
    calls = [
        ["mean", "--spec", spec, "--matrices", mats],
        ["kantorovich", "2", "2"],
        ["mean", "--spec", spec, "--matrices", mats, "--no-certify"],
    ]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()

    first = []
    for argv in calls:
        build_parser.cache_clear()
        first.append(run(argv))
    assert [code for code, _ in first] == [EXIT_OK] * 3
    build_parser.cache_clear()
    assert [run(argv) for argv in calls] == first


def test_mean_no_convergence_payload_names_members(tmp_path, capsys, monkeypatch):
    # a certified Karcher solve cut at 1 step (it converges in 2): exit 2 with
    # a diagnostic that lists each member still live, the mean and both enclosure ends
    monkeypatch.setattr(multimeans, "MAX_ITERS", 1)
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [0.2, 0.3, 0.5]})
    mats = write(tmp_path, "mats.json", [matrix_json(random_spd(3, (0.5, 2.0), 77 + j).a) for j in range(3)])
    code = main(["mean", "--spec", spec, "--matrices", mats])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_NO_CONVERGENCE
    assert sorted(out) == ["error", "members", "message", "residual"]
    assert out["error"] == "NoConvergence"
    assert [(m["member"], m["what"].split()[0]) for m in out["members"]] == [
        (0, "Karcher"), (1, "enclosure"), (2, "enclosure")
    ]
    assert out["residual"] == max(m["bound"] for m in out["members"])
    # each member's bound is its residual plus the rounding of its evaluation
    assert all(0 < m["residual"] < m["bound"] for m in out["members"])


def _no_constants(name):
    raise ValueError(f"not strict JSON: {name}")


def test_mean_no_convergence_payload_is_strict_json(tmp_path, capsys):
    # harmonic(1/10) over the arithmetic mean at spread 1e8 ends with an
    # infinite bound: the diagnostic writes it as null, not as Infinity
    base = {"kind": "arithmetic", "weights": [0.2, 0.3, 0.5]}
    sigma = {"kind": "harmonic", "params": {"alpha": 0.1}}
    spec = write(tmp_path, "spec.json", {"kind": "deformed", "base": base, "sigma": sigma})
    mats = write(tmp_path, "mats.json", [matrix_json(random_spd(4, (1.0, 1e8), 58020 + j).a)
                                         for j in range(3)])
    code = main(["mean", "--spec", spec, "--matrices", mats])
    out = json.loads(capsys.readouterr().out, parse_constant=_no_constants)
    assert code == EXIT_NO_CONVERGENCE
    assert out["residual"] is None
    assert [m["bound"] for m in out["members"]] == [None]


def test_mean_unwritable_output_is_input_error(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [0.5, 0.5]})
    mats = write(tmp_path, "mats.json", [matrix_json(np.eye(2)), matrix_json(2 * np.eye(2))])
    out = str(tmp_path / "missing" / "x.json")
    code = main(["mean", "--spec", spec, "--matrices", mats, "--output", out])
    assert "ConfigError" in capsys.readouterr().err
    assert code == EXIT_INPUT


# one fault of each kind that matrix_from_json and validate_spd reject
_FAULTY_MATRICES = {
    "not-square": {"dim": 2, "entries": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]},
    "dim-not-integer": {"dim": "two", "entries": [[1.0, 0.0], [0.0, 1.0]]},
    "declared-dim-mismatch": {"dim": 3, "entries": [[1.0, 0.0], [0.0, 1.0]]},
    "empty": {"dim": 0, "entries": []},
    "not-finite": {"dim": 2, "entries": [[float("inf"), 0.0], [0.0, 1.0]]},
    "nan": {"dim": 2, "entries": [[1.0, float("nan")], [float("nan"), 1.0]]},
    "asymmetric": {"dim": 2, "entries": [[1.0, 0.5], [0.0, 1.0]]},
    "asymmetric-past-threshold": {"dim": 2, "entries": [[1.0, 2e-8], [0.0, 1.0]]},
    "asymmetric-at-float-range": {"dim": 2, "entries": [[1e308, 1e308], [-1e308, 1e308]]},
    "indefinite": {"dim": 2, "entries": [[1.0, 0.0], [0.0, -1.0]]},
    "below-relative-threshold": {"dim": 2, "entries": [[1e-200, 0.0], [0.0, 1.0]]},
    "spectrum-overflow": {"dim": 2, "entries": [[1e308, 1e308], [1e308, 1e308]]},
}


@pytest.mark.parametrize("fault", sorted(_FAULTY_MATRICES))
def test_mean_names_a_faulty_matrix_in_a_stack_as_alone(tmp_path, capsys, fault):
    # the inputs are validated as one stack, yet a fault at index 1 of three
    # gives the error type and message matrix_from_json gives that matrix
    with pytest.raises(OpmeansError) as alone:
        matrix_from_json(_FAULTY_MATRICES[fault])
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [0.2, 0.3, 0.5]})
    faulty = [matrix_json(np.eye(2)), _FAULTY_MATRICES[fault], matrix_json(np.diag([1.0, 2.0]))]
    mats = write(tmp_path, "mats.json", faulty)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["mean", "--spec", spec, "--matrices", mats])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT and out == ""
    assert err == f"error: {type(alone.value).__name__}: {alone.value}\n"


def test_mean_of_mixed_dimensions_is_input_error(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [0.2, 0.3, 0.5]})
    mats = write(tmp_path, "mats.json", [matrix_json(np.eye(2)), matrix_json(np.eye(3)), matrix_json(np.eye(2))])
    code = main(["mean", "--spec", spec, "--matrices", mats])
    assert capsys.readouterr().err == "error: DimensionMismatch: mixed dimensions 2 and 3\n"
    assert code == EXIT_INPUT


def test_mean_decomposes_its_inputs_once(tmp_path, capsys, monkeypatch):
    # the validation's one eigh of the n inputs is the decomposition the
    # solve reads: no eigvalsh before the solve, and the certificate takes
    # one eigvalsh (its margins, norms and gap, the gap read from the loop's
    # factor of P_t) and no eigh
    inputs = np.stack([random_spd(4, (0.5, 2.0), 90 + j).a for j in range(3)])
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [0.2, 0.3, 0.5]})
    mats = write(tmp_path, "mats.json", [matrix_json(a) for a in inputs])
    calls = []
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    loop, certify = multimeans._geodesic_loop, multimeans._certify_karcher
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(("eigh", np.array(a))) or eigh(a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(("eigvalsh", np.array(a))) or eigvalsh(a))
    monkeypatch.setattr(multimeans, "_geodesic_loop", lambda *args: (loop(*args), calls.append(("solved", None)))[0])
    monkeypatch.setattr(multimeans, "_certify_karcher", lambda *args: calls.append(("certify", None)) or certify(*args))
    assert main(["mean", "--spec", spec, "--matrices", mats]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["iterations"] > 0
    names = [name for name, _ in calls]
    assert names.index("solved") + 1 == names.index("certify")
    of_inputs = [k for k, (name, a) in enumerate(calls) if name == "eigh" and np.array_equal(a, inputs)]
    assert of_inputs == [0]
    assert "eigvalsh" not in names[: names.index("solved")]
    assert names.count("eigvalsh") == 1
    assert "eigh" not in names[names.index("solved"):]


def test_mean_certifies_two_inputs_at_spread_1e10(tmp_path, capsys):
    # the lower margin is about -4e-8, inside what the mean's and the end's
    # bounds (about 5e-6 and 9e-7) allow; held to CHECK_TOL alone, this
    # exited 1 with "escaped its power-mean enclosure"
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [0.3, 0.7]})
    mats = write(tmp_path, "mats.json", [random_spd(4, (1.0, 1e10), 32900 + j).to_json() for j in range(2)])
    code = main(["mean", "--spec", spec, "--matrices", mats])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert np.isfinite(out["enclosure_gap"])


def campaign(tmp_path, **overrides):
    base = {
        "inequality_ids": ["3.13", "3.9"],
        "dimensions": [2, 3],
        "r_values": [1.0, 2.0],
        "alpha_values": [0.5],
        "trials": 12,
        "seed": 9,
        "output_path": str(tmp_path / "report.jsonl"),
    }
    base.update(overrides)
    return write(tmp_path, "campaign.json", base)


def test_verify_deterministic_across_threads(tmp_path, capsys):
    cfg = campaign(tmp_path)
    out1 = str(tmp_path / "r1.jsonl")
    out2 = str(tmp_path / "r2.jsonl")
    assert main(["verify", cfg, "--output", out1]) == EXIT_OK
    assert main(["verify", cfg, "--threads", "2", "--output", out2]) == EXIT_OK
    capsys.readouterr()
    assert open(out1, "rb").read() == open(out2, "rb").read()
    lines = [json.loads(line) for line in open(out1)]
    assert "summary" in lines[-1]
    assert lines[-1]["summary"]["failed"] == 0
    # one line per cell: 3.13 has no alpha grid, 3.9 has one alpha value
    assert lines[-1]["summary"]["total"] == 2 * 2 * 2


def test_verify_bad_r_range_gives_error_entries(tmp_path, capsys):
    cfg = campaign(tmp_path, inequality_ids=["3.9", "5.3"], r_values=[0.5])
    out = str(tmp_path / "bad.jsonl")
    code = main(["verify", cfg, "--output", out])
    capsys.readouterr()
    assert code == EXIT_INPUT
    lines = [json.loads(line) for line in open(out)]
    assert all(entry["error"] == "BadR" for entry in lines[:-1])
    assert lines[-1]["summary"]["errors"] == len(lines) - 1
    # error lines carry the id a report line of the same cell would carry
    assert [entry["inequality_id"] for entry in lines[:-1]] == [
        "3.9[dim=2,r=0.5,alpha=0.5]",
        "3.9[dim=3,r=0.5,alpha=0.5]",
        "5.3[dim=2,r=0.5]",
        "5.3[dim=3,r=0.5]",
    ]


def test_verify_data_generation_error_gives_one_line_per_cell(tmp_path, capsys):
    # alpha 2 is outside the pair family's representing functions: the group's
    # data cannot be drawn, and each of its cells reports that
    cfg = campaign(tmp_path, inequality_ids=["4.6"], alpha_values=[2.0])
    out = str(tmp_path / "bad.jsonl")
    code = main(["verify", cfg, "--output", out])
    capsys.readouterr()
    assert code == EXIT_INPUT
    lines = [json.loads(line) for line in open(out)]
    assert [(entry["inequality_id"], entry["error"]) for entry in lines[:-1]] == [
        (f"4.6[dim={d},r={r},alpha=2.0]", "DomainError") for d in (2, 3) for r in (1.0, 2.0)
    ]
    assert lines[-1]["summary"] == {"total": 4, "passed": 0, "failed": 0, "errors": 4}


def test_verify_config_names_an_unknown_key(tmp_path, capsys):
    # a misspelt key is an error, not a campaign run at the defaults
    path = write(tmp_path, "config.json", {"inequality_ids": ["5.3"], "dimensions": [2],
                                          "r_values": [2.0], "trails": 5, "sead": 3})
    code = main(["verify", path])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == "" and "ConfigError: unknown campaign config keys: ['sead', 'trails']" in err


def test_verify_unknown_family_is_config_error(tmp_path, capsys):
    cfg = campaign(tmp_path, inequality_ids=["nope"])
    code = main(["verify", cfg])
    capsys.readouterr()
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "config",
    [
        [1, 2, 3],
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [10**400]},
        # sizes whose trial arrays numpy cannot index or allocate: rejected
        # before any work
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [2.0], "trials": 10**20},
        {"inequality_ids": ["3.9"], "dimensions": [10**11], "r_values": [2.0]},
        {"inequality_ids": ["4.6"], "dimensions": [1], "r_values": [1.0], "trials": 10**17},
        # sizes and seeds must be integers: no boolean, fraction or string
        {"inequality_ids": ["3.9"], "dimensions": [2.7], "r_values": [2.0]},
        {"inequality_ids": ["3.9"], "dimensions": [2, True], "r_values": [2.0]},
        {"inequality_ids": ["3.9"], "dimensions": ["2"], "r_values": [2.0]},
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [2.0], "trials": 2.9},
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [2.0], "trials": True},
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [2.0], "trials": "2"},
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [2.0], "seed": 1.5},
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [2.0], "seed": False},
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [2.0], "seed": "1"},
        # r and alpha values are a list of numbers: no string, boolean or bare number
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": "23"},
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [True]},
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": ["2"]},
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [2.0], "alpha_values": "1"},
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [2.0], "alpha_values": [True, 0.5]},
        {"inequality_ids": ["3.9"], "dimensions": [2], "r_values": [2.0], "alpha_values": ["0.5"]},
        # so are the ids and dimensions: a string or an object is not a list
        {"inequality_ids": "3.9", "dimensions": [2], "r_values": [2.0]},
        {"inequality_ids": "logmaj", "dimensions": [2], "r_values": [0.5]},
        {"inequality_ids": {"3.9": 1}, "dimensions": [2], "r_values": [2.0]},
        {"inequality_ids": ["3.9"], "dimensions": {"2": 1}, "r_values": [2.0]},
        {"inequality_ids": ["3.9"], "dimensions": 2, "r_values": [2.0]},
    ],
)
def test_verify_malformed_config_is_config_error(tmp_path, capsys, config):
    path = write(tmp_path, "config.json", config)
    code = main(["verify", path])
    assert "ConfigError" in capsys.readouterr().err
    assert code == EXIT_INPUT


@pytest.mark.parametrize("command", ["mean", "verify", "recheck"])
def test_deeply_nested_json_is_config_error(tmp_path, capsys, command):
    # nested far past any JSON parser's recursion limit: an input error, not a traceback
    path = tmp_path / "deep.json"
    path.write_text('{"kind": "adjoint", "inner": ' * 100_000 + "{}" + "}" * 100_000)
    mats = write(tmp_path, "mats.json", [matrix_json(np.eye(2))])
    argv = {
        "mean": ["mean", "--spec", str(path), "--matrices", mats],
        "verify": ["verify", str(path)],
        "recheck": ["verify", "--recheck", str(path)],
    }[command]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == "" and "ConfigError" in err and "recursion" in err


def test_verify_recheck_failing_witness(tmp_path, capsys):
    a = random_spd(2, (1.0, 1.01), 27)
    c = validate_spd(np.sqrt(0.4) * np.eye(2))
    rep = check_compression_reverse(a, c, 2.0, 1.0, 1.01, 0.4)
    assert not rep.holds
    payload = {
        "inequality_id": "L5.1[dim=2,r=2.0]",
        "holds": False,
        "margin": rep.margin,
        "constants": {"r": 2.0, "alpha": None, "m": 1.0, "M": 1.01, "mu": 0.4},
        "witness_seed": 27,
        "matrices": rep.matrices,
    }
    path = write(tmp_path, "fail.json", payload)
    code = main(["verify", "--recheck", path])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_CHECK_FAILED
    assert out["holds"] is False


def test_verify_recheck_no_convergence_exits_2(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "fail.json", _failing_report("3.13"))
    monkeypatch.setattr(multimeans, "MAX_ITERS", 1)
    code = main(["verify", "--recheck", path])
    out, err = capsys.readouterr()
    assert code == EXIT_NO_CONVERGENCE
    assert out == "" and err.startswith("error: geodesic iteration stopped")


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "karcher", "weights": [0.5, 0.5], "alpha": 0.3,
         "sigma": {"kind": "harmonic", "params": {"alpha": 0.5}}},
        {"kind": "adjoint", "weights": [0.5, 0.5], "inner": {"kind": "arithmetic", "weights": [0.5, 0.5]}},
    ],
)
def test_mean_spec_with_a_field_of_another_kind_is_input_error(tmp_path, capsys, spec):
    spec_path = write(tmp_path, "spec.json", spec)
    mats = write(tmp_path, "mats.json", [matrix_json(np.eye(2)), matrix_json(2 * np.eye(2))])
    code = main(["mean", "--spec", spec_path, "--matrices", mats])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == "" and "ConfigError" in err


def test_mean_spec_with_an_unknown_key_is_input_error(tmp_path, capsys):
    spec = write(tmp_path, "spec.json", {"kind": "karcher", "weights": [0.5, 0.5], "foo": 1})
    mats = write(tmp_path, "mats.json", [matrix_json(np.eye(2)), matrix_json(2 * np.eye(2))])
    code = main(["mean", "--spec", spec, "--matrices", mats])
    out, err = capsys.readouterr()
    assert code == EXIT_INPUT
    assert out == "" and "ConfigError: unknown mean description keys: ['foo']" in err


def test_search_exit_codes(tmp_path, capsys):
    arith = write(tmp_path, "arith.json", {"kind": "arithmetic", "params": {"w": 0.5}})
    harm = write(tmp_path, "harm.json", {"kind": "harmonic", "params": {"alpha": 0.5}})
    geo = write(tmp_path, "geo.json", {"kind": "geometric", "params": {"alpha": 0.5}})

    assert main(["search", "--tau", arith, "--mode", "prop_6_1", "--r", "2"]) == EXIT_OK
    found = json.loads(capsys.readouterr().out)
    assert found["violated_id"] == "6.1" and found["violation_margin"] < 0

    assert main(["search", "--tau", harm, "--mode", "prop_6_2", "--r", "0.5"]) == EXIT_OK
    found = json.loads(capsys.readouterr().out)
    assert found["violated_id"] == "6.3" and found["violation_margin"] < 0

    assert main(["search", "--tau", geo, "--mode", "prop_6_2", "--r", "2"]) == EXIT_SEARCH_EXHAUSTED
    assert capsys.readouterr().out.strip() == "none"

    assert main(["search", "--tau", arith, "--mode", "prop_6_1", "--r", "1"]) == EXIT_SEARCH_EXHAUSTED
    capsys.readouterr()

    # malformed search input is rejected before any scan; the grids are
    # fixed, so the old grid flags are unknown options, a usage error
    for mode, extra in (
        ("prop_6_2", ["--r", "0"]),
        ("prop_6_1", ["--r", "inf"]),
        ("prop_6_2", ["--r", "0.5", "--k-points", "-1"]),
        ("prop_6_2", ["--r", "0.5", "--t-points", "-2"]),
        ("prop_6_1", ["--r", "2", "--search-tol", "nan"]),
        ("prop_6_1", ["--r", "0.5", "--search-tol", "-1"]),
        ("prop_6_2", ["--r", "0.5", "--shift", "inf"]),
    ):
        assert main(["search", "--tau", harm, "--mode", mode, *extra]) == EXIT_INPUT, extra
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, code",
    [
        ([], EXIT_INPUT),
        (["bogus"], EXIT_INPUT),
        (["verify"], EXIT_INPUT),
        (["verify", "c.json", "--threads", "x"], EXIT_INPUT),
        (["mean", "--matrices", "m.json"], EXIT_INPUT),
        (["kantorovich", "abc", "2"], EXIT_INPUT),
        (["search", "--tau", "t.json", "--mode", "bogus", "--r", "2"], EXIT_INPUT),
        (["--help"], EXIT_OK),
        (["search", "--help"], EXIT_OK),
        # the campaign seed is set in the config only
        (["verify", "c.json", "--seed", "3"], EXIT_INPUT),
        # a campaign needs at least one worker process
        (["verify", "c.json", "--threads", "0"], EXIT_INPUT),
        (["verify", "c.json", "--threads", "-3"], EXIT_INPUT),
        # a campaign or one report to recheck, not both
        (["verify", "c.json", "--recheck", "r.json"], EXIT_INPUT),
    ],
)
def test_usage_errors_exit_input(argv, code, capsys):
    # a usage error is an input error (exit 1), never the no-convergence code 2
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        assert out.startswith("usage:")
    else:
        assert out == "" and "usage:" in err


def test_kantorovich_command(capsys):
    assert main(["kantorovich", "2", "2"]) == EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(9.0 / 8.0, rel=1e-15)
    assert main(["kantorovich", "2", "0"]) == EXIT_OK
    assert float(capsys.readouterr().out) == 1.0
    assert main(["kantorovich", "1e200", "2"]) == EXIT_OK
    assert float(capsys.readouterr().out) == pytest.approx(2.5e199, rel=1e-12)
    for args in (["0.5", "2"], ["nan", "2"], ["inf", "2"], ["2", "nan"], ["2", "inf"]):
        assert main(["kantorovich", *args]) == EXIT_INPUT, args
        assert capsys.readouterr().out == ""


def _failing_report(family, **changes):
    """A campaign report line of ``family`` that embeds its witness, edited;
    a threshold of -1 fails every cell."""
    r = 2.0 if FAMILIES[family]["r_range"] == "ge1" else 0.5
    alpha = 0.5 if FAMILIES[family]["needs_alpha"] else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inequalities, "CHECK_TOL", -1.0)
        out = run_cell(family, 2, r, alpha, 3, 1).to_json()
    for key, value in changes.items():
        target = out["constants"] if key in out["constants"] else out
        if value is None:
            del target[key]
        else:
            target[key] = value
    return out


@pytest.mark.parametrize(
    "family, changes",
    [
        ("3.9", {"inequality_id": None}),
        ("3.9", {"r": None}),
        ("5.3", {"m": None}),
        ("5.3", {"M": None}),
        ("4.6", {"tau_json": None}),
        ("4.8", {"sigma_json": None}),
        ("4.7", {"matrices": [matrix_json(np.eye(2))] * 3}),
        ("L5.1", {"matrices": [matrix_json(np.eye(2))]}),
        ("logmaj", {"weights": [0.5, 0.5]}),
        ("3.13", {"matrices": [matrix_json(np.eye(2)), matrix_json(np.eye(3))]}),
        ("3.9", {"r": "two"}),
        ("3.9", {"r": 10**400}),
        ("3.9", {"r": 0.5}),
        ("5.4", {"m": 0.0}),
        ("5.4", {"M": 10**400}),
        # an L5.1 witness is [A, C]; the ensemble-and-C form is not read
        ("L5.1", {"matrices": [matrix_json(np.eye(2))] * 4}),
    ],
)
def test_verify_recheck_malformed_report(tmp_path, capsys, family, changes):
    path = write(tmp_path, "report.json", _failing_report(family, **changes))
    code = main(["verify", "--recheck", path])
    assert capsys.readouterr().err.startswith("error: ")
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "family, changes",
    [
        ("3.9", {"r": "2"}),
        ("3.9", {"r": True}),
        ("3.9", {"alpha": "0.5"}),
        ("3.9", {"alpha": True}),
        ("5.4", {"m": "1"}),
        ("5.4", {"M": True}),
        ("L5.1", {"mu": "0.4"}),
        ("L5.1", {"mu": False}),
    ],
)
def test_verify_recheck_constants_are_numbers(tmp_path, capsys, family, changes):
    # a report's r, alpha, m, M and mu are JSON numbers, never a string or a boolean
    path = write(tmp_path, "report.json", _failing_report(family, **changes))
    code = main(["verify", "--recheck", path])
    assert "ConfigError" in capsys.readouterr().err
    assert code == EXIT_INPUT


def _scaled_witness(report, factor, indices):
    """``report`` with its witness matrices at ``indices`` scaled by ``factor``."""
    for i in indices:
        mat = report["matrices"][i]
        mat["entries"] = [[factor * x for x in row] for row in mat["entries"]]
    return report


def _pinned_to_m(report):
    """``report`` with ``M`` set to ``m`` and a witness of ``m I`` inside [m, m]."""
    m = report["constants"]["m"]
    report["constants"]["M"] = m
    report["matrices"] = [matrix_json(m * np.eye(2))] * len(report["matrices"])
    return report


@pytest.mark.parametrize(
    "report",
    [
        # every 5.4 matrix scaled far outside the report's [m, M]
        _scaled_witness(_failing_report("5.4"), 50.0, (0, 1, 2)),
        # the L5.1 compression C (the last matrix) scaled so that C^2 > I
        _scaled_witness(_failing_report("L5.1"), 1.5, (-1,)),
        # m == M leaves no Kantorovich spread, though the witness fits
        _pinned_to_m(_failing_report("5.4")),
    ],
)
def test_verify_recheck_witness_outside_bounds(tmp_path, capsys, report):
    path = write(tmp_path, "report.json", report)
    code = main(["verify", "--recheck", path])
    assert "BoundsViolated" in capsys.readouterr().err
    assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "command, doc, error",
    [
        ("verify", {"trials": 0}, "ConfigError"),
        ("verify", {"inequality_ids": []}, "ConfigError"),
        ("verify", {"dimensions": []}, "ConfigError"),
        ("verify", {"r_values": []}, "ConfigError"),
        ("verify", {"dimensions": [0]}, "ConfigError"),
        ("recheck", _failing_report("3.9", inequality_id="9.9[dim=2,r=2.0]"), "UnknownKind"),
        ("recheck", _failing_report("3.9", witness_seed="7"), "ConfigError"),
        ("recheck", _failing_report("3.9", matrices=None), "UnknownKind"),
        ("recheck", _failing_report("L5.1", mu=1.5), "BoundsViolated"),
        ("recheck", _failing_report("4.4", alpha=None), "BadR"),
        ("recheck", _failing_report("3.13", weights=[True, False, False]), "InvalidWeights"),
        ("recheck", _failing_report("3.13", weights=["0.25", "0.25", "0.5"]), "InvalidWeights"),
    ],
)
def test_input_checks_exit_1_naming_their_error(tmp_path, capsys, command, doc, error):
    # campaign overrides for verify, whole reports for --recheck
    if command == "verify":
        argv = ["verify", campaign(tmp_path, **doc)]
    else:
        argv = ["verify", "--recheck", write(tmp_path, "report.json", doc)]
    code = main(argv)
    assert f"error: {error}: " in capsys.readouterr().err
    assert code == EXIT_INPUT


# ------------------------------------------------------------------ fuzzing

# Integers stay small: a campaign's trials and dimensions are sizes, and a large
# size is a well-formed request for a long run, not malformed input.  Sizes too
# large for one array and numbers too large for a float are covered by the
# explicit cases above.
_scalars = (
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(-10, 10)
    | st.sampled_from([float("nan"), float("inf"), -float("inf")]) | st.text(max_size=4)
)
_json = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)

_MATS = [matrix_json(np.diag([1.0, 2.0])), matrix_json(np.array([[2.0, 0.5], [0.5, 1.0]]))]
_VALID = {
    "spec": [
        {"kind": "karcher", "weights": [0.5, 0.5]},
        {"kind": "power", "weights": [0.3, 0.7], "alpha": -0.5},
        {"kind": "deformed", "base": {"kind": "arithmetic", "weights": [0.5, 0.5]},
         "sigma": {"kind": "harmonic", "params": {"alpha": 0.5},
                   "transforms": [{"op": "power_inner", "r": 0.5}]}},
        {"kind": "adjoint", "inner": {"kind": "harmonic", "weights": [0.5, 0.5]}},
    ],
    "matrices": [_MATS, {"matrices": _MATS}],
    "campaign": [
        {"inequality_ids": ["4.8", "5.3"], "dimensions": [2], "r_values": [1.0, 2.0],
         "alpha_values": [0.5], "trials": 2, "seed": 1},
        {"inequality_ids": ["logmaj", "4.5"], "dimensions": [2], "r_values": [0.5],
         "trials": 2},
    ],
    "report": [_failing_report(f) for f in ("4.6", "5.5", "L5.1", "3.12")],
}


@st.composite
def _mutated(draw, kind):
    """A valid document of ``kind`` with one node replaced by or deleted for any JSON."""
    doc = json.loads(json.dumps(draw(st.sampled_from(_VALID[kind]))))
    holder, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        holder = node
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    value = draw(_json)
    if holder is None:
        return value
    if isinstance(holder, dict) and draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = value
    return doc


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(_VALID)), data=st.data())
def test_cli_survives_malformed_json(tmp_path, capsys, kind, data):
    doc = data.draw(_mutated(kind))
    path = str(tmp_path / "doc.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "out.json")
    spec = write(tmp_path, "spec.json", _VALID["spec"][0])
    mats = write(tmp_path, "mats.json", _MATS)
    argv = {
        "spec": ["mean", "--spec", path, "--matrices", mats, "--output", out],
        "matrices": ["mean", "--spec", spec, "--matrices", path, "--output", out],
        "campaign": ["verify", path, "--output", out],
        "report": ["verify", "--recheck", path, "--output", out],
    }[kind]
    code = main(argv)
    capsys.readouterr()
    assert code in range(5)
