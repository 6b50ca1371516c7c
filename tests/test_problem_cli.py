import dataclasses
import gc
import hashlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from qfimax import ValidationError, parse_problem
from qfimax import cli
from qfimax.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main, run_command
from qfimax.cfi import classical_fi, outcome_statistics
from qfimax.operators import channel_apply
from qfimax.oracles import GaussianPrior, bayes_gaussian_fi, brute_force_max_qfi, model_from_quantum
from qfimax.problem import emit_problem, encode_array
from qfimax.sld import qfi

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

MINIMAL = json.dumps({
    "dim": 2,
    "generator": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
    "channel": {"preset": "identity"},
})


def problem_text(**extra):
    doc = json.loads(MINIMAL)
    doc.update(extra)
    return json.dumps(doc)


class TestParseProblem:
    def test_minimal_document(self):
        pf = parse_problem(MINIMAL)
        assert pf.dim == 2
        np.testing.assert_allclose(pf.generator.matrix, np.diag([0.5, -0.5]), atol=1e-15)
        assert pf.povm is None and pf.input_state is None and pf.bayes is None

    def test_syntax_error_reports_position(self):
        with pytest.raises(ValidationError, match=r"line \d+, column \d+"):
            parse_problem("{\n  \"dim\": 2,\n}")

    def test_missing_required_field(self):
        with pytest.raises(ValidationError, match="missing required field 'channel'"):
            parse_problem(json.dumps({"dim": 2, "generator": [[[0.0, 0.0]]]}))

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="unknown problem fields"):
            parse_problem(problem_text(extra_knob=1))

    def test_dim_mismatch(self):
        bad = problem_text(generator=[[[1.0, 0.0]]])
        with pytest.raises(ValidationError, match="generator has dim 1"):
            parse_problem(bad)

    def test_trace_leaking_kraus_rejected(self):
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        bad = problem_text(channel={"kraus": [eye, eye]})
        with pytest.raises(ValidationError, match="1(\\.0+)?"):
            parse_problem(bad)

    def test_both_channel_forms_rejected(self):
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        bad = problem_text(channel={"preset": "identity", "kraus": [eye]})
        with pytest.raises(ValidationError, match="exactly one channel form"):
            parse_problem(bad)

    def test_channel_composition_list(self):
        pf = parse_problem(problem_text(channel=[
            {"preset": "dephasing", "params": {"eta": 0.8}},
            {"preset": "dephasing", "params": {"eta": 0.5}},
        ]))
        # dephasing composes multiplicatively on the coherences
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        out = sum(k @ sx @ k.conj().T for k in pf.channel.kraus)
        np.testing.assert_allclose(out, 0.4 * sx, atol=1e-12)

    def test_unnormalized_input_state_rejected(self):
        with pytest.raises(ValidationError, match="input_state"):
            parse_problem(problem_text(input_state=[[2.0, 0.0], [0.0, 0.0]]))

    def test_user_supplied_init_requires_state(self):
        with pytest.raises(ValidationError, match="input_state"):
            parse_problem(problem_text(optimizer={"init_mode": "user_supplied"}))

    def test_derivative_forms_are_exclusive(self):
        with pytest.raises(ValidationError, match="exactly one derivative form"):
            parse_problem(problem_text(derivative_channel={"commuting": True, "terms": []}))

    def test_commuting_derivative_built_from_generator(self):
        pf = parse_problem(problem_text(derivative_channel={"commuting": True}))
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        h = pf.generator.matrix
        expected = -1j * (h @ rho - rho @ h)
        np.testing.assert_allclose(pf.derivative_channel.apply(rho), expected, atol=1e-12)

    @pytest.mark.parametrize("text", [MINIMAL, problem_text(extra_knob=1)])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_garbage_collection_off_while_parsing(self, text, enabled, monkeypatch):
        # collection is off while parsing, and back as it was afterwards,
        # after a valid document and after a rejected one
        seen = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda t: seen.append(gc.isenabled()) or loads(t))
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            try:
                parse_problem(text)
            except ValidationError:
                pass
            assert seen == [False] and gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_bundled_problems_parse(self):
        paths = sorted(PROBLEMS.glob("*.json"))
        assert paths, "bundled problem corpus is missing"
        for path in paths:
            parse_problem(path.read_text())


class TestEmitProblem:
    def test_round_trip_is_stable(self):
        pf = parse_problem((PROBLEMS / "dephasing_08.json").read_text())
        once = emit_problem(pf)
        again = emit_problem(parse_problem(once))
        assert once == again

    @pytest.mark.parametrize("name", sorted(p.name for p in PROBLEMS.glob("*.json")))
    def test_bundled_problem_round_trip(self, name):
        # emitted povm and derivative maps take the explicit 'elements' and 'terms' forms
        pf = parse_problem((PROBLEMS / name).read_bytes())
        once = emit_problem(pf)
        back = parse_problem(once)
        assert emit_problem(back) == once
        assert np.array_equal(back.generator.matrix, pf.generator.matrix)
        assert np.array_equal(back.channel.stack, pf.channel.stack)
        for section in ("povm", "derivative_channel", "input_state", "bayes"):
            assert (getattr(back, section) is None) == (getattr(pf, section) is None), section
        if pf.povm is not None:
            assert np.array_equal(back.povm.stack, pf.povm.stack)
            assert back.povm.labels == pf.povm.labels
        if pf.derivative_channel is not None:
            assert np.array_equal(back.derivative_channel.stack, pf.derivative_channel.stack)
        if pf.input_state is not None:
            assert np.array_equal(back.input_state.amplitudes, pf.input_state.amplitudes)
        assert back.bayes == pf.bayes
        assert back.optimizer == pf.optimizer

    def test_emitted_channel_is_explicit_kraus(self):
        doc = json.loads(emit_problem(parse_problem(MINIMAL)))
        assert "kraus" in doc["channel"]
        np.testing.assert_allclose(
            np.array(doc["channel"]["kraus"][0])[..., 0], np.eye(2), atol=1e-15)


def run_main_quietly(argv, capsys):
    """main(argv) with every warning recorded: (exit code, stdout, stderr lines, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err.splitlines(), caught


class TestCliExitCodes:
    def test_success(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(MINIMAL)
        assert main(["qfi-max", "--problem", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["f_star"] == pytest.approx(1.0, abs=1e-8)

    def test_missing_file(self, capsys):
        code, out, err, caught = run_main_quietly(["qfi-max", "--problem", "/nonexistent.json"],
                                                  capsys)
        assert code == EXIT_VALIDATION and out == "" and not caught
        assert len(err) == 1 and err[0].startswith("error: cannot read")

    def test_invalid_problem(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text("{not json")
        code, out, err, caught = run_main_quietly(["qfi-max", "--problem", str(path)], capsys)
        assert code == EXIT_VALIDATION and out == "" and not caught
        assert len(err) == 1 and err[0].startswith("error: syntax error")

    @pytest.mark.parametrize("content", [b"\xff\xfe{", b'{"dim": 2,\xff}'])
    def test_undecodable_bytes_rejected(self, tmp_path, capsys, content):
        path = tmp_path / "p.json"
        path.write_bytes(content)
        code, out, err, caught = run_main_quietly(["qfi-max", "--problem", str(path)], capsys)
        assert code == EXIT_VALIDATION and out == "" and not caught
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_deeply_nested_document_rejected(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text('{"dim": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err, caught = run_main_quietly(["qfi-max", "--problem", str(path)], capsys)
        assert code == EXIT_VALIDATION and out == "" and not caught
        assert err == ["error: problem document nests too deeply"]

    def test_command_requires_section(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(MINIMAL)
        code, out, err, caught = run_main_quietly(["cfi-max", "--problem", str(path)], capsys)
        assert code == EXIT_VALIDATION and out == "" and not caught
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "requires a 'povm' section" in err[0]

    def test_numeric_failure(self, tmp_path, capsys):
        # coarse Bayes grid makes the two quadrature routes disagree
        path = tmp_path / "p.json"
        path.write_text(problem_text(
            input_state=[[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
            povm={"preset": "sigma_y"},
            bayes={"delta_prior": 0.3, "grid_points": 21, "sweep": [0.3]},
        ))
        assert main(["bayes-check", "--problem", str(path)]) == EXIT_NUMERIC


    @pytest.mark.parametrize("where", ["nan-generator", "infinity-kraus", "1e999-generator",
                                       "nan-input-state", "nan-angle", "nan-tol"])
    def test_non_finite_input_rejected(self, tmp_path, capsys, where):
        doc = json.loads((PROBLEMS / "dephasing_08.json").read_text())
        argv = []
        if where == "nan-generator":
            doc["generator"][0][1][0] = float("nan")
            text = json.dumps(doc)
        elif where == "infinity-kraus":
            doc["channel"] = {"kraus": [[[[float("inf"), 0.0], [0.0, 0.0]],
                                         [[0.0, 0.0], [1.0, 0.0]]]]}
            text = json.dumps(doc)
        elif where == "1e999-generator":
            doc["generator"][0][0][0] = "HUGE"
            text = json.dumps(doc).replace('"HUGE"', "1e999")
        elif where == "nan-input-state":
            doc["input_state"] = [[float("nan"), 0.0], [1.0, 0.0]]
            text = json.dumps(doc)
        elif where == "nan-angle":
            doc["channel"] = {"preset": "unitary", "params": {
                "exponent": doc["generator"], "angle": float("nan")}}
            text = json.dumps(doc)
        else:
            text = json.dumps(doc)
            argv = ["--tol", "nan"]
        path = tmp_path / "p.json"
        path.write_text(text)
        code, out, err, caught = run_main_quietly(["qfi-max", "--problem", str(path)] + argv,
                                                  capsys)
        assert code == EXIT_VALIDATION and out == ""
        # rejected before any arithmetic: no numpy warning ahead of the error line
        assert not caught
        assert len(err) == 1 and err[0].startswith("error: ")

    # (case, command, change to a valid document, extra flags)
    MALFORMED = [
        ("unknown-preset-param", "qfi-max",
         {"channel": {"preset": "dephasing", "params": {"eta": 0.8, "gamma": 0.1}}}, []),
        ("string-number-eta", "qfi-max",
         {"channel": {"preset": "dephasing", "params": {"eta": "0.8"}}}, []),
        ("string-eta", "qfi-max", {"channel": {"preset": "dephasing", "params": {"eta": "abc"}}}, []),
        ("params-list", "qfi-max", {"channel": {"preset": "dephasing", "params": [0.8]}}, []),
        ("huge-int-entry", "qfi-max",
         {"generator": [[[10**400, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]}, []),
        ("nan-delta-prior", "bayes-check",
         {"bayes": {"delta_prior": float("nan"), "grid_points": 2001}}, []),
        ("string-grid-points", "bayes-check",
         {"bayes": {"delta_prior": 1e-3, "grid_points": "2001"}}, []),
        ("unknown-bayes-key", "bayes-check",
         {"bayes": {"delta_prior": 1e-3, "grid_points": 2001, "gridpoints": 2001}}, []),
        ("number-sweep", "bayes-check",
         {"bayes": {"delta_prior": 1e-3, "grid_points": 2001, "sweep": 5}}, []),
        # a bad bayes section fails on every command, not only bayes-check
        ("even-grid-points", "qfi-eval", {"bayes": {"delta_prior": 1e-3, "grid_points": 4}}, []),
        ("negative-delta-prior", "qfi-max", {"bayes": {"delta_prior": -1e-3}}, []),
        ("zero-sweep-width", "cfi-eval", {"bayes": {"sweep": [0.3, 0.0]}}, []),
        # rejected before the grid is allocated
        ("huge-grid-points", "bayes-check",
         {"bayes": {"delta_prior": 1e-3, "grid_points": 100000001}}, []),
        ("fractional-max-iters", "qfi-max", {"optimizer": {"max_iters": 2.5}}, []),
        ("string-restarts", "qfi-max", {"optimizer": {"restarts": "3"}}, []),
        ("negative-seed-file", "qfi-max", {"optimizer": {"seed": -1}}, []),
        ("negative-seed-flag", "qfi-max", {}, ["--seed", "-1"]),
        # a negative rank cut divides by zero in the SLD solve
        ("negative-eps-rank", "qfi-max", {"optimizer": {"eps_rank": -1}}, []),
        # a negative resolution splits exactly degenerate generator eigenvalues
        ("negative-eps-deg", "qfi-max", {"optimizer": {"eps_deg": -1e-9}}, []),
        ("zero-delta", "qfi-max-general", {"derivative_channel": {"finite_difference": {
            "family": {"preset": "unitary", "params": {"exponent": json.loads(MINIMAL)["generator"]},
                       "phi": True}, "delta": 0}}}, []),
        ("string-delta", "qfi-max-general", {"derivative_channel": {"finite_difference": {
            "family": {"preset": "unitary", "params": {"exponent": json.loads(MINIMAL)["generator"]},
                       "phi": True}, "delta": "x"}}}, []),
        # dephasing has no 'angle' (the default phi_param): the family would not vary
        ("phi-param-not-in-preset", "qfi-max-general", {"derivative_channel": {"finite_difference": {
            "family": {"preset": "dephasing", "params": {"eta": 0.8}, "phi": True}}}}, []),
    ]

    @pytest.mark.parametrize("case, command, change, flags", MALFORMED,
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_input_rejected(self, tmp_path, capsys, case, command, change, flags):
        valid = {"input_state": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
                 "povm": {"preset": "sigma_y"}, "derivative_channel": {"commuting": True},
                 "bayes": {"delta_prior": 1e-3, "grid_points": 2001},
                 "optimizer": {"restarts": 1, "max_iters": 20}}
        path = tmp_path / "p.json"
        path.write_text(problem_text(**valid))
        code, out, err, caught = run_main_quietly([command, "--problem", str(path)], capsys)
        assert code == EXIT_OK  # the document before the change is valid
        path.write_text(problem_text(**{**valid, **change}))
        code, out, err, caught = run_main_quietly([command, "--problem", str(path)] + flags,
                                                  capsys)
        assert code == EXIT_VALIDATION and out == "" and not caught
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_unwritable_trace_csv(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(MINIMAL)
        argv = ["qfi-max", "--problem", str(path), "--trace-csv", str(tmp_path / "missing" / "t.csv")]
        code, out, err, caught = run_main_quietly(argv, capsys)
        assert code == EXIT_VALIDATION and out == "" and not caught
        assert len(err) == 1 and err[0].startswith("error: cannot write trace CSV: ")

    def test_non_finite_report_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "p.json"
        path.write_text(MINIMAL)
        monkeypatch.setattr(cli, "run_command",
                            lambda command, problem: {"f_star": float("nan"), "trace": []})
        assert main(["qfi-max", "--problem", str(path)]) == EXIT_NUMERIC
        out = capsys.readouterr()
        assert out.out == ""
        assert "non-finite" in out.err


class TestCliBehavior:
    def test_flag_overrides_file_seed(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(problem_text(optimizer={"seed": 1, "restarts": 1}))
        main(["qfi-max", "--problem", str(path)])
        base = json.loads(capsys.readouterr().out)
        main(["qfi-max", "--problem", str(path), "--seed", "2"])
        overridden = json.loads(capsys.readouterr().out)
        assert base["config_echo"]["optimizer"]["seed"] == 1
        assert overridden["config_echo"]["optimizer"]["seed"] == 2

    def test_config_echo_holds_digest_not_document(self, tmp_path, capsys):
        source = PROBLEMS / "dephasing_08.json"
        assert main(["qfi-max", "--problem", str(source)]) == EXIT_OK
        echo = json.loads(capsys.readouterr().out)["config_echo"]
        assert echo["problem_sha256"] == hashlib.sha256(source.read_bytes()).hexdigest()
        assert "problem" not in echo
        assert cli.problem_sha256(parse_problem(source.read_text())) == echo["problem_sha256"]

    def test_reports_reproducible_modulo_timestamp(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text((PROBLEMS / "dephasing_08.json").read_text())
        outs = []
        for _ in range(2):
            assert main(["qfi-max", "--problem", str(path)]) == EXIT_OK
            outs.append(re.sub(r'"timestamp": "[^"]*"', '"timestamp": null',
                               capsys.readouterr().out))
        assert outs[0] == outs[1]

    def test_trace_csv(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        problem.write_text(MINIMAL)
        csv_path = tmp_path / "trace.csv"
        main(["qfi-max", "--problem", str(problem), "--trace-csv", str(csv_path)])
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "n,f_n,degenerate,rank_deficit,irreducible"
        report = json.loads(capsys.readouterr().out)
        assert len(lines) - 1 == len(report["trace"])

    def test_reducibility_only_on_generator_routes(self, tmp_path, capsys):
        # |0> is an eigenvector of H, so the covariant iterate is reducible
        path = tmp_path / "p.json"
        path.write_text(problem_text(
            input_state=[[1.0, 0.0], [0.0, 0.0]],
            povm={"preset": "sigma_y"},
            derivative_channel={"commuting": True},
            optimizer={"init_mode": "user_supplied", "restarts": 1},
        ))
        reports = {}
        for cmd in ("qfi-max", "cfi-max", "qfi-max-general"):
            csv_path = tmp_path / f"{cmd}.csv"
            assert main([cmd, "--problem", str(path), "--trace-csv", str(csv_path)]) == EXIT_OK
            reports[cmd] = (json.loads(capsys.readouterr().out),
                            csv_path.read_text().strip().splitlines()[1:])
        for cmd in ("qfi-max", "cfi-max"):
            report, rows = reports[cmd]
            assert all(row["irreducible"] is False for row in report["trace"])
            assert any("reducible iterate" in w for w in report["warnings"])
            assert all(row.endswith(",0") for row in rows)
        report, rows = reports["qfi-max-general"]
        assert report["trace"]
        assert all("irreducible" not in row for row in report["trace"])
        assert not any("reducible iterate" in w for w in report["warnings"])
        assert rows and all(row.endswith(",") for row in rows)

    def test_quiet_omits_trace(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(MINIMAL)
        main(["qfi-max", "--problem", str(path), "--quiet"])
        report = json.loads(capsys.readouterr().out)
        assert report["trace"] == [] and report["iterations"] > 0

    @pytest.mark.parametrize("command", ["qfi-max", "qfi-max-general", "cfi-max", "qfi-eval"])
    def test_restart_summaries(self, command, tmp_path, capsys):
        # one {f, iterations, converged} per restart, in restart order, kept
        # with --quiet; the kept restart's entry is the run the report shows
        doc = json.loads((PROBLEMS / "general_commuting_dephasing.json").read_text())
        doc.update(povm={"preset": "sigma_y"}, input_state=encode_array(np.ones(2) / np.sqrt(2)),
                   optimizer={"restarts": 3, "seed": 4})
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--problem", str(path), "--quiet"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        if command == "qfi-eval":
            assert report["restarts"] == []
            return
        assert [sorted(entry) for entry in report["restarts"]] == [["converged", "f", "iterations"]] * 3
        kept = [entry for entry in report["restarts"] if entry["f"] == report["f_star"]][0]
        assert (kept["iterations"], kept["converged"]) == (report["iterations"], report["converged"])

    def test_sld_report_details(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text((PROBLEMS / "sld_plus_state.json").read_text())
        main(["sld", "--problem", str(path)])
        report = json.loads(capsys.readouterr().out)
        l = np.array(report["details"]["L"])
        np.testing.assert_allclose(l[..., 0] + 1j * l[..., 1],
                                   np.array([[0, -1j], [1j, 0]]), atol=1e-12)


class TestValueCommands:
    """The commands that evaluate one state, through main, against the
    library calls they stand for."""

    def report(self, command, name, capsys):
        assert main([command, "--problem", str(PROBLEMS / name)]) == EXIT_OK
        return json.loads(capsys.readouterr().out), parse_problem((PROBLEMS / name).read_bytes())

    def test_qfi_eval(self, capsys):
        report, pf = self.report("qfi-eval", "sld_plus_state.json", capsys)
        rho = channel_apply(pf.channel, pf.input_state)
        assert report["f_star"] == qfi(rho, pf.generator, pf.optimizer.eps_rank)
        assert report["psi_star"] == encode_array(pf.input_state.amplitudes)
        assert "details" not in report

    def test_cfi_eval(self, capsys):
        report, pf = self.report("cfi-eval", "bayes_qubit.json", capsys)
        stats = outcome_statistics(channel_apply(pf.channel, pf.input_state), pf.generator, pf.povm)
        assert report["f_star"] == classical_fi(stats)
        assert report["psi_star"] == encode_array(pf.input_state.amplitudes)
        assert report["details"] == {"probs": stats.probs.tolist(), "dprobs": stats.dprobs.tolist(),
                                     "labels": list(stats.labels)}

    def test_oracle(self, capsys):
        report, pf = self.report("oracle", "dephasing_08.json", capsys)
        value, psi = brute_force_max_qfi(pf.channel, pf.generator, n_samples=2000,
                                         seed=pf.optimizer.seed)
        assert report["f_star"] == value
        assert report["psi_star"] == encode_array(psi.amplitudes)
        assert "details" not in report


class TestBundledProblems:
    def test_qfi_max_beats_oracle_on_corpus(self):
        for name in ("identity_qubit.json", "dephasing_05.json",
                     "dephasing_08.json", "amplitude_damping_05.json"):
            pf = parse_problem((PROBLEMS / name).read_text())
            report = run_command("qfi-max", pf)
            oracle, _ = brute_force_max_qfi(pf.channel, pf.generator, n_samples=200, seed=0)
            assert report["f_star"] >= oracle - 1e-4, name
            assert report["converged"], name

    def test_general_matches_plain_on_commuting_problem(self):
        pf = parse_problem((PROBLEMS / "general_commuting_dephasing.json").read_text())
        plain = run_command("qfi-max", pf)
        general = run_command("qfi-max-general", pf)
        assert general["f_star"] == pytest.approx(plain["f_star"], abs=1e-7)

    def test_cfi_problem_saturates_qfi(self):
        pf = parse_problem((PROBLEMS / "cfi_sigma_y.json").read_text())
        report = run_command("cfi-max", pf)
        assert report["f_star"] == pytest.approx(1.0, abs=1e-8)

    def test_bayes_problem_sweep_monotone(self):
        pf = parse_problem((PROBLEMS / "bayes_qubit.json").read_text())
        report = run_command("bayes-check", pf)
        sweep = report["details"]["bayes_sweep"]
        values = [sweep[f"{d:g}"] for d in pf.bayes.sweep]
        assert values == sorted(values)
        assert report["f_star"] == pytest.approx(report["details"]["classical_fi"], abs=1e-3)

    def test_bayes_check_tabulates_each_width_once(self, monkeypatch):
        # the prior's width listed in the sweep too: four distinct widths of five
        pf = parse_problem((PROBLEMS / "bayes_qubit.json").read_text())
        bayes = dataclasses.replace(pf.bayes, sweep=(0.3, pf.bayes.delta_prior, 0.1, 0.03))
        pf = dataclasses.replace(pf, bayes=bayes)
        widths = []

        def counted(ch, h, psi, povm, phis):
            widths.append(float(phis[-1]))
            return model_from_quantum(ch, h, psi, povm, phis)

        monkeypatch.setattr(cli, "model_from_quantum", counted)
        report = run_command("bayes-check", pf)
        assert len(widths) == len(set(widths)) == 4
        expected = {}
        for delta in bayes.sweep:
            prior = GaussianPrior(delta, bayes.grid_halfwidth, bayes.grid_points)
            model = model_from_quantum(pf.channel, pf.generator, pf.input_state, pf.povm, prior.grid())
            expected[f"{delta:g}"] = bayes_gaussian_fi(model, prior)
        assert list(report["details"]["bayes_sweep"].items()) == list(expected.items())
        assert report["f_star"] == expected[f"{bayes.delta_prior:g}"]


    def test_bayes_check_keys_each_width_by_its_repr(self):
        # 0.1 and 0.1000001 agree to 6 significant digits: each keeps its own entry
        pf = parse_problem((PROBLEMS / "bayes_qubit.json").read_text())
        bayes = dataclasses.replace(pf.bayes, delta_prior=0.1000001, sweep=(0.3, 0.1))
        report = run_command("bayes-check", dataclasses.replace(pf, bayes=bayes))
        expected = {}
        for delta in (0.3, 0.1, 0.1000001):
            prior = GaussianPrior(delta, bayes.grid_halfwidth, bayes.grid_points)
            model = model_from_quantum(pf.channel, pf.generator, pf.input_state, pf.povm, prior.grid())
            expected[repr(delta)] = bayes_gaussian_fi(model, prior)
        assert list(report["details"]["bayes_sweep"]) == ["0.3", "0.1", "0.1000001"]
        assert report["details"]["bayes_sweep"] == expected
        assert expected["0.1"] != expected["0.1000001"]
        assert report["f_star"] == expected["0.1000001"]
        # an integer width and the equal float are one width, found under the first listed
        bayes = dataclasses.replace(pf.bayes, delta_prior=1.0, sweep=(1, 0.3), grid_points=20001)
        report = run_command("bayes-check", dataclasses.replace(pf, bayes=bayes))
        assert list(report["details"]["bayes_sweep"]) == ["1", "0.3"]
        assert report["f_star"] == report["details"]["bayes_sweep"]["1"]


def _commands(doc):
    """The commands whose sections the problem document doc has."""
    return [c for c in cli.COMMANDS if set(cli.REQUIRED_SECTIONS[c]) <= set(doc)]


def _kraus_scaled(doc):
    """The channel written out as Kraus operators, K_0 scaled by 1 + 4e-11:
    a trace-preservation residual of at most 8e-11, inside EPS_TP."""
    kraus = parse_problem(json.dumps(doc)).channel.stack.copy()
    kraus[0] *= 1.0 + 4e-11
    return {**doc, "channel": {"kraus": encode_array(kraus)}}


def _state_scaled(doc):
    """input_state scaled by 1 + 0.9e-12: a norm residual inside EPS_NORM."""
    return {**doc, "input_state": (np.array(doc["input_state"]) * (1.0 + 0.9e-12)).tolist()}


# (problem, command, perturbation): every bundled problem with each command
# it supports, and the input_state perturbation where there is an input_state
PERTURBED = [(path.name, command, perturb)
             for path in sorted(PROBLEMS.glob("*.json"))
             for perturb in (_kraus_scaled, _state_scaled)
             if perturb is _kraus_scaled or "input_state" in json.loads(path.read_text())
             for command in _commands(json.loads(path.read_text()))]


def _run(doc, command, tmp_path, capsys):
    """(exit code, f_star or the stderr lines) of main on the document doc."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out, err, _ = run_main_quietly([command, "--problem", str(path)], capsys)
    return code, (json.loads(out)["f_star"] if code == EXIT_OK else err)


class TestInputsCheckedOnce:
    """Inputs are checked once, at entry, at validate's tolerances; the
    states built from them are not checked again at tighter ones."""

    @pytest.mark.parametrize("name, command, perturb", PERTURBED,
                             ids=[f"{p.__name__[1:]}-{n}-{c}" for n, c, p in PERTURBED])
    def test_valid_perturbation_exits_as_the_problem_does(self, name, command, perturb, tmp_path, capsys):
        doc = json.loads((PROBLEMS / name).read_text())
        code, f_star = _run(doc, command, tmp_path, capsys)
        assert code == EXIT_OK
        assert _run(perturb(doc), command, tmp_path, capsys) == (code, pytest.approx(f_star, rel=1e-9, abs=0))

    def test_user_supplied_state_inside_its_tolerance(self, tmp_path, capsys):
        # |+> with its norm off by 0.9e-12, the start of a user_supplied solve too
        doc = json.loads((PROBLEMS / "dephasing_08.json").read_text())
        doc["input_state"] = [[0.7071067811865476 * (1.0 + 0.9e-12), 0.0]] * 2
        doc["optimizer"]["init_mode"] = "user_supplied"
        for command in _commands(doc):
            assert _run(doc, command, tmp_path, capsys) == (EXIT_OK, pytest.approx(0.64, rel=1e-9))

    def test_bayes_model_at_the_edge_of_the_channel_tolerance(self, tmp_path, capsys):
        # K_0 scaled by 1 + 4.99e-11 (residual 9.98e-11 <= EPS_TP) and
        # input_state by 1 + 0.9e-12: the model's rows sum to 1 + 1e-10
        doc = json.loads((PROBLEMS / "bayes_qubit.json").read_text())
        code, f_star = _run(doc, "bayes-check", tmp_path, capsys)
        kraus = parse_problem(json.dumps(doc)).channel.stack.copy()
        kraus[0] *= 1.0 + 4.99e-11
        perturbed = _state_scaled({**doc, "channel": {"kraus": encode_array(kraus)}})
        assert code == EXIT_OK
        assert _run(perturbed, "bayes-check", tmp_path, capsys) == (code, pytest.approx(f_star, rel=1e-9, abs=0))

    def test_generator_overflow_is_a_numeric_failure(self, tmp_path, capsys):
        # a valid generator whose squares overflow: the values are infinite or NaN
        doc = json.loads((PROBLEMS / "dephasing_08.json").read_text())
        doc["generator"] = (np.array(doc["generator"]) * 1e160).tolist()
        assert _commands(doc) == ["qfi-max", "oracle"]
        for command in _commands(doc):
            with np.errstate(all="ignore"):
                code, err = _run(doc, command, tmp_path, capsys)
            assert code == EXIT_NUMERIC and err[-1].startswith("numeric error: "), (command, err)
