"""Wire formats and the command-line driver: schemas, exit codes, pinned outputs."""

import builtins
import dis
import importlib.util
import inspect
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ramify import cli, jsonio
from ramify.cli import main
from ramify.cyclo import CycloNumber, pretty, root_of_unity
from ramify.errors import (
    HypothesisViolated, PrecisionExhausted, SchemaError, VerificationFailure,
)
from ramify.fields import make_field

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2)

ROOT = Path(__file__).resolve().parents[1]
JOBS_FILE = ROOT / "perfbench" / "jobs.json"
PINNED_JOBS = [job for job in json.loads(JOBS_FILE.read_text())["jobs"] if "pinned" in job]
FINGERPRINT_FILE = Path(__file__).resolve().parent / "cli_fingerprint.txt"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


# -- pinned command outputs -----------------------------------------------------


class TestPinnedOutputs:
    def test_swan_monomial(self, capsys):
        code, out, _ = invoke(capsys, "swan", "--p", "3", "--a", '{"-4": 1}')
        assert code == 0
        assert out == '{"swan":4,"conductor":5,"rsw":{"n":4,"coeff":"1"}}'

    def test_gauss_q3(self, capsys):
        code, out, _ = invoke(capsys, "gauss", "--q", "3")
        assert code == 0
        assert out == '{"G":"1+2*z3","G2":"-3","identity_lef5c":true}'

    def test_gauss_q_and_p_f_agree(self, capsys):
        by_q = invoke(capsys, "gauss", "--q", "9")
        assert by_q == invoke(capsys, "gauss", "--p", "3", "--f", "2")

    def test_laumon_seeded_q3(self, capsys):
        code, out, _ = invoke(capsys, "verify-laumon", "--q", "3")
        assert code == 0
        assert out == '{"product_identity":true,"lhs_equals_rhs":true}'

    def test_rsw(self, capsys):
        code, out, _ = invoke(capsys, "rsw", "--p", "3", "--a", '{"-4": 1}')
        assert code == 0
        assert json.loads(out) == {"n": 4, "coeff": "1", "swan": 4}

    def test_swan_integral_vector(self, capsys):
        code, out, _ = invoke(capsys, "swan", "--p", "3", "--a", '{"2": 1}')
        assert code == 0
        assert json.loads(out) == {"swan": 0, "conductor": 0, "rsw": None}

    @pytest.mark.parametrize("job", PINNED_JOBS, ids=[job["name"] for job in PINNED_JOBS])
    def test_benchmark_pinned_job(self, capsys, job):
        # the CLI benchmark checks these exact bytes; replayed in-process here
        code, out, _ = invoke(capsys, *job["argv"])
        assert code == 0
        assert out == job["pinned"]


def test_benchmark_hooks_resolve():
    # the benchmark imports these two files and wraps every name its tracer
    # lists; without this test a rename or deletion in the library would
    # show only as a failed benchmark run
    modules = {}
    for name in ("tracing", "workloads"):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(modules[name])
    tracing = modules["tracing"]
    hooks = [*(pair for pairs in tracing.SPANNED.values() for pair in pairs),
             *tracing.COUNTED.values()]
    assert [(owner, attr) for owner, attr in hooks if not hasattr(owner, attr)] == []
    table = tracing.witt.UniversalWittTable
    assert isinstance(inspect.getattr_static(table, "get"), classmethod)


# the timing scripts folded into scripts/bench.py, each with the function
# that took over its timings
TIMING_PARTS = {"cyclo_timing": "layer_rows", "closed_form_timing": "class_rows"}


def _global_loads(code):
    """The global names that code, and every function nested in it, reads."""
    names = {ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if inspect.iscode(const):
            names |= _global_loads(const)
    return names


@pytest.mark.parametrize("script", list(TIMING_PARTS))
def test_timing_scripts_import(script):
    # scripts/bench.py imports library names that no test otherwise reads;
    # a rename in the library then fails here, not at the next timing run,
    # and so does a name the part reads that import_ramify leaves unbound
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.import_ramify()
    part = getattr(bench, TIMING_PARTS[script])
    unbound = {name for name in _global_loads(part.__code__)
               if name not in vars(bench) and not hasattr(builtins, name)}
    assert not unbound, unbound


def test_cli_fingerprint_is_pinned():
    # every job line of scripts/cli_fingerprint.py, replayed in-process from the
    # script's own job lists; its help and usage pages hash argparse's layout,
    # which varies across Python versions, and are left out.  After a change
    # meant to alter an output, regenerate the file with
    #   PYTHONPATH=src python scripts/cli_fingerprint.py \
    #       | grep -Ev '^(help|usage-)' > tests/cli_fingerprint.txt
    spec = importlib.util.spec_from_file_location(
        "cli_fingerprint", ROOT / "scripts" / "cli_fingerprint.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    pinned = dict(line.split(" ", 1) for line in FINGERPRINT_FILE.read_text().splitlines())
    seen = {}
    for name, argv in [*script.jobs(), *script.other_jobs()]:
        code, out, _ = script.run(argv)
        seen[name] = f"{code} {script.digest(out)}"
    assert seen.keys() == pinned.keys()
    assert [name for name in pinned if seen[name] != pinned[name]] == []


# -- determinism ------------------------------------------------------------------


class TestDeterminism:
    def test_seeded_laumon_is_byte_stable(self, capsys):
        first = invoke(capsys, "verify-laumon", "--q", "5", "--seed", "11")
        second = invoke(capsys, "verify-laumon", "--q", "5", "--seed", "11")
        assert first == second
        assert first[0] == 0

    def test_seeded_congruence_is_byte_stable(self, capsys):
        argv = ("congruence", "--q", "5", "--which", "key6", "--seed", "2")
        assert invoke(capsys, *argv) == invoke(capsys, *argv)

    def test_selftest(self, capsys):
        code, out, _ = invoke(capsys, "selftest")
        assert code == 0
        body = json.loads(out)
        assert body["ok"] is True
        assert "gauss-square-q9" in body["checks"]
        assert "laumon-q3-m1" in body["checks"]

    def test_selftest_step_that_comes_out_false(self, capsys, monkeypatch):
        import ramify.epsilon

        monkeypatch.setattr(ramify.epsilon, "quad_gauss",
                            lambda field: CycloNumber.from_rational(1, 1))
        code, out, _ = invoke(capsys, "selftest")
        assert code == 2
        assert out == ('{"error":"verification-failure","message":"selftest step '
                       'came out false","failed":"gauss-square-q3"}')

    def test_selftest_step_that_raises(self, capsys, monkeypatch):
        import ramify.lft

        def starved(*args, **kwargs):
            raise PrecisionExhausted("forced for the selftest path")

        monkeypatch.setattr(ramify.lft, "verify_laumon", starved)
        code, out, _ = invoke(capsys, "selftest")
        assert code == 2
        # the diagnostic keeps its own "error" and "message"; the step's go
        # under "raised"
        assert out == ('{"error":"verification-failure","message":"selftest step '
                       'raised unexpectedly","failed":"laumon-q3-m0","raised":'
                       '{"error":"PrecisionExhausted","message":"forced for the '
                       'selftest path"}}')


# -- exit 2: a check that comes out false --------------------------------------------


class TestVerificationFailures:
    """Each command's own check, forced false, exits 2 with the
    verification-failure head and names what failed: stdout and stderr
    pinned byte for byte."""

    @staticmethod
    def failure(capsys, *argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        body = json.loads(out)
        assert err == f"FAILED: {body['message']}\n"
        return out

    def test_epsilon_oracle_mismatch(self, capsys, monkeypatch):
        import ramify.epsilon

        monkeypatch.setattr(ramify.epsilon, "epsilon_tate_oracle",
                            lambda chi, psi: CycloNumber.from_rational(1, 0))
        out = self.failure(capsys, "epsilon", "--p", "3",
                           "--char", '{"wild": {"-1": 1}}', "--oracle")
        assert out == ('{"error":"verification-failure","message":"closed-form epsilon '
                       'disagrees with the sum-over-cosets oracle","failed":'
                       '"epsilon-closed-form","value":"3","oracle":"0"}')

    def test_gauss_square(self, capsys, monkeypatch):
        import ramify.epsilon

        monkeypatch.setattr(ramify.epsilon, "quad_gauss",
                            lambda field: CycloNumber.from_rational(1, 1))
        out = self.failure(capsys, "gauss", "--q", "5")
        assert out == ('{"error":"verification-failure","message":"quadratic Gauss-sum '
                       'square identity failed","failed":"gauss-square","G":"1","G2":"1"}')

    def test_legendre_check_square_class(self, capsys, monkeypatch):
        import ramify.lft

        real = ramify.lft.square_class_checks
        monkeypatch.setattr(ramify.lft, "square_class_checks",
                            lambda triple: real(triple)._replace(leading_is_square=False))
        out = self.failure(capsys, "legendre-check", "--p", "3",
                           "--a", '{"-1": 1}', "--b", '{"1": 1}')
        assert out == ('{"error":"verification-failure","message":"square-class '
                       'invariant failed on an admissible triple","failed":"square-class",'
                       '"conductor":[1,0,0]}')

    def test_verify_laumon(self, capsys, monkeypatch):
        import ramify.lft

        real = ramify.lft.verify_laumon
        monkeypatch.setattr(ramify.lft, "verify_laumon", lambda *args, **kwargs: real(
            *args, **kwargs)._replace(lhs_equals_rhs=False, mismatch="determinant-factor"))
        out = self.failure(capsys, "verify-laumon", "--q", "3")
        assert out == ('{"error":"verification-failure","message":"stationary-phase '
                       'factorization identity failed","failed":"determinant-factor",'
                       '"product_identity":true,"lhs_equals_rhs":false,"lhs":"-81*z3",'
                       '"rhs":"-81*z3"}')

    def test_congruence(self, capsys, monkeypatch):
        import ramify.lft

        real = ramify.lft.congruence_check
        monkeypatch.setattr(ramify.lft, "congruence_check", lambda *args, **kwargs: real(
            *args, **kwargs)._replace(failures=((3, "membership"),)))
        out = self.failure(capsys, "congruence", "--q", "5", "--which", "key6",
                           "--seed", "2")
        assert out == ('{"error":"verification-failure","message":"congruence defect '
                       'escaped its filtration level","failed":"key6","first_failure":'
                       '[3,"membership"],"samples":20}')


# -- a character is read through its reduced wild layer ----------------------------


class TestCharacterClasses:
    # t^-1 as given and two unreduced layers of its class at p = 3:
    # t^-3 = t^-1 + F(t^-1) - t^-1, and t^-3 + t^-1 (the class of 2 t^-1)
    @pytest.mark.parametrize("wild", [{"-1": 1}, {"-3": 1}, {"-3": 1, "-1": 1}],
                             ids=["t-1", "t-3", "t-3+t-1"])
    def test_depth_one_classes(self, capsys, wild):
        operands = ("--p", "3", "--char", json.dumps({"wild": wild}), "--b", '{"1": 1}')
        code, out, _ = invoke(capsys, "verify-laumon", *operands, "--oracle")
        assert code == 0 and json.loads(out)["oracle_match"] is True
        code, out, _ = invoke(capsys, "lft", *operands)
        assert code == 0 and json.loads(out)["pushed"]["conductor"] == [2, 1]

    @pytest.mark.parametrize("command", ["lft", "verify-laumon"])
    def test_integral_class_is_the_zero_layer(self, capsys, command):
        # every class of Swan conductor 0 exits as the zero layer does:
        # t^-3 + 2 t^-1 = F(t^-1) - t^-1 at p = 3, which reduces to zero,
        # constant layers, and t^2, of positive order
        for q, b, wilds in (("3", {"1": 1}, ({"-3": 1, "-1": 2}, {"0": 1}, {"2": 1})),
                            ("9", {"1": 3, "4": 4}, ({"0": 4},))):
            results = [invoke(capsys, command, "--q", q, "--char", json.dumps({"wild": wild}),
                              "--b", json.dumps(b))
                       for wild in ({"terms": {}}, *wilds)]
            code, out, _ = results[0]
            assert code == 1 and json.loads(out)["error"] == "ZeroInput"
            assert results == results[:1] * len(results), (q, wilds)

    @pytest.mark.parametrize("which", ["key6", "key7"])
    def test_congruence_on_a_layer_with_no_pole_is_the_zero_layer(self, capsys, which):
        # a constant layer and t^2 have level 0: no window gives them a
        # stationary scale, so they exit as the zero layer does
        results = [invoke(capsys, "congruence", "--q", "3", "--which", which,
                          "--a", json.dumps(a), "--b", '{"1": 1}', "--c", '{"-2": 1}')
                   for a in ({"terms": {}}, {"0": 1}, {"2": 1})]
        code, out, _ = results[0]
        assert code == 1 and json.loads(out)["error"] == "ZeroInput"
        assert results == results[:1] * len(results)


# -- exit codes -------------------------------------------------------------------


class TestExitCodes:
    def test_schema_error_is_exit_1(self, capsys):
        code, out, _ = invoke(
            capsys, "swan", "--p", "3", "--a", '{"m": 0, "entries": [], "x": 1}'
        )
        assert code == 1
        assert json.loads(out)["error"] == "SchemaError"

    def test_even_characteristic_is_exit_1(self, capsys):
        code, out, _ = invoke(capsys, "gauss", "--q", "2")
        assert code == 1
        assert json.loads(out)["error"] == "EvenCharacteristic"

    def test_non_prime_power_q_is_exit_1(self, capsys):
        code, out, _ = invoke(capsys, "gauss", "--q", "12")
        assert code == 1

    def test_inadmissible_triple_reports_but_exits_0(self, capsys):
        # an inadmissible input is an answered question, not a failure
        code, out, _ = invoke(
            capsys, "legendre-check", "--p", "3",
            "--a", '{"-3": 1, "-1": 1}', "--b", '{"1": 1}',
        )
        assert code == 0
        body = json.loads(out)
        assert body["ok"] is False
        assert "level" in body["first_violation"]

    @pytest.mark.parametrize("operands, reason, window", [
        (("--q", "3", "--a", '{"terms":{}}', "--b", '{"1":1}', "--c", '{"-2":1}'),
         "wild layer is zero: no depth to anchor the triple", 32),
        (("--q", "3", "--a", '{"-3":1}', "--b", '{"1":1}', "--c", '{"-2":1}'),
         "form coefficient of the wild layer vanishes", 32),
        (("--q", "3", "--a", '{"-1":1}', "--b", '{"terms":{}}', "--c", '{"-2":1}'),
         "b is zero to precision", 32),
        (("--q", "3", "--a", '{"0":1,"1":1}', "--b", '{"1":1}', "--c", '{"-2":1}'),
         "depth n = -1 is not positive (tame wild layer)", 32),
        (("--q", "3", "--a", '{"-3":1,"-1":1}', "--b", '{"1":1}'),
         "wild layer exceeds its form depth: a is not inside level 1", 0),
        (("--q", "3", "--a", '{"-1":1}', "--b", '{"3":1}', "--c", '{"-2":1}'),
         "b is inseparable: db/dt = 0 to precision", 32),
        (("--q", "3", "--a", '{"-4":1}', "--b", '{"1":1}', "--c", '{"-5":2}'),
         "c is not stationary: 2 ord(alpha + c b') >= -n + nu(c) fails", 32),
        (("--q", "3", "--a", '{"-1":1}', "--b", '{"3":1,"4":1}'),
         "no room for the quadratic term: 2*1 + 3*0 >= (3-2)*1", -3),
        (("--p", "3", "--a", '{"-1":1}', "--b", '{"1":1}', "--c", '{"terms":{}}'),
         "c is zero to precision", 32),
        (("--p", "3", "--a", '{"-1":1}', "--b", '{"1":1}', "--c", '{"3":1}'),
         "c is inseparable: dc/dt = 0 to precision", 32),
        (("--q", "3", "--a", '{"terms":{}}', "--b", '{"1":1}'),
         "wild layer is zero: no depth to anchor the triple", 32),
        (("--q", "3", "--a", '{"-3":1}', "--b", '{"1":1}'),
         "form coefficient of the wild layer vanishes", 32),
        (("--q", "3", "--a", '{"-1":1}', "--b", '{"terms":{}}'),
         "b is zero to precision", 32),
    ], ids=["zero-a", "zero-form", "zero-b", "tame", "depth-overflow", "inseparable-b",
            "not-stationary", "no-room", "zero-c", "inseparable-c",
            "zero-a-default-c", "zero-form-default-c", "zero-b-default-c"])
    def test_every_inadmissible_reason_is_pinned(self, capsys, operands, reason, window):
        # the in-band reasons of the fingerprint's INADMISSIBLE jobs, byte for byte
        code, out, _ = invoke(capsys, "legendre-check", *operands)
        assert code == 0
        assert out == ('{"ok":false,"first_violation":"' + reason
                       + f'","conductor":null,"guaranteed_mod_t":{window}}}')

    def test_verification_failure_is_exit_2(self, capsys, monkeypatch):
        def explode(job):
            raise VerificationFailure(
                "forced for the exit-code path",
                detail={"failed": "determinant-factor"},
            )

        monkeypatch.setattr(cli, "run", explode)
        code, out, _ = invoke(capsys, "gauss", "--q", "3")
        assert code == 2
        body = json.loads(out)
        assert body["error"] == "verification-failure"
        assert body["failed"] == "determinant-factor"

    @pytest.mark.parametrize("argv", [
        ("swan", "--p", "3"),
        ("swan", "--p", "abc", "--a", '{"-4":1}'),
        ("congruence", "--p", "3", "--which", "key9"),
        ("gauss", "--q", "3", "--prec", "8"),
        ("frobnicate",),
        ("lft", "--p", "3", "--char", '{"wild":{"-1":1}}', "--b", '{"1":1}', "--m", "0"),
        ("epsilon", "--p", "3", "--char", '{"wild":{"-1":1}}', "--oracle", "false"),
        ("lft", "--p", "3", "--char", '{"wild":{"-1":1}}', "--b", '{"1":1}', "--source", "1"),
    ])
    def test_usage_error_is_exit_1(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 1
        assert "\n" not in out
        assert json.loads(out)["error"] == "SchemaError"

    @pytest.mark.parametrize("argv, expected", [
        (("lambda", "--p", "3", "--b", "null"),
         (1, '{"error":"SchemaError","message":"lambda: missing required key \'b\'"}')),
        (("dk-dim", "--horizontal", "null", "--vertical", "[]"),
         (1, '{"error":"SchemaError","message":"dk-dim: missing required key \'horizontal\'"}')),
        (("epsilon", "--p", "3", "--char", '{"wild":{"-1":1}}', "--psi", "null"), None),
        (("legendre-check", "--p", "3", "--a", '{"-1":1}', "--b", '{"1":1}', "--c", "null"),
         None),
    ], ids=["lambda-b", "dk-dim-horizontal", "epsilon-psi", "legendre-check-c"])
    def test_null_operand_is_an_absent_flag(self, capsys, argv, expected):
        # a required flag given null is missing; an optional one takes its
        # default, so the job prints what it prints without the flag
        if expected is None:
            expected = invoke(capsys, *argv[:-2])[:2]
            assert expected[0] == 0
        assert invoke(capsys, *argv)[:2] == expected

    def test_field_fault_comes_before_an_operand_fault(self, capsys):
        code, out, _ = invoke(capsys, "swan", "--p", "4", "--a", "bad")
        assert code == 1
        assert json.loads(out)["error"] == "NotPrime"

    def test_extension_degree_below_1_is_a_schema_error(self, capsys):
        code, out, _ = invoke(capsys, "swan", "--p", "3", "--f", "0", "--a", '{"-1":1}')
        assert code == 1
        assert out == '{"error":"SchemaError","message":"f = 0 must be >= 1"}'

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["swan", "--help"])
        assert exc.value.code == 0
        assert "--a A" in capsys.readouterr().out

    @pytest.mark.parametrize("a", ["[]", '{"m": -1, "entries": []}'])
    def test_negative_witt_length_is_exit_1(self, capsys, a):
        code, out, _ = invoke(capsys, "swan", "--p", "3", "--a", a)
        assert code == 1
        assert json.loads(out)["error"] == "SchemaError"

    def test_empty_witt_list_is_exit_1(self, capsys):
        code, out, _ = invoke(capsys, "swan", "--p", "3", "--a", "[]")
        assert code == 1
        assert json.loads(out) == {
            "error": "SchemaError", "message": "a: a Witt vector needs at least one entry",
        }

    @pytest.mark.parametrize("argv", [
        ("verify-laumon", "--q", "3", "--b", '{"1":1}'),
        ("verify-laumon", "--q", "3", "--b", '{"1":1}', "--c", '{"-2":1}'),
        ("congruence", "--which", "key6", "--q", "5", "--seed", "13",
         "--b", '{"1":1}', "--c", '{"-9":1}'),
    ], ids=["laumon-b", "laumon-b-c", "congruence-b-c"])
    def test_seeded_job_rejects_explicit_operands(self, capsys, argv):
        # a seeded job draws its own operands; it must not drop the given ones
        code, out, _ = invoke(capsys, *argv)
        assert code == 1
        assert json.loads(out)["error"] == "SchemaError"

    @pytest.mark.parametrize("argv", [
        ("verify-laumon", "--p", "3", "--m", "-1"),
        ("congruence", "--p", "3", "--which", "key1", "--m", "-1"),
    ])
    def test_negative_random_witt_length_is_exit_1(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 1
        assert "\n" not in out
        assert json.loads(out)["error"] == "LengthMismatch"

    def test_seeded_congruence_gives_up_after_20_rejected_draws(self, capsys, monkeypatch):
        import ramify.lft

        draws = []

        def rejects(which, a, b, c, **kwargs):
            draws.append(a)
            raise HypothesisViolated(f"draw {len(draws)} rejected")

        monkeypatch.setattr(ramify.lft, "congruence_check", rejects)
        code, out, _ = invoke(capsys, "congruence", "--q", "5", "--which", "key6")
        assert code == 1
        assert json.loads(out) == {"error": "HypothesisViolated", "message": "draw 20 rejected"}
        assert len(draws) == 20 and len(set(map(id, draws))) == 20

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_empty_congruence_check_is_exit_1(self, capsys, samples):
        code, out, _ = invoke(
            capsys, "congruence", "--p", "3", "--which", "key1",
            "--a", '{"-1":1}', "--theta-samples", samples,
        )
        assert code == 1
        assert json.loads(out)["error"] == "InconsistentInput"

    def test_missing_operand_for_explicit_laumon(self, capsys):
        code, out, _ = invoke(
            capsys, "verify-laumon", "--p", "3", "--char", '{"wild": {"-1": 1}}'
        )
        assert code == 1
        assert json.loads(out)["error"] == "SchemaError"

    @pytest.mark.parametrize("char, b, extra, error", [
        # the default scale is a constant here, whose precision error no
        # --prec fixes; the slope check comes first, with or without --c
        ('{"wild":{"-1":1}}', '{"-1":1}', ["--source", "infinity"],
         "SlopeConditionViolated"),
        ('{"wild":{"-1":1}}', '{"-1":1}', ["--source", "infinity", "--c", '{"0":2}'],
         "SlopeConditionViolated"),
        ('{"wild":{"-1":1}}', '{"-1":1}', [], "WrongSourcePoint"),
        ('{"tame_exponent":1}', '{"1":1}', [], "NotLegendre"),
    ], ids=["slope-default-c", "slope-explicit-c", "wrong-source", "tame"])
    def test_lft_checks_its_input_before_the_default_scale(
        self, capsys, char, b, extra, error
    ):
        code, out, _ = invoke(capsys, "lft", "--p", "3", "--char", char, "--b", b, *extra)
        assert code == 1
        assert json.loads(out)["error"] == error

    def test_inseparable_default_scale_is_answered_in_band(self, capsys):
        # a = t^-4, b = t^-1 at p = 3: the default scale is a cube, c' = 0 to
        # the window, and the bound on nu(c) that gives leaves no room, so it
        # is inadmissible by the reason an explicit inseparable c gets
        operands = ("--q", "3", "--a", '{"-4":1}', "--b", '{"-1":1}')
        default = invoke(capsys, "legendre-check", *operands)
        assert default == invoke(capsys, "legendre-check", *operands, "--c", '{"-3":2}')
        assert default[:2] == (0, '{"ok":false,"first_violation":"c is inseparable: '
                                  'dc/dt = 0 to precision","conductor":null,'
                                  '"guaranteed_mod_t":32}')

    @pytest.mark.parametrize("argv", [
        ("verify-laumon", "--q", "5", "--char", '{"wild":{"-4":2}}', "--b", '{"1":4}'),
        ("lft", "--q", "3", "--char", '{"wild":{"-4":1}}', "--b", '{"-1":1}',
         "--source", "infinity"),
    ], ids=["verify-laumon", "lft-infinity"])
    def test_inseparable_default_scale_is_not_legendre(self, capsys, argv):
        code, out, _ = invoke(capsys, *argv)
        assert code == 1
        assert json.loads(out) == {"error": "NotLegendre",
                                   "message": "c is inseparable: dc/dt = 0 to precision"}

    @pytest.mark.parametrize("command, m, operand", [
        pytest.param("verify-laumon", "1", '{"wild":{"-1":1}}', id='1-{"wild":{"-1":1}}'),
        pytest.param("verify-laumon", "0", '{"wild":{"m":1,"entries":[{"-1":1},{"-2":1}]}}',
                     id='0-{"wild":{"m":1,"entries":[{"-1":1},{"-2":1}]}}'),
        pytest.param("congruence", "1", '{"-1":1}', id="congruence-1"),
    ])
    def test_explicit_laumon_char_must_match_m(self, capsys, command, m, operand):
        tail = {"verify-laumon": ("--char", operand, "--b", '{"1":1}'),
                "congruence": ("--which", "key1", "--a", operand, "--theta-samples", "2")}
        code, out, _ = invoke(capsys, command, "--p", "3", "--m", m, *tail[command])
        assert code == 1
        body = json.loads(out)
        assert body["error"] == "SchemaError"
        assert "job says m = " + m in body["message"]


# -- every job answers with one JSON object ------------------------------------------

FUZZ_Q = (3, 5, 7, 9, 25, 27)
FUZZ_INTS = {"prec": ("12", "24", "40"), "m": ("0", "1", "2"), "r": ("1", "2"),
             "theta_samples": ("1", "2")}
FUZZ_MALFORMED = ("{", "[1", "", "null", "true", '"x"', "1.5", "[]", "[[1]]", '{"x": 1}',
                  '{"1": 1.5}', '{"1": "a"}', '{"terms": 3}', '{"m": 1, "entries": [{}]}',
                  '{"m": -1, "entries": []}', '{"tame_exponent": "x"}', "-1", "x")


def _fuzz_series(rng):
    # field indices 0, 1, 2 exist in every field
    return {str(rng.randint(-4, 4)): rng.randint(0, 2) for _ in range(rng.randint(1, 3))}


def _fuzz_witt(rng):
    if rng.random() < 0.7:
        return _fuzz_series(rng)
    return {"m": 1, "entries": [_fuzz_series(rng), _fuzz_series(rng)]}


def _fuzz_operand(rng, flag):
    """The text of a well-formed value of one flag (not the field group)."""
    if flag.kind == "int":
        return rng.choice(FUZZ_INTS.get(flag.key, ("0", "1", "2", "3")))
    if isinstance(flag.kind, tuple):
        return rng.choice(flag.kind)
    if flag.kind in ("series", "psi"):
        value = _fuzz_series(rng)
    elif flag.kind == "witt":
        value = _fuzz_witt(rng)
    elif flag.kind == "char":
        value = {"tame_exponent": rng.randint(-2, 30),
                 "uniformizer_value": rng.choice((1, -1, [8, rng.randint(-1, 8)], "z4",
                                                  "1/2-z3")),
                 "wild": rng.choice((None, _fuzz_witt(rng)))}
    elif flag.key == "horizontal":
        value = [[rng.randint(0, 4), rng.randint(-1, 5)] for _ in range(rng.randint(0, 3))]
    else:
        value = [[rng.choice(("unramified", "ramified")), rng.randint(-1, 5)]
                 for _ in range(rng.randint(0, 3))]
    return json.dumps(value)


def _fuzz_argv(rng):
    """One job of a random command: every flag well-formed, then, for half
    the jobs, one defect -- a flag left out, a malformed value, a bad field
    or an unknown flag."""
    command = rng.choice(list(cli.COMMAND_TABLE))
    flags = {}
    for flag in cli.COMMAND_TABLE[command].flags:
        if flag.kind == "field":
            q = rng.choice(FUZZ_Q + ((211, 1331, 2003) if command == "gauss" else ()))
            flags[flag.key] = rng.choice((["--q", str(q)], ["--p", "3", "--f", "2"]))
        elif flag.kind == "bool":
            flags[flag.key] = ["--" + flag.key] if rng.random() < 0.5 else []
        elif flag.required or rng.random() < 0.5:
            flags[flag.key] = ["--" + flag.key.replace("_", "-"), _fuzz_operand(rng, flag)]
    if flags and rng.random() < 0.5:
        key = rng.choice(list(flags))
        defect = rng.choice(("drop", "malformed", "field", "unknown"))
        if defect == "drop":
            del flags[key]
        elif defect == "field":
            flags["field"] = rng.choice((["--q", "12"], ["--q", "2"], ["--p", "x"], ["--f", "0"]))
        elif defect == "unknown":
            flags["bogus"] = ["--bogus", "1"]
        elif flags[key] and flags[key][0] not in ("--q", "--p"):
            flags[key] = [flags[key][0], rng.choice(FUZZ_MALFORMED)]
    return [command, *(arg for argv in flags.values() for arg in argv)]


def test_every_job_exits_with_one_json_object(capsys):
    # seeded random jobs over all 12 commands, well-formed or malformed: no
    # exception escapes main, and each job prints one JSON object on stdout
    rng = random.Random(2024)
    codes = []
    for _ in range(300):
        argv = _fuzz_argv(rng)
        try:
            code = main(argv)
        except Exception as exc:  # the property under test
            pytest.fail(f"{argv} raised {type(exc).__name__}: {exc}")
        lines = capsys.readouterr().out.splitlines()
        assert code in (0, 1, 2), argv
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), (argv, lines)
        codes.append(code)
    assert codes.count(0) > 50 and codes.count(1) > 50


# -- start-up and the one-command parser --------------------------------------------


_LOADED = """
import contextlib, io, json, sys
from ramify import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""


def _modules_loaded_by(*argv):
    """The modules a fresh interpreter has loaded after running one job."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argv)],
                         capture_output=True, text=True, env=env, timeout=60)
    code, modules = json.loads(out.stdout)
    assert code == 0, out.stderr
    return set(modules)


def _usage_error(command):
    """An integer flag of the command given "x": the subcommand's own usage error."""
    flag = next(f for f in cli.COMMAND_TABLE[command].flags if f.kind in ("field", "int"))
    return [command, "--p" if flag.kind == "field" else "--" + flag.key, "x"]


class TestStartUp:
    def test_swan_loads_only_the_witt_layer(self):
        loaded = _modules_loaded_by("swan", "--p", "3", "--a", '{"-4": 1}')
        unwanted = {"ramify.lft", "ramify.epsilon", "ramify.characters", "ramify.cyclo",
                    "fractions", "dataclasses"}
        assert "ramify.witt" in loaded
        assert not loaded & unwanted

    @pytest.mark.parametrize("argv", [
        ("dk-dim", "--horizontal", "[[1,4]]", "--vertical", '[["unramified",0]]'),
        ("legendre-check", "--p", "5", "--a", '{"-3":1}', "--b", '{"1":1}'),
    ], ids=["dk-dim", "legendre-check"])
    def test_lft_bookkeeping_loads_no_character_layer(self, argv):
        loaded = _modules_loaded_by(*argv)
        unwanted = {"ramify.epsilon", "ramify.characters", "ramify.cyclo", "fractions"}
        assert "ramify.lft" in loaded
        assert not loaded & unwanted

    def test_gauss_does_not_load_lft(self):
        loaded = _modules_loaded_by("gauss", "--q", "3")
        assert "ramify.epsilon" in loaded
        assert "ramify.lft" not in loaded

    def test_package_does_not_use_dataclasses(self):
        package = Path(cli.__file__).parent
        assert not [path.name for path in package.glob("*.py")
                    if "dataclass" in path.read_text()]

    @pytest.mark.parametrize("command", [None, *cli.COMMAND_TABLE])
    def test_one_command_parser_prints_what_the_full_parser_prints(
        self, capsys, monkeypatch, command
    ):
        argvs = ([["--help"]] if command is None
                 else [[command, "--help"], _usage_error(command)])

        def outputs():
            seen = []
            for argv in argvs:
                try:
                    code = main(argv)
                except SystemExit as exc:  # --help
                    code = exc.code
                seen.append((code, capsys.readouterr()))
            return seen

        one_command = outputs()
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda commands=None: full())
        assert outputs() == one_command
        assert one_command[-1][0] == (0 if command is None else 1)


# -- individual commands ----------------------------------------------------------


class TestCommands:
    def test_epsilon_with_oracle(self, capsys):
        code, out, _ = invoke(
            capsys, "epsilon", "--p", "3",
            "--char", '{"wild": {"-1": 1}}', "--oracle",
        )
        assert code == 0
        body = json.loads(out)
        assert body["oracle_match"] is True
        assert body["conductor"] == [2, 1]
        assert body["branch"].startswith("wild-")

    @pytest.mark.parametrize("argv, pinned", [
        (("verify-laumon", "--q", "5", "--oracle"),
         '{"product_identity":true,"lhs_equals_rhs":true,"oracle_match":true}'),
        (("epsilon", "--q", "7", "--char", '{"wild":{"-6":1}}', "--oracle"),
         '{"value":"-343-686*z7-686*z7^2-686*z7^4","branch":"wild-even","conductor":[7,6],'
         '"c":{"terms":{"-7":6},"prec":-3,"val":-7},"oracle_match":true}'),
    ])
    def test_oracle_on_a_deep_central_shell(self, capsys, argv, pinned):
        # the central shells hold 5^8 and 7^7 cosets; the oracle walks and
        # caps 5^4 and 7^4 of them
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert out == pinned

    @pytest.mark.parametrize("which", ["key6", "key7"])
    def test_seeded_congruence_redraws_to_its_hypotheses(self, capsys, which):
        # the first q = 3 draw of seed 3 has nu(b) + nu(c) = 1, not < (p-2) r = 1
        code, out, _ = invoke(capsys, "congruence", "--q", "3", "--which", which, "--seed", "3")
        assert code == 0
        body = json.loads(out)
        assert body["ok"] is True
        assert body["nu_b"] + body["nu_c"] < 1

    def test_epsilon_tame_branch(self, capsys):
        code, out, _ = invoke(
            capsys, "epsilon", "--p", "3",
            "--char", '{"tame_exponent": 1, "uniformizer_value": [4, 1]}',
        )
        assert code == 0
        body = json.loads(out)
        assert body["conductor"] == [1, 0]
        assert body["oracle_match"] is None

    def test_lambda_parity_branches(self, capsys):
        code, out, _ = invoke(capsys, "lambda", "--p", "5", "--b", '{"3": 1}')
        assert code == 0
        assert json.loads(out)["branch"] == "lambda-even"
        code, out, _ = invoke(capsys, "lambda", "--p", "5", "--b", '{"2": 1}')
        assert code == 0
        body = json.loads(out)
        assert body["branch"] == "lambda-odd"
        assert body["degree"] == 2

    def test_hilbert_uniformizer_with_itself(self, capsys):
        code, out, _ = invoke(
            capsys, "hilbert", "--p", "3", "--x", '{"1": 1}', "--y", '{"1": 1}'
        )
        assert code == 0
        # (t, t) = (-1, t) = kappa0(-1), and -1 is not a square in F_3
        assert json.loads(out)["symbol"] == -1

    def test_legendre_check_admissible(self, capsys):
        code, out, _ = invoke(
            capsys, "legendre-check", "--p", "3",
            "--a", '{"-1": 1}', "--b", '{"1": 1}',
        )
        assert code == 0
        body = json.loads(out)
        assert body["ok"] is True
        assert body["conductor"] == [1, 0, 0]
        assert body["gamma"] == "1"
        assert body["square_class"]["leading_is_square"] is True

    def test_lft_base_descriptor(self, capsys):
        code, out, _ = invoke(
            capsys, "lft", "--p", "3",
            "--char", '{"wild": {"-1": 1}}', "--b", '{"1": 1}',
        )
        assert code == 0
        body = json.loads(out)
        assert (body["source"], body["target"]) == ("0", "infinity")
        assert (body["degree"], body["swan"], body["rank"]) == (2, 1, 1)
        assert body["pushed"]["conductor"] == [2, 1]
        assert body["gauss_twist"] == "-1-2*z3"

    def test_lft_pushed_character_feeds_epsilon(self, capsys):
        # the pushed character prints chi(t) as a pretty string and carries
        # its conductor; epsilon reads it back as it stands
        code, out, _ = invoke(
            capsys, "lft", "--p", "5",
            "--char", '{"tame_exponent":0,"uniformizer_value":1,"wild":{"-3":1}}',
            "--b", '{"1":1}',
        )
        assert code == 0
        pushed = json.loads(out)["pushed"]
        assert pushed["uniformizer_value"] == "1+2*z5^2+2*z5^3"
        code, out, _ = invoke(capsys, "epsilon", "--p", "5", "--char", json.dumps(pushed), "--oracle")
        assert code == 0
        body = json.loads(out)
        assert (body["value"], body["oracle_match"]) == ("-625", True)
        pushed["conductor"] = [3, 2]
        code, out, _ = invoke(capsys, "epsilon", "--p", "5", "--char", json.dumps(pushed))
        assert code == 1
        assert json.loads(out)["error"] == "SchemaError"

    @pytest.mark.parametrize("argv, terms", [
        (["swan", "--q", "3", "--a"], {"-4": 1}),
        (["epsilon", "--q", "3", "--char", '{"wild":{"-2":1}}', "--psi"], {"-1": 1}),
    ], ids=["witt", "psi"])
    def test_printed_series_reads_back_as_witt_and_psi(self, capsys, argv, terms):
        # series_to_json adds "val", which the single-series shorthand must take
        printed = jsonio.series_to_json(jsonio.series_from_json(F3, terms, "s"))
        bare = invoke(capsys, *argv, json.dumps(terms))
        assert bare[0] == 0
        assert invoke(capsys, *argv, json.dumps(printed)) == bare

    def test_congruence_explicit_key1(self, capsys):
        code, out, _ = invoke(
            capsys, "congruence", "--p", "3", "--which", "key1", "--a", '{"-1": 1}'
        )
        assert code == 0
        body = json.loads(out)
        assert body["ok"] is True
        assert body["samples"] == 20
        assert body["membership_level"] == 0

    def test_congruence_key6_needs_b_and_c(self, capsys):
        code, out, _ = invoke(
            capsys, "congruence", "--p", "3", "--which", "key6", "--a", '{"-1": 1}'
        )
        assert code == 1
        assert json.loads(out)["error"] == "SchemaError"

    @pytest.mark.parametrize("which", ["key6", "key7"])
    @pytest.mark.parametrize("window,expected", [
        ((), ("HypothesisViolated", "nu(b) + nu(c) >= 35 is not < (p-2) r = 1")),
        (("--r", "40"),
         ("PrecisionExhausted", "derivative is 0 mod t^31; nu cannot be certified")),
        (("--r", "40", "--prec", "96"),
         ("HypothesisViolated", "nu(b) + nu(c) >= 99 is not < (p-2) r = 40")),
    ], ids=["r1", "r40", "r40-prec96"])
    def test_congruence_inseparable_c_is_a_window_fault_only_where_a_window_helps(
            self, capsys, which, window, expected):
        # c = t^-3 is a cube: c' = 0 to the window W, so nu(c) >= 1 + W + 3;
        # only where that bound still fits under (p-2) r can a window decide
        code, out, _ = invoke(
            capsys, "congruence", "--q", "3", "--which", which, "--a", '{"-4":1}',
            "--b", '{"1":1}', "--c", '{"-3":1}', "--theta-samples", "2", *window,
        )
        assert code == 1
        assert json.loads(out) == dict(zip(("error", "message"), expected))

    def test_dk_dim_balance(self, capsys):
        code, out, _ = invoke(
            capsys, "dk-dim",
            "--horizontal", "[[1, 4], [2, 0]]",
            "--vertical", '[["unramified", 3]]',
            "--delta", "1",
        )
        assert code == 0
        body = json.loads(out)
        assert body == {
            "phi_generic": 7, "phi_special": 4, "delta": 1, "dimension": 5,
        }

    def test_dk_dim_negative_total_is_exit_1(self, capsys):
        code, out, _ = invoke(
            capsys, "dk-dim",
            "--horizontal", "[[1, 0]]",
            "--vertical", '[["unramified", 4]]',
        )
        assert code == 1
        assert json.loads(out)["error"] == "InconsistentInput"


# -- wire formats -----------------------------------------------------------------


class TestJsonio:
    def test_bool_is_not_an_integer(self):
        with pytest.raises(SchemaError):
            jsonio.strict_int(True, "x")

    def test_element_range_check(self):
        with pytest.raises(SchemaError):
            jsonio.element_from_json(F3, 3, "x")

    def test_series_round_trip(self):
        s = jsonio.series_from_json(F5, {"terms": {"-2": 1, "3": 4}, "prec": 10}, "s")
        assert s.valuation() == -2
        assert s.prec == 10
        back = jsonio.series_to_json(s)
        assert back["terms"] == {"-2": 1, "3": 4}
        assert back["val"] == -2
        again = jsonio.series_from_json(F5, back, "s")
        assert again == s

    def test_series_bare_terms_shorthand(self):
        s = jsonio.series_from_json(F3, {"-4": 1}, "s", default_prec=12)
        assert s.valuation() == -4
        assert s.prec == 12

    def test_series_zero(self):
        s = jsonio.series_from_json(F3, {"terms": {}, "prec": 6}, "s")
        assert s.is_zero()

    def test_series_term_beyond_window(self):
        with pytest.raises(SchemaError):
            jsonio.series_from_json(F3, {"terms": {"9": 1}, "prec": 4}, "s")

    def test_series_bad_exponent(self):
        with pytest.raises(SchemaError):
            jsonio.series_from_json(F3, {"terms": {"two": 1}}, "s")

    def test_witt_shorthand_forms(self):
        one = jsonio.witt_from_json(F3, {"-1": 1}, "a", 8)
        assert one.m == 0
        pair = jsonio.witt_from_json(F3, [{"-1": 1}, {"-2": 2}], "a", 8)
        assert pair.m == 1
        strict = jsonio.witt_from_json(
            F3, {"m": 1, "entries": [{"-1": 1}, {"-2": 2}]}, "a", 8
        )
        assert strict.entries[1] == pair.entries[1]

    def test_witt_length_mismatch(self):
        with pytest.raises(SchemaError):
            jsonio.witt_from_json(F3, {"m": 1, "entries": [{"-1": 1}]}, "a", 8)

    def test_witt_round_trip(self):
        a = jsonio.witt_from_json(F9, {"m": 1, "entries": [{"-1": 5}, {"0": 2}]}, "a", 8)
        body = jsonio.witt_to_json(a)
        assert body["m"] == 1
        assert jsonio.witt_from_json(F9, body, "a") == a

    def test_cyclo_encodings(self):
        assert jsonio.cyclo_from_json(-3, "x") == CycloNumber.from_rational(1, -3)
        half = jsonio.cyclo_from_json("1/2", "x")
        assert half + half == CycloNumber.from_rational(1, 1)
        assert jsonio.cyclo_from_json([8, 3], "x") == root_of_unity(8, 3)

    def test_cyclo_bad_encodings(self):
        with pytest.raises(SchemaError):
            jsonio.cyclo_from_json("1/0", "x")
        with pytest.raises(SchemaError):
            jsonio.cyclo_from_json([8], "x")
        with pytest.raises(SchemaError):
            jsonio.cyclo_from_json(True, "x")

    def test_cyclo_pretty_strings(self):
        # every string pretty prints decodes to the number it came from
        for x in (root_of_unity(8, 3), 1 + 2 * root_of_unity(3), -root_of_unity(12),
                  CycloNumber.from_rational(1, Fraction(-1, 3)) - Fraction(2, 3) * root_of_unity(3),
                  1 + 2 * root_of_unity(5, 2) + 2 * root_of_unity(5, 3)):
            assert jsonio.cyclo_from_json(pretty(x), "x") == x
        assert jsonio.cyclo_from_json("+z4^3-1/2", "x") == -root_of_unity(4) - Fraction(1, 2)
        for bad in ("z3+z4", "1+2*z3-z6^2", "1++z3", "1+z3+", "z3^", "2*z", "z0",
                    "3z3", "z3*2", "1/0*z3", "z3 ", "x"):
            with pytest.raises(SchemaError):
                jsonio.cyclo_from_json(bad, "x")

    def test_char_round_trip(self):
        for unif in ("z8^3", "1+2*z3", "-1/3-2/3*z3"):
            chi = jsonio.char_from_json(
                F3,
                {"tame_exponent": 1, "uniformizer_value": unif, "wild": {"-1": 1}},
                "char", 8,
            )
            body = jsonio.char_to_json(chi)
            assert body["uniformizer_value"] == unif
            back = jsonio.char_from_json(F3, body, "char")
            assert back.tame_exponent == chi.tame_exponent == 1
            assert back.uniformizer_value == chi.uniformizer_value
            assert back.wild == chi.wild and back.wild.m == 0

    def test_psi_shorthand(self):
        psi = jsonio.psi_from_json(F3, {"0": 1}, "psi", 8)
        assert psi.ord == 0
        psi2 = jsonio.psi_from_json(F3, {"omega": {"-2": 1}}, "psi", 8)
        assert psi2.ord == -2
