"""End-to-end CLI checks: subcommands, file round trips, and exit codes."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import kernelkit
from kernelkit import build_digraph, directed_cycle
from kernelkit.campaigns import CAMPAIGNS, PARAMETER_READERS
from kernelkit.cli import EXIT_FAILURE, EXIT_PASS, EXIT_RESOURCE, EXIT_USAGE, main
from kernelkit.generators import random_strongly_connected
from kernelkit.textio import format_digraph_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def c6_file(tmp_path):
    path = tmp_path / "c6.txt"
    assert main(["generate", "--kind", "cycle", "--n", "6", "--out", str(path)]) == EXIT_PASS
    return path


def test_generate_cycle(c6_file):
    assert c6_file.read_text() == "n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"


def test_generate_random_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        code, _, _ = run(capsys, "generate", "--kind", "random-sc", "--n", "6",
                         "--p", "0.3", "--seed", "5", "--out", str(out))
        assert code == EXIT_PASS
    assert a.read_text() == b.read_text()


def test_generate_exhaustive_dir(tmp_path):
    out = tmp_path / "all3"
    assert main(["generate", "--kind", "exhaustive", "--n", "2", "--out", str(out)]) == EXIT_PASS
    assert len(list(out.glob("digraph_*.txt"))) == 4


def test_analyze_json(c6_file, capsys):
    code, out, _ = run(capsys, "analyze", str(c6_file), "--format", "json")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["n"] == 6 and payload["m"] == 6
    assert payload["strongly_connected"] is True
    assert payload["circuit_hypothesis"] == {"satisfied": True, "violations": []}
    # every section is a first violation alone, or none
    c6 = {"vertices": [0, 1, 2, 3, 4, 5]}
    assert payload["duchet"] == {
        "satisfied": False, "violations": [{**c6, "reason": "cycle without symmetric arc"}]
    }
    for variant in ("two_consecutive", "three_with_crossing"):
        assert payload[f"cycle_hypothesis_{variant}"] == {
            "satisfied": False,
            "violations": [{**c6, "reason": "length = 0 mod 3 but no short chord"}],
        }
    assert len(payload) == 7


def test_kernel_search(c6_file, capsys):
    code, out, _ = run(capsys, "kernel", str(c6_file), "--k", "3", "--format", "json")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["found"] is True and payload["witness"] == [0, 3]


def test_kernel_via_closure(c6_file, capsys, tmp_path):
    closure_file = tmp_path / "closure.txt"
    code, out, _ = run(capsys, "kernel", str(c6_file), "--k", "3", "--via-closure",
                       "--emit-closure", str(closure_file), "--format", "json")
    assert code == EXIT_PASS
    assert json.loads(out)["witness"] == [0, 3]
    assert "0 2" in closure_file.read_text()


def test_kernel_emits_closure_without_via_closure(c6_file, capsys, tmp_path):
    closure_file = tmp_path / "closure.txt"
    code, out, _ = run(capsys, "kernel", str(c6_file), "--k", "3",
                       "--emit-closure", str(closure_file), "--format", "json")
    assert code == EXIT_PASS
    assert json.loads(out)["witness"] == [0, 3]
    assert run(capsys, "closure", str(c6_file), "--k", "2")[1] == closure_file.read_text()


def test_closure_command(c6_file, capsys):
    code, out, _ = run(capsys, "closure", str(c6_file), "--k", "2")
    assert code == EXIT_PASS
    assert "0 2" in out and "0 3" not in out


def test_substitute_with_trace(c6_file, capsys, tmp_path):
    trace_file = tmp_path / "trace.json"
    code, out, _ = run(capsys, "substitute", str(c6_file), "--x0", "0",
                       "--trace", str(trace_file), "--format", "json")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["pre_3_kernel"] == [0, 3] and payload["is_3_kernel"] is True
    doc = json.loads(trace_file.read_text())
    assert doc["p"] == 2
    assert doc["rounds"][0]["removed_one"] == [5]
    assert {"s": 3, "v": 3, "path": [3, 4, 5, 0], "labels": ["N3", "N'2", "N1", "N0"]} in doc["roads"]
    assert doc["checks"]["pre_kernel_2_absorbent"] is True


def test_verify_pass_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "closure-lemma", "--n", "3", "--exhaustive")
    assert code == EXIT_PASS
    assert json.loads(out)["body"]["result"] == "pass"


def test_verify_failure_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "pre-kernel-props", "--n", "6",
                       "--trials", "100", "--seed", "7")
    assert code == EXIT_FAILURE
    assert json.loads(out)["body"]["result"] == "fail"


def test_verify_report_to_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "duchet", "--n", "3", "--exhaustive",
                       "--out", str(out_file))
    assert code == EXIT_PASS and out == ""
    assert json.loads(out_file.read_text())["body"]["result"] == "pass"


def test_usage_errors(capsys):
    assert run(capsys, "verify", "nonsense-property")[0] == EXIT_USAGE
    assert run(capsys, "analyze", "/nonexistent/file.txt")[0] == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "C6", "--k", "0"],
        ["kernel", "C6", "--k", "1"],
        ["kernel", "C6", "--k", "3", "--l", "0"],
        ["kernel", "C6", "--k", "2", "--via-closure"],
        ["closure", "C6", "--k", "0"],
        ["verify", "roads", "--n", "0"],
        ["verify", "roads", "--p", "1.5"],
        ["analyze", "C6", "--budget", "-5"],
        ["verify", "theorem2", "--budget", "-1"],
        ["analyze", "C6", "--max-circuit-len", "-1"],
        ["analyze", "C6", "--max-circuit-len", "0"],
        ["verify", "roads", "--n", "4", "--trials", "3", "--budget", "-1"],
        ["verify", "roads", "--n", "4", "--trials", "-3"],
        ["verify", "theorem4", "--n", "6", "--trials", "30", "--p", "0.3",
         "--seed", "20260823", "--max-failures", "-1"],
        ["verify", "reverse-path", "--n", "4", "--trials", "20", "--min-cycle-len", "4"],
        ["verify", "reverse-path", "--n", "4", "--trials", "20", "--min-cycle-len", "1"],
        ["verify", "theorem2", "--n", "4", "--trials", "20", "--min-cycle-len", "0"],
        ["analyze", "C6", "--min-cycle-len", "-3"],
        ["analyze", "C6", "--min-cycle-len", "1"],
        *(
            ["verify", property_id, "--n", "3", "--trials", "2", "--exhaustive"]
            for property_id in (
                "pre-kernel-props", "roads", "unique-chord", "additive-inverse", "theorem4"
            )
        ),
        ["verify", "roads", "--p=-1e-05"],
        # C6 has no (3,1)-kernel; the closure route finds (k,k-1)-kernels only
        ["kernel", "C6", "--k", "3", "--l", "1", "--via-closure"],
        # the exhaustive enumeration draws nothing, yet --p is range-checked
        ["verify", "duchet", "--exhaustive", "--n", "3", "--p", "7"],
        ["verify", "closure-lemma", "--exhaustive", "--n", "2", "--p=-0.5"],
    ],
)
def test_out_of_range_arguments_are_usage_errors(argv, c6_file, capsys):
    code, out, err = run(capsys, *(str(c6_file) if a == "C6" else a for a in argv))
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_exhaustive_campaigns_accept_every_p_in_range(capsys):
    for p in ("0", "0.5", "1"):
        code, out, _ = run(capsys, "verify", "duchet", "--exhaustive", "--n", "3", "--p", p)
        assert code == EXIT_PASS
        assert json.loads(out)["body"]["parameters"]["arc_prob"] == float(p)


def test_negative_p_in_exponent_notation_needs_the_equals_spelling(capsys):
    # argparse reads `-1e-05` after a space as an option, so the value is
    # missing; `--p=-1e-05` reaches the range check (see the cases above).
    code, out, err = run(capsys, "verify", "roads", "--p", "-1e-05")
    assert code == EXIT_USAGE
    assert out == "" and "error: argument --p: expected one argument" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kernel", "C6", "--k", "3", "--budget", "10"],
        ["closure", "C6", "--k", "2", "--format", "json"],
        ["closure", "C6", "--k", "2", "--budget", "10"],
        ["substitute", "C6", "--x0", "0", "--budget", "10"],
        ["verify", "closure-lemma", "--n", "2", "--exhaustive", "--format", "text"],
        ["verify", "roads", "--n", "4", "--trials", "3", "--budget", "1", "--min-cycle-len", "7"],
        ["analyze", "C6", "--trials", "3"],
        ["kernel", "C6", "--k", "2", "--min-cycle-len", "3"],
        ["generate", "--kind", "cycle", "--n", "3", "--out", "c3.txt", "--budget", "5"],
        # Duchet's class is decided without a cycle search, so no budget
        ["verify", "duchet", "--n", "3", "--exhaustive", "--budget", "5"],
        *(
            ["verify", property_id, "--n", "3", "--trials", "2", "--budget", "5"]
            for property_id in sorted(set(CAMPAIGNS) - set(PARAMETER_READERS["budget"]))
        ),
        *(
            ["verify", property_id, "--n", "3", "--trials", "2", "--min-cycle-len", "3"]
            for property_id in sorted(set(CAMPAIGNS) - {"reverse-path", "theorem2"})
        ),
    ],
)
def test_options_a_command_does_not_read_are_rejected(argv, c6_file, capsys):
    code, out, err = run(capsys, *(str(c6_file) if a == "C6" else a for a in argv))
    assert code == EXIT_USAGE
    assert out == "" and "unrecognized arguments" in err


@pytest.mark.parametrize(
    "property_id, option",
    [("reverse-path", "--min-cycle-len"), ("theorem2", "--min-cycle-len"),
     ("reverse-path", "--budget"), ("theorem2", "--budget")],
)
def test_campaign_options_reach_the_campaigns_that_read_them(property_id, option, capsys):
    code, out, _ = run(capsys, "verify", property_id, "--n", "4", "--trials", "3", option, "3")
    assert code in (EXIT_PASS, EXIT_FAILURE)
    assert json.loads(out)["body"]["parameters"][option[2:].replace("-", "_")] == 3


def test_analyze_decides_the_circuit_section_of_a_dense_digraph(tmp_path, capsys):
    # m = 27: the circuit check searches nothing, so the default budget decides it
    path = tmp_path / "dense.txt"
    path.write_text(format_digraph_text(random_strongly_connected(6, 0.8, 1)))
    code, out, err = run(capsys, "analyze", str(path), "--format", "json")
    assert code == EXIT_PASS and err == ""
    assert json.loads(out)["circuit_hypothesis"] == {
        "satisfied": False,
        "violations": [
            {"vertices": [0, 1], "reason": "length != 0 mod 3 with only 0 short chords"}
        ],
    }


@pytest.mark.parametrize("max_len, satisfied", [("3", True), ("4", False), ("12", False)])
def test_analyze_max_circuit_len_bounds_the_first_violation(max_len, satisfied, tmp_path, capsys):
    # C4: its one cycle is the first violation, of length 4
    path = tmp_path / "c4.txt"
    path.write_text(format_digraph_text(directed_cycle(4)))
    code, out, _ = run(capsys, "analyze", str(path), "--format", "json",
                       "--max-circuit-len", max_len)
    assert code == EXIT_PASS
    assert json.loads(out)["circuit_hypothesis"]["satisfied"] is satisfied


@pytest.fixture
def k5_file(tmp_path):
    """The complete symmetric digraph K5*: 84 cycles, each satisfying both
    cycle hypotheses past length 2; its length-5 pass extends 65 paths, the
    others fewer."""
    path = tmp_path / "k5.txt"
    path.write_text(format_digraph_text(
        build_digraph(5, [(u, v) for u in range(5) for v in range(5) if u != v])
    ))
    return str(path)


def test_analyze_exits_3_when_the_cycle_budget_runs_out(k5_file, capsys):
    args = ["analyze", k5_file, "--min-cycle-len", "3"]
    code, out, err = run(capsys, *args, "--budget", "64")
    assert code == EXIT_RESOURCE and out == ""
    assert err == "resource bound: cycle enumeration exceeded 64 steps at length 5\n"
    code, out, _ = run(capsys, *args, "--budget", "65")
    assert code == EXIT_PASS and "cycle_hypothesis_three_with_crossing.satisfied: True\n" in out


def test_analyze_reads_min_cycle_len_before_any_search(k5_file, capsys):
    # at the default length nothing searches, so the budget cuts nothing;
    # an invalid length is refused before any check runs
    code, out, err = run(capsys, "analyze", k5_file, "--budget", "1")
    assert code == EXIT_PASS and err == "" and "duchet.satisfied: True\n" in out
    code, out, err = run(capsys, "analyze", k5_file, "--budget", "64", "--min-cycle-len", "1")
    assert code == EXIT_USAGE and out == "" and err == "error: min_len must be >= 2\n"


def test_analyze_at_the_default_length_searches_no_cycles(k5_file, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("a cycle search")

    monkeypatch.setattr(kernelkit.cycles, "enumerate_cycles", no_search)
    code, out, _ = run(capsys, "analyze", k5_file)
    assert code == EXIT_PASS
    # the first violation, the digon (0, 1), comes from the walk
    assert "cycle_hypothesis_two_consecutive.violations: [{'vertices': [0, 1], " in out
    # the patch reaches the checks: past length 2 they search
    with pytest.raises(AssertionError, match="a cycle search"):
        main(["analyze", k5_file, "--min-cycle-len", "3"])


def test_package_runs_as_a_module(tmp_path):
    out = tmp_path / "c3.txt"
    src = str(Path(kernelkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "kernelkit", "generate", "--kind", "cycle", "--n", "3",
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == EXIT_PASS, done.stderr
    assert out.read_text() == "n 3\n0 1\n1 2\n2 0\n"


def test_runtime_imports_only_the_standard_library():
    src = str(Path(kernelkit.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import kernelkit, kernelkit.cli, kernelkit.__main__\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['kernelkit']\n"


def test_parse_error_is_usage(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a digraph\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == EXIT_USAGE
    assert "error" in err


def test_resource_exit_code(capsys, tmp_path):
    out = tmp_path / "too-big"
    code, _, err = run(capsys, "generate", "--kind", "exhaustive", "--n", "6",
                       "--out", str(out))
    assert code == EXIT_RESOURCE
    assert "resource" in err
    assert not out.exists()


HUGE = 10**20  # fits in no machine index
BEYOND_MEMORY = 10**10  # fits in one, but its vertex masks alone take 80 GB
SEARCH_BOUND = "vertices exceeds subset-search bound 24"


@pytest.mark.parametrize(
    "n, argv, message",
    [
        (HUGE, ["analyze"], None),
        (HUGE, ["closure", "--k", "2"], None),
        (HUGE, ["kernel", "--k", "2"], f"{HUGE} {SEARCH_BOUND}"),
        (HUGE, ["substitute", "--x0", "0"], f"{HUGE - 1} {SEARCH_BOUND}"),
        (HUGE, ["kernel", "--k", "3", "--via-closure"], f"{HUGE} {SEARCH_BOUND}"),
        # analyze and closure have no size bound: they run out of memory
        (BEYOND_MEMORY, ["analyze"], "out of memory"),
        (BEYOND_MEMORY, ["closure", "--k", "2"], "out of memory"),
        (BEYOND_MEMORY, ["kernel", "--k", "3"], f"{BEYOND_MEMORY} {SEARCH_BOUND}"),
        (BEYOND_MEMORY, ["kernel", "--k", "3", "--via-closure"], f"{BEYOND_MEMORY} {SEARCH_BOUND}"),
        (BEYOND_MEMORY, ["substitute", "--x0", "0"], f"{BEYOND_MEMORY - 1} {SEARCH_BOUND}"),
    ],
    ids=[
        "analyze", "closure", "kernel", "substitute", "kernel-via-closure",
        "analyze-beyond-memory", "closure-beyond-memory", "kernel-beyond-memory",
        "kernel-via-closure-beyond-memory", "substitute-beyond-memory",
    ],
)
def test_oversized_header_is_a_resource_bound(tmp_path, n, argv, message):
    """A command with a size bound checks it before it builds anything of the
    header's size, and names it; analyze and closure, which have none, run
    out of memory.  Either way the command exits 3 within 1 GiB of address
    space, with no traceback."""
    path = tmp_path / "huge.txt"
    path.write_text(f"n {n}\n0 1\n")
    src = str(Path(kernelkit.__file__).resolve().parents[1])
    gib = 1 << 30
    done = subprocess.run(
        [sys.executable, "-m", "kernelkit", argv[0], str(path), *argv[1:]],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)),
    )
    assert done.returncode == EXIT_RESOURCE, done.stderr
    assert done.stderr.startswith("resource bound: ") and "Traceback" not in done.stderr
    if message is not None:
        assert done.stderr == f"resource bound: {message}\n"


def test_substitute_without_base_kernel(tmp_path, capsys):
    path = tmp_path / "c4apex.txt"
    path.write_text("n 5\n0 1\n1 2\n2 3\n3 0\n4 0\n0 4\n")
    code, _, err = run(capsys, "substitute", str(path), "--x0", "4")
    assert code == EXIT_FAILURE
    assert "substitution cannot run" in err


# -- fuzzing ------------------------------------------------------------------

small_ints = st.integers(-2, 6)


def option(flag, values=small_ints):
    """`[flag, value]`, or `[]` when the option is left out."""
    return st.one_of(st.just([]), values.map(lambda value: [flag, str(value)]))


def switch(flag):
    return st.sampled_from([[], [flag]])


def command(*parts):
    return st.tuples(*parts).map(lambda pieces: [word for piece in pieces for word in piece])


fuzz_digraphs = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda a: a[0] != a[1]),
        unique=True,
        max_size=n * (n - 1),
    ).map(lambda arcs: build_digraph(n, arcs))
)

fuzz_argv = st.one_of(
    command(
        st.just(["kernel", "FILE"]), small_ints.map(lambda k: ["--k", str(k)]), option("--l"),
        switch("--via-closure"), option("--format", st.sampled_from(["text", "json"])),
    ),
    command(st.just(["closure", "FILE"]), small_ints.map(lambda k: ["--k", str(k)])),
    command(
        st.just(["analyze", "FILE"]), option("--min-cycle-len"), option("--max-circuit-len"),
        option("--budget"), option("--format", st.sampled_from(["text", "json"])),
    ),
    command(
        st.sampled_from(sorted(CAMPAIGNS)).map(lambda property_id: ["verify", property_id]),
        st.integers(-2, 5).map(lambda n: ["--n", str(n)]),
        small_ints.map(lambda trials: ["--trials", str(trials)]),
        option("--budget"), option("--min-cycle-len"), option("--max-failures"),
        option("--seed"), option("--p", st.floats(-0.5, 1.5)), switch("--exhaustive"),
    ),
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "digraph.txt"


@given(fuzz_digraphs, fuzz_argv)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_commands_exit_with_a_documented_code(fuzz_file, d, argv):
    """No exception escapes `main`, the exit code is one of 0-3, and exit 1
    means a report with failures."""
    # exhaustive enumeration past n = 3 takes minutes, not a fuzz step
    assume(not ("--exhaustive" in argv and int(argv[argv.index("--n") + 1]) > 3))
    fuzz_file.write_text(format_digraph_text(d))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(fuzz_file) if word == "FILE" else word for word in argv])
    assert code in (EXIT_PASS, EXIT_FAILURE, EXIT_USAGE, EXIT_RESOURCE)
    assert "Traceback" not in err.getvalue()
    if code in (EXIT_USAGE, EXIT_RESOURCE):
        assert "error" in err.getvalue() or "resource bound: " in err.getvalue()
    if argv[0] == "verify" and code in (EXIT_PASS, EXIT_FAILURE):
        failures_total = json.loads(out.getvalue())["body"]["failures_total"]
        assert (code == EXIT_FAILURE) == (failures_total > 0)
    else:
        assert code != EXIT_FAILURE
