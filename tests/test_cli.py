import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest

from resolving import GraphError, cli, parse_edge_list
from resolving.cli import main, parse_graph_token, parse_vertex_set

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "report.schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def check_schema(payload):
    jsonschema.validate(payload, SCHEMA)


# ---------------------------------------------------------------------------
# token parsing


def test_graph_tokens():
    assert parse_graph_token("H").n == 9
    assert parse_graph_token("demo").n == 9
    assert parse_graph_token("J5").n == 20
    assert parse_graph_token("P4").n == 4
    assert parse_graph_token("C6").n == 6
    assert parse_graph_token("K5").n == 5
    assert parse_graph_token("K1,3").n == 4
    assert parse_graph_token("snark:7").n == 28
    assert parse_graph_token("rook:3,4").n == 12
    assert parse_graph_token("tree:0,0,1").n == 4
    assert parse_graph_token("path:2").n == 2


def test_graph_token_errors():
    from resolving import GraphError

    with pytest.raises(GraphError):
        parse_graph_token("K2,3")
    with pytest.raises(GraphError):
        parse_graph_token("family:whatever")
    with pytest.raises(GraphError):
        parse_graph_token("no-such-file.edges")


def test_graph_token_reads_files(tmp_path, capsys):
    path = tmp_path / "g.edges"
    code, _, _ = run(capsys, "gen", "cycle", "--n", "5", "--out", str(path))
    assert code == 0
    assert parse_graph_token(str(path)).n == 5


def test_vertex_set_parsing():
    h = parse_graph_token("H")
    assert parse_vertex_set("v2,v4", h) == (1, 3)
    assert parse_vertex_set("0, 8,3", h) == (0, 3, 8)
    assert parse_vertex_set("8,8", h) == (8,)
    j5 = parse_graph_token("J5")
    assert parse_vertex_set("a1,b2,c3,d4", j5) == (0, 6, 12, 18)
    from resolving import GraphError

    with pytest.raises(GraphError):
        parse_vertex_set("v99", h)
    with pytest.raises(GraphError):
        parse_vertex_set("", h)


# ---------------------------------------------------------------------------
# gen / product


def test_gen_writes_canonical_file(tmp_path, capsys):
    path = tmp_path / "p.edges"
    code, out, _ = run(capsys, "gen", "path", "--n", "4", "--out", str(path))
    assert code == 0
    assert "wrote 4 vertices" in out
    g = parse_edge_list(path.read_text())
    assert g.n == 4 and g.edge_count == 3


def test_gen_stdout_and_json(capsys):
    code, out, _ = run(capsys, "gen", "path", "--n", "3")
    assert code == 0
    assert out == "3\n0 1\n1 2\n"
    code, out, _ = run(capsys, "gen", "path", "--n", "3", "--json")
    payload = json.loads(out)
    check_schema(payload)
    assert payload["command"] == "gen"
    assert payload["result"]["n"] == 3
    assert payload["millis"] == 0.0


def test_gen_rejects_bad_sizes(capsys):
    code, _, err = run(capsys, "gen", "path", "--n", "0")
    assert code == 2
    code, _, err = run(capsys, "gen", "rook")
    assert code == 2
    assert err


def test_product_command(tmp_path, capsys):
    path = tmp_path / "prod.edges"
    code, _, _ = run(capsys, "product", "--g", "K3", "--h", "K4",
                     "--out", str(path))
    assert code == 0
    g = parse_edge_list(path.read_text())
    rook = parse_graph_token("rook:3,4")
    assert g.n == rook.n
    assert sorted(g.edges()) == sorted(rook.edges())


# ---------------------------------------------------------------------------
# check


def test_check_pass_and_fail_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "H", "--set", "v1,v2,v3,v4,v8,v9",
                       "--mode", "resolving", "--ell", "2")
    assert code == 0
    assert "holds" in out
    code, out, _ = run(capsys, "check", "H", "--set", "v1,v2,v3,v4,v8,v9",
                       "--mode", "solid", "--ell", "2")
    assert code == 1
    assert "fails" in out and "witness" in out


def test_check_json_schema_and_witness(capsys):
    code, out, _ = run(capsys, "check", "H", "--set", "v1,v2,v3,v4,v8,v9",
                       "--mode", "solid", "--ell", "2", "--json")
    assert code == 1
    payload = json.loads(out)
    check_schema(payload)
    assert payload["result"]["holds"] is False
    assert payload["witness"]["type"] == "DominatedVertex"
    assert payload["witness"]["vertex"] == 5
    assert payload["arguments"]["ell"] == 2


def test_check_doubly_mode(capsys):
    code, _, _ = run(capsys, "check", "P3", "--set", "0,2", "--mode", "doubly")
    assert code == 0


def test_check_byte_identical_json(capsys):
    args = ("check", "J5", "--set", "a1,b2,c3", "--mode", "resolving",
            "--ell", "1", "--json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# ---------------------------------------------------------------------------
# dim / forced


def test_dim_star_solid(capsys):
    code, out, _ = run(capsys, "dim", "K1,3", "--mode", "solid", "--ell", "2",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["result"]["value"] == 3
    assert payload["result"]["basis"] == [1, 2, 3]
    assert payload["result"]["exact"] is True


# (graph, mode, ell) -> (subsets_checked, mask_count) of ``dim --json``; the
# first counts the sets a size-then-colex scan tests up to the basis, the
# second the distinct separator masks no forced vertex hits
DIM_STATS = {
    ("J5", "resolving", 1): (332, 147),
    # on the orbit path: the representatives' masks
    ("J5", "resolving", 3): (1027065, 51837),
    ("J7", "resolving", 1): (774, 233),
    ("J9", "resolving", 1): (1489, 299),
    ("J5", "doubly", None): (1573, 552),
    ("P9", "resolving", 1): (1, 8),
    ("P9", "solid", 1): (1, 0),
    ("C6", "resolving", 2): (44, 52),
    ("H", "solid", 1): (44, 14),
    ("H", "resolving", 2): (71, 58),
    ("K1,3", "solid", 2): (1, 0),
}


@pytest.mark.parametrize("case", sorted(DIM_STATS, key=str))
def test_dim_json_counters_pinned(capsys, case):
    graph, kind, ell = case
    argv = ["dim", graph, "--mode", kind] + ([] if ell is None else ["--ell", str(ell)])
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["subsets_checked"], result["mask_count"]) == DIM_STATS[case]
    # the other counters stay out of the report
    assert "masks_kept" not in result and "nodes" not in result


def test_dim_budget_exhaustion_exit(capsys):
    code, out, _ = run(capsys, "dim", "J7", "--mode", "resolving", "--ell", "2",
                       "--budget", "0.0", "--json")
    assert code == 1
    payload = json.loads(out)
    check_schema(payload)
    assert payload["result"]["value"] is None


def test_forced_command(capsys):
    code, out, _ = run(capsys, "forced", "H", "--mode", "solid", "--ell", "1",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert 0 in payload["result"]["forced"]
    assert 2 in payload["result"]["forced"]
    assert payload["result"]["forced_labels"]


# ---------------------------------------------------------------------------
# rook-lb / design


def test_rook_lb_values(capsys):
    code, out, _ = run(capsys, "rook-lb", "--m", "7", "--n", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["result"]["bound"] == 28
    code, out, _ = run(capsys, "rook-lb", "--m", "12", "--n", "10", "--json")
    assert json.loads(out)["result"]["bound"] == 81


def test_design_validate_and_to_set(tmp_path, capsys):
    from resolving import fano_plane_design, write_design

    path = tmp_path / "fano.design"
    path.write_text(write_design(fano_plane_design()))
    code, out, _ = run(capsys, "design", "--action", "validate",
                       "--file", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["result"]["valid"] is True
    code, out, _ = run(capsys, "design", "--action", "to-set",
                       "--file", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    check_schema(payload)
    assert payload["result"]["size"] == 28
    assert payload["result"]["grid"] == [7, 7]
    assert payload["result"]["sufficiency"] is True


def test_design_validate_rejects_bad_counts(tmp_path, capsys):
    from resolving import fano_plane_design, write_design

    path = tmp_path / "fano.design"
    path.write_text(write_design(fano_plane_design()))
    code, _, err = run(capsys, "design", "--action", "validate",
                       "--file", str(path), "--m", "6")
    assert code == 2
    assert err


def test_design_invalid_file_exit(tmp_path, capsys):
    path = tmp_path / "bad.design"
    path.write_text("8 5\n0 1\n0 1\n2\n3\n4\n")
    code, out, _ = run(capsys, "design", "--action", "validate",
                       "--file", str(path))
    assert code == 1
    assert "pair-multiplicity" in out


def test_input_files_are_read_as_utf8(tmp_path):
    # both text formats are read as UTF-8 whatever the locale: no read
    # falls back to the locale's encoding
    from resolving import fano_plane_design, write_design

    design = tmp_path / "fano.design"
    design.write_text(write_design(fano_plane_design()), encoding="utf-8")
    edges = tmp_path / "p3.edges"
    edges.write_text("3\n0 1\n1 2\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    strict = [sys.executable, "-X", "warn_default_encoding",
              "-W", "error::EncodingWarning", "-m", "resolving.cli"]
    for argv in (("design", "--action", "validate", "--file", str(design)),
                 ("check", str(edges), "--set", "0")):
        proc = subprocess.run([*strict, *argv], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr


def test_malformed_edge_list_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("3\n0 x\n")
    code, out, err = run(capsys, "check", str(path), "--set", "0")
    assert code == 2
    assert out == ""
    assert "line 2:" in err


# ---------------------------------------------------------------------------
# paths that cannot be read or written


@pytest.mark.parametrize("argv", [
    ("check", "{dir}", "--set", "0"),
    ("design", "--action", "validate", "--file", "{dir}"),
    ("gen", "path", "--n", "3", "--out", "{dir}"),
], ids=["check-graph", "design-file", "gen-out"])
def test_directory_path_exits_2(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert str(tmp_path) in err


# ---------------------------------------------------------------------------
# snark-suite


def test_snark_suite_json_lines(capsys):
    code, out, _ = run(capsys, "snark-suite", "--n", "5", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines() if line]
    assert len(lines) == 8
    for record in lines:
        check_schema(record)
        assert record["holds"] is True
        assert record["millis"] == 0.0


def test_snark_suite_range_syntax(capsys):
    # 9..13 are the first orders with admissible reduction sources; the
    # bytes are pinned beyond the 5..9 that the benchmark's cli stream pins
    code, out, _ = run(capsys, "snark-suite", "--n", "5..13", "--json")
    assert code == 0
    lines = out.splitlines()
    assert {json.loads(line)["n"] for line in lines} == {5, 7, 9, 11, 13}
    assert len(lines) == 48
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "623dbd841b8820b2982715e8d02d3f4c7ce842776e80c96dc2a1ddac6f98d042")
    code, _, _ = run(capsys, "snark-suite", "--n", "4")
    assert code == 2


def test_snark_suite_text_summary(capsys):
    code, out, _ = run(capsys, "snark-suite", "--n", "5")
    assert code == 0
    assert "checks passed" in out.splitlines()[-1]


# ---------------------------------------------------------------------------
# plumbing


def test_version_flag(capsys):
    from resolving import __version__

    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--version"])
    out = capsys.readouterr().out.strip()
    assert out == __version__


def test_malformed_rook_token_exits_2(capsys):
    code, _, err = run(capsys, "check", "rook:7", "--set", "0")
    assert code == 2
    assert "rook:M,N" in err
    with pytest.raises(GraphError, match="rook:M,N"):
        parse_graph_token("rook:7,x")


@pytest.mark.parametrize("token, form", [
    ("tree:0,x", "tree:P1,P2,..."),
    ("tree:", "tree:P1,P2,..."),
    ("snark:x", "snark:N"),
    ("flower-snark:", "flower-snark:N"),
    ("path:", "path:N"),
    ("star:x", "star:M"),
    ("cycle:x", "cycle:N"),
    ("complete:", "complete:N"),
])
def test_malformed_graph_token_names_its_form(capsys, token, form):
    code, _, err = run(capsys, "check", token, "--set", "0")
    assert code == 2
    assert f"expected {form}" in err
    assert "invalid literal" not in err


@pytest.mark.parametrize("argv", [
    ("rook", "--m", "3"),
    ("star",),
    ("flower-snark",),
])
def test_gen_without_n_exits_2(capsys, argv):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 2
    assert "needs --n" in err
    assert out == ""


@pytest.mark.parametrize("argv, form", [
    (("gen", "tree", "--parents", "0,x"), "expected --parents P1,P2,..."),
    (("gen", "tree", "--parents", "0,,1"), "expected --parents P1,P2,..."),
    (("snark-suite", "--n", "5,x"), "expected --n A..B or N1,N2,..."),
    (("snark-suite", "--n", "5..x"), "expected --n A..B or N1,N2,..."),
])
def test_malformed_integer_list_names_its_form(capsys, argv, form):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert form in err
    assert "invalid literal" not in err
    assert out == ""


def test_unknown_graph_exits_2(capsys):
    code, _, err = run(capsys, "check", "Q9", "--set", "0")
    assert code == 2
    assert err


# ---------------------------------------------------------------------------
# option surface: each subcommand takes only the options it reads


@pytest.mark.parametrize("argv", [
    ("rook-lb", "--m", "7", "--n", "7", "--workers", "8"),
    ("check", "H", "--set", "v1,v2", "--budget", "1"),
    ("gen", "path", "--n", "3", "--seed", "1"),
    ("dim", "P5", "--long"),
    ("snark-suite", "--n", "5", "--seed", "1"),
])
def test_unread_option_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_dim_budget_is_read(capsys):
    code, out, _ = run(capsys, "dim", "J5", "--budget", "0", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["arguments"]["budget"] == 0.0
    assert payload["result"]["exact"] is False


def test_dim_nan_budget_exits_2(capsys):
    code, out, err = run(capsys, "dim", "J5", "--ell", "2", "--budget", "nan", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "NaN" in err


@pytest.mark.parametrize("budget", ["inf", "--budget=-inf", "1e999"])
@pytest.mark.parametrize("command", [("dim", "P3"), ("snark-suite", "--n", "5")],
                         ids=["dim", "snark-suite"])
def test_infinite_budget_exits_2(capsys, command, budget):
    # JSON has no infinity: the report that echoes the budget could not be
    # parsed by a strict reader
    argv = [*command, budget] if budget.startswith("--") else [*command, "--budget", budget]
    code, out, err = run(capsys, *argv, "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_reports_refuse_non_finite_numbers():
    args = cli.build_parser().parse_args(["dim", "P3", "--json"])
    with pytest.raises(ValueError):
        cli._report(args, {"value": float("nan")}, None, None, 0.0)


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv, code", [
    (("check", "P5", "--set", "0"), 0),
    (("check", "P5", "--set", "2", "--json"), 1),
    (("snark-suite", "--n", "5", "--json"), 0),
])
def test_closed_stdout_keeps_the_exit_code(capsys, monkeypatch, argv, code):
    # a reader that stops reading is no usage error: the command's own code,
    # and nothing on stderr
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(list(argv)) == code
    assert capsys.readouterr().err == ""


def test_reader_closing_the_pipe_early_is_no_error():
    # 537 KB of edge list, far more than a pipe holds: the writer is still
    # writing when the reader goes
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "resolving.cli", "gen", "rook", "--m", "40", "--n", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"1600\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode != 2
    assert err == b""


def test_dim_doubly_on_one_vertex_exits_2(capsys):
    # no set of one vertex is doubly resolving, and nothing is left to
    # search: the mode is refused, as check refuses it
    for argv in (("dim", "P1"), ("check", "P1", "--set", "0")):
        code, out, err = run(capsys, *argv, "--mode", "doubly", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: doubly-resolving needs at least two")


def test_snark_suite_long_and_budget_are_read(capsys):
    code, out, _ = run(capsys, "snark-suite", "--n", "5", "--long", "--json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    dims = [r for r in records if r["check_name"].startswith("dimension-")]
    assert [r["check_name"] for r in dims] == ["dimension-solid-1",
                                               "dimension-resolving-2"]
    assert all(r["holds"] for r in dims)
    code, out, _ = run(capsys, "snark-suite", "--n", "5", "--long",
                       "--budget", "0", "--json")
    assert code == 1
    dims = [json.loads(line) for line in out.splitlines()][-2:]
    assert [r["holds"] for r in dims] == [False, False]


def test_snark_suite_passes_its_options_on(capsys, monkeypatch):
    seen = {}

    def suite(ns, **kwargs):
        seen.update(kwargs, ns=ns)
        return []

    monkeypatch.setattr(cli.snark, "snark_suite", suite)
    code, _, _ = run(capsys, "snark-suite", "--n", "5", "--long", "--budget", "2.5")
    assert code == 0
    assert seen == {"ns": [5], "long": True, "budget_s": 2.5}
    run(capsys, "snark-suite", "--n", "7")
    assert seen == {"ns": [7], "long": False, "budget_s": 60.0}


# the report's "arguments" echo: each subcommand's own options plus keys
# whose values are fixed for it
_FIXED_ARGUMENTS = {"subcommand": None, "budget": 60.0, "long": False,
                    "seed": 0, "workers": 1}


@pytest.mark.parametrize("argv, own", [
    (("gen", "path", "--n", "3"), {"family", "n", "m", "parents", "out"}),
    (("product", "--g", "P2", "--h", "P3"), {"g", "h", "out"}),
    (("check", "P3", "--set", "0"), {"graph", "set", "mode", "ell"}),
    (("dim", "P3"), {"graph", "mode", "ell", "k_max"}),
    (("forced", "P3"), {"graph", "mode", "ell"}),
    (("rook-lb", "--m", "2", "--n", "3"), {"m", "n"}),
    (("design", "--action", "validate", "--file", "FANO"),
     {"action", "file", "m", "n"}),
])
def test_report_arguments_keep_their_keys(tmp_path, capsys, argv, own):
    from resolving import fano_plane_design, write_design

    path = tmp_path / "fano.design"
    path.write_text(write_design(fano_plane_design()))
    argv = [str(path) if a == "FANO" else a for a in argv]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    echo = json.loads(out)["arguments"]
    assert set(echo) == own | set(_FIXED_ARGUMENTS)
    assert {k: echo[k] for k in _FIXED_ARGUMENTS} == {**_FIXED_ARGUMENTS,
                                                      "subcommand": argv[0]}


def test_timing_flag_reports_nonzero(capsys):
    code, out, _ = run(capsys, "dim", "P5", "--mode", "resolving", "--ell", "1",
                       "--json", "--timing")
    assert code == 0
    assert json.loads(out)["millis"] > 0


def test_dim_timing_reports_search_counters(capsys):
    argv = ("dim", "J5", "--mode", "resolving", "--ell", "2")
    code, out, _ = run(capsys, *argv, "--json", "--timing")
    assert code == 0
    check_schema(json.loads(out))
    result = json.loads(out)["result"]
    assert result["nodes"] > 0
    assert 0 < result["masks_kept"] <= result["mask_count"]
    assert set(result["phase_ms"]) == {"masks", "reduce", "group", "search", "verify"}
    assert all(ms >= 0.0 for ms in result["phase_ms"].values())
    # 1 and 3 fail, 7 passes, 6 fails; the basis is read off at 7
    assert result["decided"] == [1, 3, 7, 6]
    # the text report gains one line, and only under --timing
    code, out, _ = run(capsys, *argv, "--timing")
    timed = out.splitlines()
    code, out, _ = run(capsys, *argv)
    plain = out.splitlines()
    assert timed[:-1] == plain
    assert timed[-1].startswith(f"search: {result['nodes']} nodes, "
                                f"{result['masks_kept']} of {result['mask_count']} masks kept, "
                                "decided [1, 3, 7, 6], phase ms masks ")


def test_dim_without_timing_has_no_search_counters(capsys):
    code, out, _ = run(capsys, "dim", "J5", "--mode", "resolving", "--ell", "2", "--json")
    assert code == 0
    assert not {"nodes", "masks_kept", "decided", "phase_ms"} & set(json.loads(out)["result"])
