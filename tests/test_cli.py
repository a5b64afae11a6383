"""Command line behavior: exit codes, canonical output, and the wiring
from subcommands to the library."""

import csv
import io
import json
import re

import pytest

from ckblowup import certcheck, cli
from ckblowup.cli import build_parser, main
from ckblowup.core import (
    VertexRef,
    build_graph,
    degree_profile,
    graph_from_json,
    graph_to_json,
)
from ckblowup.exact import is_cover
from ckblowup.inequality import FeasiblePoint
from ckblowup.generators import complete_blowup, haggkvist_example


@pytest.fixture()
def hagg_file(tmp_path):
    G, _ = haggkvist_example(3, 1)
    path = tmp_path / "hagg31.json"
    path.write_text(graph_to_json(G))
    return str(path)


def test_generate_complete_round_trip(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["generate", "--family", "complete", "--k", "3", "--n", "4",
                 "--out", str(out)]) == 0
    G = graph_from_json(out.read_text())
    assert G.k == 3 and G.n == 4
    assert G == complete_blowup(3, 4)
    # byte-identical on repeat runs
    again = tmp_path / "g2.json"
    main(["generate", "--family", "complete", "--k", "3", "--n", "4",
          "--out", str(again)])
    assert out.read_bytes() == again.read_bytes()
    capsys.readouterr()


def test_generate_layered_with_blocks(tmp_path):
    out = tmp_path / "h.json"
    bout = tmp_path / "blocks.json"
    assert main(["generate", "--family", "haggkvist", "--k", "3", "--m", "2",
                 "--out", str(out), "--blocks-out", str(bout)]) == 0
    G = graph_from_json(out.read_text())
    assert G.n == 12
    blocks = json.loads(bout.read_text())["blocks"]
    assert {"U_1", "W_1", "Z_3"} <= set(blocks)


@pytest.mark.parametrize("family", [["complete"], ["random", "--seed", "1", "--deltas", "1,1,1"]])
def test_generate_refuses_oversized_graph_before_allocating(family, tmp_path, capsys,
                                                           monkeypatch):
    def no_generation(*args):
        raise AssertionError("the generator ran")

    monkeypatch.setattr(cli, "complete_blowup", no_generation)
    monkeypatch.setattr(cli, "random_min_degree", no_generation)
    out = tmp_path / "g.json"
    assert main(["generate", "--family", *family, "--k", "3", "--n", "100000",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "30000000000 bytes" in err
    assert "Traceback" not in err and not out.exists()


def test_generate_size_cap_is_on_matrix_and_pair_bytes(tmp_path, capsys, monkeypatch):
    c = cli._PAIR_BYTES
    monkeypatch.setattr(cli, "_matrix_bytes_cap", lambda: 3 * (16 + c))
    out = str(tmp_path / "g.json")
    assert main(["generate", "--family", "complete", "--k", "3", "--n", "4",
                 "--out", out]) == 0

    def no_generation(*args):
        raise AssertionError("the generator ran")

    for name in ("complete_blowup", "haggkvist_example", "cover_example"):
        monkeypatch.setattr(cli, name, no_generation)
    # n = 5: k*n^2 = 75 bytes fit under the cap, but k*(n^2 + c) do not
    assert main(["generate", "--family", "complete", "--k", "3", "--n", "5",
                 "--out", out]) == 3
    assert "75 bytes" in capsys.readouterr().err
    # haggkvist: n = 2km = 6; cover 7/9: n = 36
    for family, need in ((["haggkvist", "--m", "1"], 108), (["cover"], 3 * 36 * 36)):
        assert main(["generate", "--family", *family, "--out", out]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{need} bytes" in err
    monkeypatch.undo()  # the generators again, and a cap of exactly k*(n^2 + c)
    monkeypatch.setattr(cli, "_matrix_bytes_cap", lambda: 108 + 3 * c)
    assert main(["generate", "--family", "haggkvist", "--m", "1", "--out", out]) == 0
    # a bad --m or --p/--q is still a usage error, not a size refusal
    assert main(["generate", "--family", "haggkvist", "--m", "-1000000", "--out", out]) == 2
    assert main(["generate", "--family", "cover", "--p", "1", "--q", "2", "--out", out]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n", [100, 4000, 10**6])
@pytest.mark.parametrize("fmt,body", [("ckblowup/1", "edges"), ("ckblowup/2", "pairs")])
def test_loading_refuses_oversized_graph_before_allocating(n, fmt, body, tmp_path, capsys,
                                                           monkeypatch):
    from ckblowup import core

    def no_building(*args):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(core, "build_graph", no_building)
    monkeypatch.setattr(core, "_decode_pairs", no_building)
    if n == 100:  # 30 KB of bool matrices fit, but not with c bytes per pair
        monkeypatch.setattr(cli, "_matrix_bytes_cap",
                            lambda: 3 * (100 * 100 + cli._PAIR_BYTES) - 1)
    if n == 4000:  # 48 MB of bool matrices, over a cap patched down to 47 MB
        monkeypatch.setattr(cli, "_matrix_bytes_cap", lambda: 3 * 4000 * 4000 - 1)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({body: [], "format": fmt, "k": 3, "n": n},
                               sort_keys=True, separators=(",", ":")))
    if fmt == "ckblowup/1" and n == 4000:
        assert path.stat().st_size == 49
    assert main(["check", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{3 * n * n} bytes" in err
    assert "Traceback" not in err


def test_generate_random_requires_seed(capsys):
    assert main(["generate", "--family", "random", "--k", "3", "--n", "6",
                 "--deltas", "4,4,4"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_generate_random_respects_deltas(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["generate", "--family", "random", "--k", "3", "--n", "6",
                 "--deltas", "4,4,4", "--seed", "7", "--out", str(out)]) == 0
    prof = degree_profile(graph_from_json(out.read_text()))
    assert all(d >= 4 for d in prof.deltas)
    capsys.readouterr()


def test_generate_blocks_unavailable_for_complete(tmp_path, capsys):
    assert main(["generate", "--family", "complete", "--k", "3", "--n", "4",
                 "--out", str(tmp_path / "g.json"),
                 "--blocks-out", str(tmp_path / "b.json")]) == 2
    assert "blocks" in capsys.readouterr().err


def test_generate_cover_family(tmp_path, capsys):
    out = tmp_path / "cov.json"
    assert main(["generate", "--family", "cover", "--p", "7", "--q", "9",
                 "--out", str(out)]) == 0
    G = graph_from_json(out.read_text())
    assert G.k == 3 and G.n == 36
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--family", "complete", "--k", "3"],
    ["--family", "complete", "--k", "3", "--n", "-1"],
    ["--family", "complete", "--k", "3", "--n", "0"],
    ["--family", "random", "--k", "3", "--deltas", "1,1,1", "--seed", "1"],
    ["--family", "random", "--k", "3", "--n", "-2", "--deltas", "1,1,1", "--seed", "1"],
])
def test_generate_needs_positive_n(argv, capsys):
    assert main(["generate", *argv]) == 2
    assert "error: --family" in capsys.readouterr().err


def test_generate_random_requires_deltas(capsys):
    assert main(["generate", "--family", "random", "--k", "3", "--n", "6",
                 "--seed", "1"]) == 2
    assert "error: --deltas is required" in capsys.readouterr().err


def test_generate_bad_deltas_string(capsys):
    assert main(["generate", "--family", "random", "--k", "3", "--n", "6",
                 "--deltas", "4,x,4", "--seed", "1"]) == 2
    assert "comma-separated" in capsys.readouterr().err


def test_check_reports_profile(hagg_file, capsys):
    assert main(["check", hagg_file]) == 0
    text = capsys.readouterr().out
    assert "k = 3, n = 6" in text
    assert "delta_1 = 4" in text
    assert "delta* = 3" in text
    assert "not met" in text  # factor threshold 5 > 3


def test_check_missing_file_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "ckblowup/1", "k": 3,\n  "n": }')
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_non_utf8_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(bytes([0xFF, 0xFE, 0x7B, 0x7D]))
    assert main(["check", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad} is not UTF-8 text")
    assert "Traceback" not in captured.err


def test_wrong_payload_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "other/9"}')
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()


def test_malformed_packed_pair_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format":"ckblowup/2","k":3,"n":3,"pairs":["/wE=","/wM=","/wE="]}')
    assert main(["check", str(bad)]) == 2
    assert "pair 2 has nonzero padding bits" in capsys.readouterr().err


def test_malformed_edge_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"edges": [[1, 0, 0], [1, 0.5, 0]], "format": "ckblowup/1", "k": 3, "n": 2}')
    assert main(["check", str(bad)]) == 2
    assert "edge [1, 0.5, 0] is not a triple of integers" in capsys.readouterr().err


def test_tile_exact(hagg_file, capsys):
    assert main(["tile", hagg_file, "--exact"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 5
    assert payload["optimal"] is True
    assert len(payload["witness"]) == 5
    assert payload["nodes_expanded"] >= 1


def test_tile_exact_deep_search_exits_0(tmp_path, capsys):
    # one disjoint triangle per index: the search is 1500 levels deep
    n = 1500
    path = tmp_path / "diag.json"
    path.write_text(graph_to_json(build_graph(3, n, [(i, u, u) for i in (1, 2, 3)
                                                     for u in range(n)])))
    assert main(["tile", str(path), "--exact"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == n
    assert payload["optimal"] is True


def test_tile_needs_exactly_one_mode(hagg_file, capsys):
    assert main(["tile", hagg_file]) == 2
    assert main(["tile", hagg_file, "--exact", "--swap3"]) == 2
    capsys.readouterr()


def test_tile_exact_budget_exhaustion(tmp_path, capsys):
    G, _ = haggkvist_example(3, 3)
    path = tmp_path / "h33.json"
    path.write_text(graph_to_json(G))
    assert main(["tile", str(path), "--exact", "--budget-ms", "1"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimal"] is False


def test_tile_swap3(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(["generate", "--family", "random", "--k", "3", "--n", "6",
          "--deltas", "4,4,4", "--seed", "11", "--out", str(out)])
    capsys.readouterr()
    assert main(["tile", str(out), "--swap3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] >= 5
    assert payload["optimal"] in (True, None)


def test_tile_swap3_rejects_weak_degrees(hagg_file, capsys):
    assert main(["tile", hagg_file, "--swap3"]) == 2
    assert "error" in capsys.readouterr().err


def test_tile_constructive(tmp_path, capsys):
    path = tmp_path / "c390.json"
    path.write_text(graph_to_json(complete_blowup(3, 90)))
    assert main(["tile", str(path), "--constructive"]) == 2  # no seed
    assert main(["tile", str(path), "--constructive", "--seed", "12"]) == 2
    capsys.readouterr()
    assert main(["tile", str(path), "--constructive", "--seed", "12",
                 "--epsilon", "0.25"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 90 and payload["optimal"] is True


@pytest.mark.parametrize("eps", ["0", "-0.5"])
def test_tile_constructive_rejects_sigma_outside_unit_interval(eps, tmp_path, capsys):
    # sigma = min(eps/4, 0.05); at n = 200 the sizing check passes, so
    # the sigma check is what refuses (at n = 60 sizing fails first)
    path = tmp_path / "c3200.json"
    path.write_text(graph_to_json(complete_blowup(3, 200)))
    assert main(["tile", str(path), "--constructive", "--seed", "1",
                 "--epsilon", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sigma must lie in (0, 1)\n"


def test_tile_constructive_stage_failure_exits_3(tmp_path, capsys):
    # at n = 60 no absorber size closes the pipeline's accounting
    path = tmp_path / "c360.json"
    path.write_text(graph_to_json(complete_blowup(3, 60)))
    assert main(["tile", str(path), "--constructive", "--seed", "1",
                 "--epsilon", "0.25"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("stage failure: sizing: no absorber size closes the "
                            "accounting for n = 60, k = 3, m = 5\n")


def test_cover(hagg_file, capsys):
    assert main(["cover", hagg_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 5
    assert payload["optimal"] is True
    assert payload["witness"] and len(payload["witness"]) == 5
    G, _ = haggkvist_example(3, 1)
    assert is_cover(G, [VertexRef(*v) for v in payload["witness"]])
    with pytest.raises(SystemExit):  # the trusted size hint is gone
        main(["cover", hagg_file, "--upper-hint", "5"])
    capsys.readouterr()


def test_linking(tmp_path, capsys):
    path = tmp_path / "c34.json"
    path.write_text(graph_to_json(complete_blowup(3, 4)))
    assert main(["linking", str(path), "--t", "2", "--eta", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["linked"] is True
    assert payload["min_count"] == 16
    assert payload["threshold"] == "16"
    assert main(["linking", str(path), "--t", "2", "--eta", "17/16"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["linked"] is False
    # an oversized cycle-union request is refused, not attempted
    assert main(["linking", str(path), "--t", "5", "--eta", "1",
                 "--max-work", "10"]) == 3
    assert "combinations" in capsys.readouterr().err


def test_linking_path_product_is_never_refused(tmp_path, capsys):
    # t = k-1 counts by a path product and enumerates nothing, so no
    # work estimate applies, even one far above --max-work
    path = tmp_path / "c362.json"
    path.write_text(graph_to_json(complete_blowup(3, 62)))
    assert main(["linking", str(path), "--t", "2", "--eta", "1/100"]) == 0
    assert json.loads(capsys.readouterr().out)["linked"] is True


def test_linking_bad_t(tmp_path, capsys):
    path = tmp_path / "c34.json"
    path.write_text(graph_to_json(complete_blowup(3, 4)))
    for t in ("3", "-1"):
        assert main(["linking", str(path), "--t", t, "--eta", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: t = ")


@pytest.mark.parametrize("argv, err", [
    (["--t", "2", "--eta", "0"], "error: eta = 0 must be positive\n"),
    (["--t", "3", "--eta", "1"],
     "error: t = 3 must be at least k-1 = 2 with t+1 divisible by k = 3\n"),
])
def test_linking_precondition_message(argv, err, tmp_path, capsys):
    # a PreconditionError from is_linked reaches main's own handler
    path = tmp_path / "c34.json"
    path.write_text(graph_to_json(complete_blowup(3, 4)))
    assert main(["linking", str(path), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


def test_linking_bad_eta(tmp_path, capsys):
    path = tmp_path / "c34.json"
    path.write_text(graph_to_json(complete_blowup(3, 4)))
    for eta in ("-1", "0", "abc", "1/0"):
        assert main(["linking", str(path), "--t", "2", "--eta", eta]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


def test_verify_malformed_margin_exits_2(capsys):
    for margin in ("abc", "1/0"):
        assert main(["verify", "--system", "B1", "--margin", margin]) == 2
        assert capsys.readouterr().err.startswith("error: --margin")


def test_verify_feasible_relaxation_exits_1(capsys):
    assert main(["verify", "--system", "B1w"]) == 1
    out = capsys.readouterr().out
    assert "B1w: FEASIBLE" in out
    assert "x = 21/32" in out


def test_verify_certifies_with_grid_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["verify", "--system", "B1", "--grid", "2",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "B1: infeasible" in text
    report = json.loads(out.read_text())
    assert report[0]["system"] == "B1"
    assert report[0]["certified"] is True
    assert report[0]["grid_min_violation"] == "1/1000000000000"


def test_verify_rejects_grid_below_1(capsys):
    for grid in ("0", "-3"):
        assert main(["verify", "--system", "B1", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # refused before any certification
        assert captured.err.startswith("error: --grid")


def test_verify_refuses_a_grid_over_the_cap_before_certifying(monkeypatch, capsys):
    # B5 has 5 axes of grid + 1 coordinates each
    need = 5 * 1001 * cli._GRID_COORD_BYTES
    monkeypatch.setattr(cli, "_matrix_bytes_cap", lambda: need - 1)
    assert main(["verify", "--system", "B1", "B5", "--grid", "1000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing was certified
    assert captured.err.startswith(f"error: --grid 1000 needs about {need} bytes")
    # at the cap it goes on; each system then stands in as feasible
    calls = []
    monkeypatch.setattr(cli, "certify_infeasible", lambda sid, **kw:
                        calls.append(sid) or FeasiblePoint(sid, {}, {}))
    monkeypatch.setattr(cli, "_matrix_bytes_cap", lambda: need)
    assert main(["verify", "--system", "B1", "B5", "--grid", "1000"]) == 1
    assert calls == ["B1", "B5"]
    capsys.readouterr()


def test_verify_checks_the_certificate_before_reporting(monkeypatch, tmp_path, capsys):
    out = tmp_path / "report.json"
    monkeypatch.setattr(certcheck, "check", lambda data: False)
    assert main(["verify", "--system", "B1", "--grid", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # neither "infeasible" nor a grid line
    assert captured.err == "error: B1: the certificate fails its independent check\n"
    assert json.loads(out.read_text()) == [
        {"system": "B1", "certified": False, "reason": "check-failed"}]


@pytest.mark.parametrize("argv,message", [
    (["--system", "B9"], "error: unknown system 'B9'"),
    (["--system", "B1", "B9"], "error: unknown system 'B9'"),
    (["--system", "all", "B1"], "error: unknown system 'all'"),
    (["--system", "B1", "--max-depth", "-1"], "error: --max-depth"),
])
def test_verify_rejects_bad_argv_before_certifying(argv, message, capsys):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing was certified
    assert captured.err.startswith(message)


def test_verify_depth_exhaustion_exits_3(capsys):
    assert main(["verify", "--system", "B3", "--max-depth", "1"]) == 3
    assert "depth exhausted" in capsys.readouterr().err


def test_experiment_requires_seed(capsys):
    assert main(["experiment", "--k", "3", "--n", "6",
                 "--deltas-min", "4,4,4", "--deltas-max", "4,4,4"]) == 2
    capsys.readouterr()


def test_experiment_refuses_oversized_sweep(capsys):
    assert main(["experiment", "--k", "3", "--n", "6", "--seed", "1",
                 "--deltas-min", "1,1,1", "--deltas-max", "6,6,6",
                 "--trials", "100", "--max-cells", "50"]) == 3
    assert "refusing" in capsys.readouterr().err


def test_experiment_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["experiment", "--k", "3", "--n", "6", "--seed", "3",
                 "--deltas-min", "4,4,4", "--deltas-max", "5,4,4",
                 "--trials", "2", "--tiler", "exact", "--out", str(out)]) == 0
    capsys.readouterr()
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["k", "n", "delta_1", "delta_2", "delta_3",
                       "trials", "factor_rate", "mean_size", "mean_millis"]
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == "3" and row[1] == "6"
        assert 0.0 <= float(row[6]) <= 1.0
        assert 0.0 <= float(row[7]) <= 6.0


def test_experiment_rejects_inverted_ranges(capsys):
    assert main(["experiment", "--k", "3", "--n", "6", "--seed", "1",
                 "--deltas-min", "5,4,4", "--deltas-max", "4,4,4"]) == 2
    assert "dominate" in capsys.readouterr().err


def test_dot_with_blocks(tmp_path, capsys):
    g = tmp_path / "h.json"
    b = tmp_path / "blocks.json"
    main(["generate", "--family", "haggkvist", "--k", "3", "--m", "1",
          "--out", str(g), "--blocks-out", str(b)])
    capsys.readouterr()
    assert main(["dot", str(g), "--blocks", str(b)]) == 0
    text = capsys.readouterr().out
    assert text.startswith("graph ckblowup {")
    assert 'label="U_1:0"' in text


@pytest.mark.parametrize("blocks,message", [
    (None, "cannot read"),
    ("[1, 2", "is not a blocks JSON file"),
    ("\xff", "is not a blocks JSON file"),
    ('{"U_1": [0]}', "is not a blocks JSON file"),
    ("[]", "is not a blocks JSON file"),
    ('{"blocks": [1, 2]}', "is not a blocks JSON file"),
    ('{"blocks": {"U": [0]}}', "block name 'U'"),
    ('{"blocks": {"U_9": [0]}}', "block name 'U_9'"),
    ('{"blocks": {"U_1": [99]}}', "block 'U_1' must list indices"),
])
def test_dot_rejects_bad_blocks_file(hagg_file, tmp_path, blocks, message, capsys):
    path = tmp_path / "blocks.json"
    if blocks is not None:
        path.write_text(blocks, encoding="latin-1")
    assert main(["dot", hagg_file, "--blocks", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_parser_covers_all_subcommands():
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, type(parser._subparsers._group_actions[0])))
    assert set(subs.choices) == {"generate", "check", "tile", "cover",
                                 "linking", "verify", "experiment", "dot"}


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


EXPERIMENT = ["experiment", "--k", "3", "--n", "4", "--deltas-min", "2,2,2",
              "--deltas-max", "2,2,2", "--seed", "1"]


@pytest.mark.parametrize("argv,code", [
    (["generate", "--family", "cover", "--p", "0", "--q", "0"], 2),
    (["tile", "X", "--constructive", "--seed", "1", "--epsilon", "nan"], 2),
    (["tile", "X", "--constructive", "--seed", "1", "--epsilon", "inf"], 2),
    ([*EXPERIMENT, "--step", "0"], 2),
    ([*EXPERIMENT, "--trials", "0"], 2),
    (["tile", "X", "--exact", "--budget-ms", "-5"], 2),
    (["cover", "X", "--budget-ms", "-1"], 2),
    (["tile", "X", "--swap3", "--cap", "-1"], 2),
    (["linking", "X", "--t", "2", "--eta", "1/10", "--max-work", "-1"], 2),
    # the smallest accepted values still run
    (["tile", "X", "--swap3", "--cap", "0"], 0),
    (["linking", "X", "--t", "2", "--eta", "1/10", "--max-work", "0"], 0),
    ([*EXPERIMENT, "--step", "1", "--trials", "1"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_bad_numbers_exit_2(argv, code, tmp_path, capsys):
    graph = tmp_path / "x.json"
    graph.write_text(graph_to_json(complete_blowup(3, 4)))
    argv = [str(graph) if a == "X" else a for a in argv]
    assert exit_code(argv + ["--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert ("error:" in err) == (code == 2)
    assert "Traceback" not in err


@pytest.mark.parametrize("family,argv,part_of", [
    # U_i, W_i and Z_i lie in part i; A_i, B_i and C_i in parts 1, 2, 3
    ("haggkvist", ["--k", "3", "--m", "2"], lambda name: int(name.rsplit("_", 1)[1])),
    ("cover", ["--p", "7", "--q", "9"], lambda name: "ABC".index(name[0]) + 1),
])
def test_blocks_sidecar_labels_the_right_parts(family, argv, part_of, tmp_path, capsys):
    g, b = tmp_path / "g.json", tmp_path / "b.json"
    assert main(["generate", "--family", family, *argv, "--out", str(g),
                 "--blocks-out", str(b)]) == 0
    capsys.readouterr()
    assert main(["dot", str(g), "--blocks", str(b)]) == 0
    text = capsys.readouterr().out
    blocks = json.loads(b.read_text())["blocks"]
    labelled = re.findall(r'p(\d+)_(\d+) \[label="([^"]+):(\d+)"\]', text)
    assert len(labelled) == sum(len(ids) for ids in blocks.values())
    for part, idx, name, again in labelled:
        assert idx == again and int(idx) in blocks[name]
        assert int(part) == part_of(name)
