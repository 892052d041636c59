import csv
import json
import shutil
import subprocess

import pytest

from motifkit.adaptive import covering_threshold
from motifkit.cli import main
from motifkit.estimates import save_truth_csv
from motifkit.graphlets import census, signature_hex
from motifkit.tables import load_tables


def _write_triangle(path):
    path.write_text("0 1\n1 2\n2 0\n")
    return str(path)


def _write_c4(path):
    path.write_text("0 1\n1 2\n2 3\n3 0\n")
    return str(path)


def _events(err_text):
    out = []
    for line in err_text.splitlines():
        try:
            out.append(json.loads(line))
        except ValueError:
            pass
    return out


def _build_triangle(tmp_path, *extra):
    graph = _write_triangle(tmp_path / "tri.txt")
    tables = tmp_path / "tab"
    # seed 11 colors the triangle with three distinct colors
    rc = main(
        ["build", "--graph", graph, "-k", "3", "--seed", "11",
         "--tables", str(tables), *extra]
    )
    assert rc == 0
    return graph, str(tables)


def test_build_creates_tables(tmp_path, capsys):
    graph, tables = _build_triangle(tmp_path)
    events = _events(capsys.readouterr().err)
    done = [ev for ev in events if ev.get("event") == "done"]
    assert len(done) == 1 and done[0]["treelet_total"] == "3"
    assert (tmp_path / "tab" / "meta.json").is_file()
    assert len(list((tmp_path / "tab").glob("round_*.mct"))) == 3
    tab = load_tables(tables)
    assert tab.treelet_total == 3


def test_build_rejects_bad_k(tmp_path, capsys):
    graph = _write_triangle(tmp_path / "tri.txt")
    tab = str(tmp_path / "t")
    assert main(["build", "--graph", graph, "-k", "17", "--tables", tab]) == 2
    assert main(["build", "--graph", graph, "-k", "1", "--tables", tab]) == 2
    assert "error:" in capsys.readouterr().err


def test_build_rejects_bad_lambda(tmp_path):
    graph = _write_triangle(tmp_path / "tri.txt")
    tab = str(tmp_path / "t")
    assert main(
        ["build", "--graph", graph, "-k", "3", "--lambda", "0.5", "--tables", tab]
    ) == 2


def test_build_missing_graph(tmp_path):
    tab = str(tmp_path / "t")
    assert main(
        ["build", "--graph", str(tmp_path / "absent.txt"), "-k", "3", "--tables", tab]
    ) == 3


def test_build_garbage_graph(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("zz qq\n")
    tab = str(tmp_path / "t")
    assert main(["build", "--graph", str(bad), "-k", "3", "--tables", tab]) == 3


def test_census_stdout(capsys):
    assert main(["census", "-k", "8"]) == 0
    out = capsys.readouterr().out
    assert "1 1 2 4 9 20 48 115" in out
    assert "rooted colored treelets: 1991" in out
    assert "graphlet classes: 11117" in out


def test_census_rejects_large_k(capsys):
    assert main(["census", "-k", "9"]) == 2
    assert "2..8" in capsys.readouterr().err


def test_uniform_sample_report(tmp_path):
    graph, tables = _build_triangle(tmp_path)
    out = tmp_path / "report.csv"
    rc = main(
        ["sample", "--graph", graph, "--tables", tables, "--mode", "uniform",
         "--samples", "200", "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    rows = {r["signature_hex"]: r for r in csv.DictReader(out.open())}
    path_sig, tri_sig = sorted(census(3))
    assert set(rows) == {signature_hex(path_sig), signature_hex(tri_sig)}
    tri = rows[signature_hex(tri_sig)]
    # 1 colorful copy, observed every draw: 1 / p = 4.5
    assert tri["count_estimate"] == "4.5"
    assert tri["covered"] == "true"
    assert tri["mode"] == "uniform"
    assert rows[signature_hex(path_sig)]["count_estimate"] == "0"


def test_sample_needs_budget(tmp_path):
    graph, tables = _build_triangle(tmp_path)
    rc = main(
        ["sample", "--graph", graph, "--tables", tables,
         "--out", str(tmp_path / "r.csv")]
    )
    assert rc == 2


def test_sample_time_budget(tmp_path):
    graph, tables = _build_triangle(tmp_path)
    out = tmp_path / "r.csv"
    rc = main(
        ["sample", "--graph", graph, "--tables", tables, "--time", "0.2",
         "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    assert sum(1 for _ in csv.DictReader(out.open())) == 2


def test_sample_mismatched_graph(tmp_path):
    _, tables = _build_triangle(tmp_path)
    other = _write_c4(tmp_path / "c4.txt")
    rc = main(
        ["sample", "--graph", other, "--tables", tables,
         "--samples", "10", "--out", str(tmp_path / "r.csv")]
    )
    assert rc == 5


def test_ags_threshold_and_report(tmp_path, capsys):
    graph, tables = _build_triangle(tmp_path)
    out = tmp_path / "ags.csv"
    rc = main(
        ["sample", "--graph", graph, "--tables", tables, "--mode", "ags",
         "--eps", "0.5", "--delta", "0.1", "--samples", "500",
         "--seed", "9", "--out", str(out)]
    )
    assert rc == 0
    events = _events(capsys.readouterr().err)
    marks = [ev for ev in events if ev.get("event") == "threshold"]
    assert marks and marks[0]["cbar"] == covering_threshold(0.5, 0.1, 2)
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 2 and all(r["mode"] == "ags" for r in rows)


def test_ags_needs_threshold_args(tmp_path):
    graph, tables = _build_triangle(tmp_path)
    rc = main(
        ["sample", "--graph", graph, "--tables", tables, "--mode", "ags",
         "--samples", "10", "--out", str(tmp_path / "r.csv")]
    )
    assert rc == 2


def test_truth_error_csv(tmp_path):
    graph, tables = _build_triangle(tmp_path)
    path_sig, tri_sig = sorted(census(3))
    truth = tmp_path / "truth.csv"
    save_truth_csv({tri_sig: 1, path_sig: 0}, truth)
    out = tmp_path / "report.csv"
    rc = main(
        ["sample", "--graph", graph, "--tables", tables, "--samples", "50",
         "--seed", "5", "--out", str(out), "--truth", str(truth)]
    )
    assert rc == 0
    err_file = tmp_path / "report.err.csv"
    rows = {r["signature_hex"]: r for r in csv.DictReader(err_file.open())}
    assert rows[signature_hex(tri_sig)]["err"] == "3.5"
    assert rows[signature_hex(path_sig)]["err"] == "0"


def test_skip_round_sample_exact(tmp_path):
    graph, tables = _build_triangle(tmp_path, "--skip-round")
    out = tmp_path / "r.csv"
    rc = main(
        ["sample", "--graph", graph, "--tables", tables, "--samples", "100",
         "--seed", "2", "--out", str(out)]
    )
    assert rc == 0
    rows = {r["signature_hex"]: r for r in csv.DictReader(out.open())}
    _, tri_sig = sorted(census(3))
    # star-only pool: the colorful probability cancels, the count is exact
    assert rows[signature_hex(tri_sig)]["count_estimate"] == "1"


def test_console_script():
    exe = shutil.which("motifkit")
    assert exe, "editable install exposes the motifkit entry point"
    proc = subprocess.run(
        [exe, "census", "-k", "3"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "graphlet classes: 2" in proc.stdout


def test_uniform_sample_deterministic(tmp_path):
    # a triangle with a pendant path; seed 11 leaves colorful copies of
    # both k=3 classes, so the report depends on every draw
    graph = tmp_path / "g.txt"
    graph.write_text("0 1\n1 2\n2 0\n2 3\n3 4\n")
    tables = str(tmp_path / "tab")
    assert main(
        ["build", "--graph", str(graph), "-k", "3", "--seed", "11", "--tables", tables]
    ) == 0
    outs = []
    for run in range(2):
        out = tmp_path / f"r{run}.csv"
        rc = main(
            ["sample", "--graph", str(graph), "--tables", tables, "--mode", "uniform",
             "--samples", "96", "--seed", "7", "--out", str(out)]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    rows = list(csv.DictReader(outs[0].decode().splitlines()))
    assert len(rows) == 2 and all(int(r["samples"]) > 0 for r in rows)


def _bad_json(tab):
    (tab / "meta.json").write_text("{not json")


def _no_rounds(tab):
    meta = json.loads((tab / "meta.json").read_text())
    del meta["rounds"]
    (tab / "meta.json").write_text(json.dumps(meta))


def _huge_n(tab):
    path = tab / "round_03.mct"
    blob = bytearray(path.read_bytes())
    blob[8:16] = (1 << 40).to_bytes(8, "little")  # the header's node count
    path.write_bytes(bytes(blob))


def _huge_n_everywhere(tab):
    # manifest and headers agree, so only the file size can catch it
    meta = json.loads((tab / "meta.json").read_text())
    meta["n"] = 1 << 40
    (tab / "meta.json").write_text(json.dumps(meta))
    for path in tab.glob("round_*.mct"):
        blob = bytearray(path.read_bytes())
        blob[8:16] = (1 << 40).to_bytes(8, "little")
        path.write_bytes(bytes(blob))


def _cut_round(tab):
    path = tab / "round_03.mct"
    path.write_bytes(path.read_bytes()[:30])


@pytest.mark.parametrize(
    "corrupt", [_bad_json, _no_rounds, _huge_n, _huge_n_everywhere, _cut_round]
)
def test_corrupted_tables_exit_5(tmp_path, capsys, corrupt):
    graph, tables = _build_triangle(tmp_path)
    corrupt(tmp_path / "tab")
    capsys.readouterr()
    rc = main(
        ["sample", "--graph", graph, "--tables", tables, "--samples", "8",
         "--out", str(tmp_path / "r.csv")]
    )
    err = capsys.readouterr().err.splitlines()
    assert rc == 5
    assert len(err) == 1 and err[0].startswith("error:")
