import os

import pytest

from spcd import cli, pipeline


def _count_solves(monkeypatch):
    calls = []
    solve = pipeline.solve_problem

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pipeline, "solve_problem", counting)
    return calls


def test_solve_smoke(tmp_path):
    rc = cli.run(["solve", "--problem", "1", "--beta", "0.5", "--eps", "1e-1",
                  "--N", "16", "--resolution", "31", "--out", str(tmp_path)])
    assert rc == 0
    path = tmp_path / "solution.txt"
    assert path.exists()
    lines = path.read_text().strip().split("\n")
    assert len(lines) > 50
    for line in lines[:5]:
        x, y, u = (float(v) for v in line.split())


def test_table_csv_shape(tmp_path):
    rc = cli.run(["table", "--problem", "1", "--eps-pows", "0:4:4",
                  "--N-pows", "3:4", "--jobs", "1", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "table.csv").read_text().strip().split("\n")
    # header + 2 eps * 2 N + 2 uniform rows
    assert lines[0] == "eps,N,D,p"
    assert len(lines) == 1 + 4 + 2
    assert (tmp_path / "table.txt").exists()


def test_table_with_every_cell_failed_exits_nonzero(tmp_path, caplog):
    # R = 5 is wider than the strip width bound, so every solve fails
    rc = cli.run(["table", "--problem", "1", "--R", "5", "--eps-pows", "0:4:4",
                  "--N-pows", "3:4", "--jobs", "1", "--out", str(tmp_path)])
    assert rc == 1
    assert "4 of 4 table cells failed" in caplog.text
    lines = (tmp_path / "table.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 4 + 2
    assert all(line.split(",")[2] == "" for line in lines[1:])
    assert (tmp_path / "table.txt").exists()


def test_geometry_report(capsys):
    rc = cli.run(["geometry", "--problem", "3", "--beta", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "6 characteristic points" in out
    assert out.count("external") == 4
    assert out.count("internal") == 2
    assert "outflow arcs (3)" in out


def test_unknown_problem_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        cli.run(["solve", "--problem", "9", "--eps", "1", "--N", "8"])
    assert exc.value.code == 2


def test_invalid_width_reports_error(tmp_path, capsys):
    rc = cli.run(["solve", "--problem", "1", "--eps", "1e-1", "--N", "8",
                  "--R", "0.5", "--out", str(tmp_path)])
    assert rc == 1
    assert "strip too wide" in capsys.readouterr().err


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "defaults.cfg"
    cfg.write_text("beta = 0.7\n# comment\nproblem = 1\n")
    rc = cli.run(["geometry", "--config", str(cfg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.7000000000" in out  # characteristic points at (0, +-1.7)

    # an explicit flag wins even when it coincides with the parser default
    rc = cli.run(["geometry", "--config", str(cfg), "--beta", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.5000000000" in out
    assert "1.7000000000" not in out

    rc = cli.run(["geometry", "--config", str(cfg), "--beta", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1.2000000000" in out


def test_validate_smoke(capsys):
    rc = cli.run(["validate", "--eps-list", "1", "--N-list", "16,32",
                  "--min-order", "-5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "minimum observed order" in out


def test_validate_threshold_failure(capsys):
    rc = cli.run(["validate", "--eps-list", "1", "--N-list", "16,32",
                  "--min-order", "99"])
    assert rc == 1


def test_negative_jobs_rejected_before_any_solve(monkeypatch, tmp_path, capsys):
    calls = _count_solves(monkeypatch)
    rc = cli.run(["table", "--problem", "1", "--eps-pows", "0:4:4", "--N-pows", "3:4",
                  "--jobs", "-3", "--out", str(tmp_path)])
    assert rc == 1
    assert "--jobs must be >= 0" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("resolution", [0, 1, 2])
def test_resolution_below_three_rejected_before_the_solve(monkeypatch, tmp_path, capsys,
                                                          resolution):
    # at 2 the lattice is the four box corners, all outside the domain
    calls = _count_solves(monkeypatch)
    rc = cli.run(["solve", "--problem", "1", "--eps", "1e-1", "--N", "8",
                  "--resolution", str(resolution), "--out", str(tmp_path)])
    assert rc == 1
    assert "--resolution must be >= 3" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "solution.txt").exists()


def test_resolution_three_solves_once_and_dumps_the_centre(monkeypatch, tmp_path):
    calls = _count_solves(monkeypatch)
    rc = cli.run(["solve", "--problem", "1", "--eps", "1e-1", "--N", "8",
                  "--resolution", "3", "--out", str(tmp_path)])
    assert rc == 0
    assert len(calls) == 1
    assert (tmp_path / "solution.txt").read_text().strip() != ""
