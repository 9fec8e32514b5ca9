import re

import numpy as np
import pytest

import instgen
from keyopt.cli import main
from keyopt.harness import (
    ExperimentConfig,
    cell_seed,
    default_time_limit,
    matches_bks,
    parse_config,
    read_bks,
    read_results,
    run_experiment,
)
from keyopt.problems import (
    brute_force_pmedian,
    make_decoder,
    parse_orlib_pmed,
    write_orlib_pmed,
)


@pytest.fixture(scope="module")
def pmed_files(tmp_path_factory):
    """Three tiny p-median instances on disk plus their oracle BKS file."""
    root = tmp_path_factory.mktemp("pmed")
    rng = np.random.default_rng(7)
    paths, bks_lines = [], []
    for k in range(3):
        edges = instgen.connected_graph_edges(rng, 7)
        path = root / f"tiny{k}.pmed"
        write_orlib_pmed(7, edges, 2, path)
        inst = parse_orlib_pmed(path, alpha=1)
        optimum, _ = brute_force_pmedian(inst)
        paths.append(str(path))
        bks_lines.append(f"tiny{k}.pmed {optimum!r}")
    bks_path = root / "bks.txt"
    bks_path.write_text("\n".join(bks_lines) + "\n")
    return paths, str(bks_path)


def test_cell_seed_is_stable_and_cell_local():
    s = cell_seed(1, "a.pmed", "sa", 0)
    assert s == cell_seed(1, "a.pmed", "sa", 0)
    assert s != cell_seed(1, "a.pmed", "sa", 1)
    assert s != cell_seed(1, "b.pmed", "sa", 0)
    assert s != cell_seed(2, "a.pmed", "sa", 0)
    assert 0 <= s < 2**64


def test_default_time_limit_rules():
    rng = np.random.default_rng(1)
    assert default_time_limit("pmedian", instgen.tiny_pmedian(rng, n=20, p=3)) == 2.0
    assert default_time_limit("partition", instgen.tiny_partition(rng, b=6, r=2)) == 6.0
    assert default_time_limit("hubtree", instgen.tiny_hubtree(rng, n=7, p=3)) == 7.0
    assert default_time_limit("tsp", instgen.tiny_tsp(rng, n=30)) == 3.0
    assert default_time_limit("setcover", instgen.tiny_setcover(rng, m=4, n=20)) == 2.0


def test_single_cell_experiment(pmed_files, tmp_path):
    paths, _ = pmed_files
    config = ExperimentConfig(
        problem="pmedian", instances=paths[:1], methods=["sa"], runs=1,
        max_evals=800, seed=5, output_dir=str(tmp_path / "out"), alpha=1,
        pool_capacity=5,
    )
    report = run_experiment(config)
    assert len(report.rows) == 1
    assert not report.failures
    rows = read_results(report.files["results"])
    assert rows[0].instance == "tiny0.pmed"
    assert rows[0].method == "sa"
    assert rows[0].evaluations <= 800


def test_experiment_rerun_is_byte_identical(pmed_files, tmp_path):
    paths, _ = pmed_files
    outputs = []
    for run_dir in ("a", "b"):
        config = ExperimentConfig(
            problem="pmedian", instances=paths[:2], methods=["sa", "ils"],
            runs=2, max_evals=600, seed=9,
            output_dir=str(tmp_path / run_dir), alpha=1, pool_capacity=5,
        )
        report = run_experiment(config)
        with open(report.files["results"], "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]


def test_experiment_bks_summary_counts(pmed_files, tmp_path):
    paths, bks_path = pmed_files
    config = ExperimentConfig(
        problem="pmedian", instances=paths, methods=["sa", "ils"], runs=5,
        max_evals=1500, seed=3, output_dir=str(tmp_path / "out"), alpha=1,
        pool_capacity=5, bks_path=bks_path,
    )
    report = run_experiment(config)
    assert len(report.rows) == 3 * 2 * 5
    bks = read_bks(bks_path)

    expected = {}
    for row in report.rows:
        key = (row.method, row.instance)
        expected[key] = min(expected.get(key, float("inf")), row.objective)
    want = {
        method: sum(
            1 for (m, inst), best in expected.items()
            if m == method and matches_bks(best, bks[inst])
        )
        for method in ("sa", "ils")
    }

    with open(report.files["summary"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "method,best_avg,rpd_best,rpd_avg,time_to_best_avg,n_bks"
    got = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        got[parts[0]] = int(parts[-1])
        rpd_best, rpd_avg = float(parts[2]), float(parts[3])
        assert rpd_avg >= rpd_best - 1e-12
    assert got == want


def test_experiment_qlearning_mode_runs(pmed_files, tmp_path):
    paths, _ = pmed_files
    config = ExperimentConfig(
        problem="pmedian", instances=paths[:1], methods=["sa"], runs=1,
        max_evals=2000, seed=13, output_dir=str(tmp_path / "out"),
        pool_capacity=5, params_mode="qlearning",
    )
    report = run_experiment(config)
    assert len(report.rows) == 1
    assert not report.failures


def test_experiment_portfolio_method(pmed_files, tmp_path):
    paths, _ = pmed_files
    config = ExperimentConfig(
        problem="pmedian", instances=paths[:1], methods=["portfolio"], runs=1,
        time_limit=0.5, seed=2, output_dir=str(tmp_path / "out"),
        pool_capacity=5,
    )
    report = run_experiment(config)
    assert len(report.rows) == 1
    assert report.rows[0].method == "portfolio"


def test_experiment_records_failures(tmp_path):
    bad = tmp_path / "broken.pmed"
    bad.write_text("not a header\n")
    config = ExperimentConfig(
        problem="pmedian", instances=[str(bad)], methods=["sa"], runs=1,
        max_evals=100, output_dir=str(tmp_path / "out"),
    )
    report = run_experiment(config)
    assert report.rows == []
    assert len(report.failures) == 1


def test_parse_config_round_trip(tmp_path):
    text = """
# experiment
problem = pmedian
instance = a.pmed
instance = b.pmed
methods = sa portfolio
runs = 3
max_evals = 1000
seed = 77
alpha = 2
output_dir = out
params = qlearning
sa.t0 = 500        # override
sa.sa_max = 25
"""
    path = tmp_path / "bench.cfg"
    path.write_text(text)
    config = parse_config(path)
    assert config.problem == "pmedian"
    assert config.instances == ["a.pmed", "b.pmed"]
    assert config.methods == ["sa", "portfolio"]
    assert config.runs == 3
    assert config.max_evals == 1000
    assert config.seed == 77
    assert config.alpha == 2
    assert config.params_mode == "qlearning"
    assert config.overrides == {"sa": {"t0": 500.0, "sa_max": 25.0}}


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text("problem = pmedian\ninstance = a.pmed\nmax_eval = 200\n")
    with pytest.raises(ValueError, match=r"bench.cfg line 3: unknown key 'max_eval'"):
        parse_config(path)


def test_parse_config_names_file_line_and_key_of_a_bad_value(tmp_path):
    path = tmp_path / "bench.cfg"
    for line, message in (("runs = five", "bad value 'five' for 'runs'"),
                          ("sa.t0 = hot", "bad value 'hot' for 'sa.t0'")):
        path.write_text(f"problem = pmedian\ninstance = a.pmed\n{line}\n")
        with pytest.raises(ValueError, match=f"bench.cfg line 3: {message}"):
            parse_config(path)


def test_unknown_method_fails_before_any_cell_runs(pmed_files, tmp_path, capsys):
    paths, _ = pmed_files
    out = tmp_path / "out"
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"problem = pmedian\ninstance = {paths[0]}\nmethods = sa ilss\n"
                   f"runs = 1\nmax_evals = 50\noutput_dir = {out}\n")
    with pytest.raises(ValueError, match=r"unknown method: ilss \(choose from portfolio, "):
        parse_config(cfg)
    assert main(["bench", "--config", str(cfg)]) == 2
    assert "keyopt: error: unknown method: ilss (choose from portfolio, " in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="ilss"):
        ExperimentConfig(problem="pmedian", instances=[], methods=["ilss"])


def test_cli_solve_writes_deterministic_csv(pmed_files, tmp_path, capsys):
    paths, _ = pmed_files
    outputs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        code = main([
            "solve", "--problem", "pmedian", "--instance", paths[0],
            "--method", "sa", "--max-evals", "700", "--seed", "11",
            "--pool-size", "5", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    captured = capsys.readouterr()
    assert "objective:" in captured.out
    assert re.search(r"^time_to_best: \d+\.\d+ evals$", captured.out, re.MULTILINE)
    assert outputs[0] == outputs[1]


def test_cli_oracle_emits_bks_line(pmed_files, capsys):
    paths, bks_path = pmed_files
    code = main(["oracle", "--problem", "pmedian", "--instance", paths[0]])
    assert code == 0
    line = capsys.readouterr().out.strip()
    name, value = line.split()
    assert name == "tiny0.pmed"
    assert float(value) == pytest.approx(read_bks(bks_path)["tiny0.pmed"])


def test_cli_rejects_an_unknown_problem_with_a_usage_error(capsys):
    for command in ("solve", "oracle"):
        with pytest.raises(SystemExit) as info:
            main([command, "--problem", "knapsack", "--instance", "x.txt"])
        assert info.value.code == 2
        assert "invalid choice: 'knapsack'" in capsys.readouterr().err
    for flag, value in (("--max-evals", "0"), ("--pool-size", "0"), ("--time", "0"),
                        ("--time", "-1.5"), ("--max-evals", "-3")):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--problem", "pmedian", "--instance", "x.txt", flag, value])
        assert info.value.code == 2
        assert f"argument {flag}: must be > 0, got '{value}'" in capsys.readouterr().err


def _one_line_error(code, capsys, fragment):
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("keyopt: error: ") and err.count("\n") == 1, err
    assert fragment in err


def test_cli_reports_an_unreadable_instance_in_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.pmed"
    bad.write_text("3 2 1\n1 2 1\n1 x 1\n")
    missing = tmp_path / "missing.pmed"
    for command in ("solve", "oracle"):
        code = main([command, "--problem", "pmedian", "--instance", str(bad)])
        _one_line_error(code, capsys, "bad.pmed: bad edge row")
        code = main([command, "--problem", "pmedian", "--instance", str(missing)])
        _one_line_error(code, capsys, "No such file or directory")


def test_cli_reports_an_unreadable_config_bks_or_results_file_in_one_line(
        pmed_files, tmp_path, capsys):
    paths, bks_path = pmed_files
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"problem = pmedian\ninstance = {paths[0]}\nruns = five\n")
    _one_line_error(main(["bench", "--config", str(cfg)]), capsys,
                    "bench.cfg line 3: bad value 'five' for 'runs'")
    _one_line_error(main(["bench", "--config", str(tmp_path / "none.cfg")]), capsys,
                    "none.cfg")
    out = tmp_path / "out"
    for line, fragment in (("max_evals = 0", "max_evals must be >= 1, got 0"),
                           ("pool_size = 0", "pool_size must be >= 1, got 0")):
        cfg.write_text(f"problem = pmedian\ninstance = {paths[0]}\nmethods = sa\n"
                       f"runs = 1\noutput_dir = {out}\n{line}\n")
        _one_line_error(main(["bench", "--config", str(cfg)]), capsys, fragment)
        assert not out.exists()
    results = tmp_path / "r.csv"
    results.write_text("instance,method,run,objective,time_to_best,evaluations\n"
                       "a.txt,sa,0,10.0,3.0\n")
    bad_bks = tmp_path / "bks.txt"
    bad_bks.write_text("a.txt ten\n")
    for command in ("profile", "stats"):
        out = str(tmp_path / "out.csv")
        code = main([command, "--results", str(results), "--bks", bks_path, "--out", out])
        _one_line_error(code, capsys, "r.csv line 2: expected 6 fields")
        code = main([command, "--results", str(tmp_path / "none.csv"), "--bks", bks_path,
                     "--out", out])
        _one_line_error(code, capsys, "none.csv")
    results.write_text("instance,method,run,objective,time_to_best,evaluations\n"
                       "a.txt,sa,0,10.0,3.0,50\n")
    code = main(["profile", "--results", str(results), "--bks", str(bad_bks),
                 "--out", str(tmp_path / "out.csv")])
    _one_line_error(code, capsys, "bks.txt line 1: bad value 'ten' for 'value'")


def test_cli_bench_reports_an_unreadable_bks_file_before_any_cell_runs(
        pmed_files, tmp_path, capsys, monkeypatch):
    paths, _ = pmed_files
    cells = []
    monkeypatch.setattr("keyopt.harness.run_cell", lambda *a, **k: cells.append(a))
    out = tmp_path / "out"
    cfg = tmp_path / "bench.cfg"
    positive = "bks.txt line 1: best-known value must be a finite number > 0, got "
    for text, fragment in (("a.txt ten", "bks.txt line 1: bad value 'ten' for 'value'"),
                           ("a.txt 0", positive + "0.0"),
                           ("a.txt -5", positive + "-5.0"),
                           ("a.txt nan", positive + "nan"),
                           (None, "No such file or directory")):
        bks = tmp_path / ("bks.txt" if text else "none.txt")
        if text:
            bks.write_text(text + "\n")
        cfg.write_text(f"problem = pmedian\ninstance = {paths[0]}\nmethods = sa\n"
                       f"runs = 1\nmax_evals = 50\noutput_dir = {out}\nbks = {bks}\n")
        _one_line_error(main(["bench", "--config", str(cfg)]), capsys, fragment)
        assert not cells and not out.exists()


def test_cli_keeps_the_traceback_of_an_error_past_the_input_files(
        pmed_files, tmp_path, monkeypatch):
    def failing_run(*args, **kwargs):
        raise ValueError("solver fault")

    monkeypatch.setattr("keyopt.cli.run_method", failing_run)
    with pytest.raises(ValueError, match="solver fault"):
        main(["solve", "--problem", "pmedian", "--instance", pmed_files[0][0],
              "--method", "sa", "--max-evals", "10"])
    # `bench` reads its best-known file inside the experiment runner too.
    monkeypatch.setattr("keyopt.harness.run_method", failing_run)
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(f"problem = pmedian\ninstance = {pmed_files[0][0]}\nmethods = sa\n"
                   f"runs = 1\nmax_evals = 10\noutput_dir = {tmp_path / 'out'}\n"
                   f"bks = {pmed_files[1]}\n")
    with pytest.raises(ValueError, match="solver fault"):
        main(["bench", "--config", str(cfg)])


def test_cli_bench_profile_stats_pipeline(pmed_files, tmp_path, capsys):
    paths, bks_path = pmed_files
    # Five instances are needed for the Wilcoxon matrix; reuse files twice
    # under distinct names.
    rng = np.random.default_rng(21)
    extra = []
    for k in range(3, 6):
        edges = instgen.connected_graph_edges(rng, 6)
        path = tmp_path / f"tiny{k}.pmed"
        write_orlib_pmed(6, edges, 2, path)
        inst = parse_orlib_pmed(str(path), alpha=1)
        optimum, _ = brute_force_pmedian(inst)
        extra.append((str(path), f"tiny{k}.pmed {optimum!r}"))
    all_paths = paths + [p for p, _ in extra]
    bks_all = tmp_path / "bks_all.txt"
    bks_all.write_text(
        open(bks_path).read() + "\n".join(line for _, line in extra) + "\n"
    )

    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "problem = pmedian\n"
        + "".join(f"instance = {p}\n" for p in all_paths)
        + "methods = sa ils\n"
        "runs = 2\n"
        "max_evals = 500\n"
        "seed = 4\n"
        f"output_dir = {tmp_path / 'bench_out'}\n"
        f"bks = {bks_all}\n"
        "pool_size = 5\n"
    )
    assert main(["bench", "--config", str(cfg)]) == 0
    out_dir = tmp_path / "bench_out"
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.csv").exists()
    assert (out_dir / "profile.csv").exists()
    assert (out_dir / "wilcoxon.csv").exists()

    assert main([
        "profile", "--results", str(out_dir / "results.csv"),
        "--bks", str(bks_all), "--tolerance", "1.0",
        "--out", str(tmp_path / "prof.csv"),
    ]) == 0
    with open(tmp_path / "prof.csv") as fh:
        header = fh.readline().strip()
    assert header == "method,log2_tau,rho"

    assert main([
        "stats", "--results", str(out_dir / "results.csv"),
        "--bks", str(bks_all), "--out", str(tmp_path / "wx.csv"),
    ]) == 0
    with open(tmp_path / "wx.csv") as fh:
        matrix = fh.read().splitlines()
    assert matrix[0] == "method,ils,sa"
    for ln in matrix[1:]:
        for cell in ln.split(",")[1:]:
            if cell:
                assert 0.0 < float(cell) <= 1.0
    capsys.readouterr()


def test_cli_bench_reports_failures(tmp_path):
    bad = tmp_path / "broken.pmed"
    bad.write_text("garbage\n")
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        f"problem = pmedian\ninstance = {bad}\nmethods = sa\nruns = 1\n"
        f"max_evals = 50\noutput_dir = {tmp_path / 'out'}\n"
    )
    assert main(["bench", "--config", str(cfg)]) == 1


def test_harness_looks_up_decoder_and_portfolio_at_call_time(pmed_files, tmp_path, monkeypatch):
    """Tools that instrument runs replace these module globals; a name bound
    at import time would bypass them."""
    import keyopt.harness as harness
    from keyopt.solvers import defaults_for

    paths, _ = pmed_files
    real_make, real_run = harness.make_decoder, harness.run_portfolio
    made, ran = [], []
    monkeypatch.setattr(harness, "make_decoder",
                        lambda *args: made.append(args) or real_make(*args))
    monkeypatch.setattr(harness, "run_portfolio",
                        lambda *args, **kw: ran.append(args[1]) or real_run(*args, **kw))
    config = ExperimentConfig(
        problem="pmedian", instances=paths[:1], methods=["sa"], runs=1,
        max_evals=200, seed=5, output_dir=str(tmp_path / "out"), pool_capacity=5,
    )
    run_experiment(config)
    assert len(made) == 1
    decoder = real_make("pmedian", parse_orlib_pmed(paths[0], alpha=1))
    result = harness.run_cell("pmedian", decoder, "portfolio", defaults_for("pmedian"),
                              3, None, 100, 5, False)
    assert ran[-1] == list(harness.SOLVER_NAMES)
    assert result.solver == "portfolio"


def test_single_solver_cell_raises_the_solvers_own_error(pmed_files, monkeypatch):
    from keyopt.harness import run_cell
    from keyopt.solvers import SOLVERS, defaults_for

    def broken(*args, **kwargs):
        raise ZeroDivisionError("solver bug")

    paths, _ = pmed_files
    decoder = make_decoder("pmedian", parse_orlib_pmed(paths[0], alpha=1))
    monkeypatch.setitem(SOLVERS, "sa", broken)
    with pytest.raises(ZeroDivisionError, match="solver bug"):
        run_cell("pmedian", decoder, "sa", defaults_for("pmedian"), 1, None, 50, 5, False)


def test_read_results_names_file_and_line_of_a_malformed_row(tmp_path):
    path = tmp_path / "results.csv"
    path.write_text("instance,method,run,objective,time_to_best,evaluations\n"
                    "a.txt,sa,0,10.0,3.0,50\n"
                    "a.txt,sa,1,12.0,4.0\n")
    with pytest.raises(ValueError, match=r"results.csv line 3: expected 6 fields"):
        read_results(path)
    path.write_text("instance,method,run,objective,time_to_best,evaluations\n"
                    "a.txt,sa,0,ten,3.0,50\n")
    with pytest.raises(ValueError, match=r"results.csv line 2: bad value 'ten' for 'objective'"):
        read_results(path)


def test_read_bks_names_file_and_line_of_a_malformed_line(pmed_files, tmp_path):
    bks_path = tmp_path / "bks.txt"
    bks_path.write_text("# best known\na.txt 10.0\nb.txt\n")
    with pytest.raises(ValueError, match=r"bks.txt line 3: expected 2 fields"):
        read_bks(bks_path)
    bks_path.write_text("a.txt ten\n")
    with pytest.raises(ValueError, match=r"bks.txt line 1: bad value 'ten' for 'value'"):
        read_bks(bks_path)
    # An experiment reads its best-known file before it runs any cell.
    out = tmp_path / "out"
    config = ExperimentConfig(
        problem="pmedian", instances=pmed_files[0][:1], methods=["sa"], runs=1,
        max_evals=50, output_dir=str(out), pool_capacity=5, bks_path=str(bks_path),
    )
    with pytest.raises(ValueError, match="bks.txt line 1"):
        run_experiment(config)
    assert not out.exists()
