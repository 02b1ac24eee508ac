"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.datasets import make_sparse_regression, save_libsvm


class TestParser:
    def test_console_script_is_repro(self):
        # CI, README and the parser's prog all call the command `repro`
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            meta = tomllib.load(fh)
        assert meta["project"]["scripts"] == {"repro": "repro.cli:main"}

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_lasso_defaults(self):
        args = build_parser().parse_args(["lasso", "--dataset", "covtype"])
        assert args.solver == "sa-accbcd" and args.s == 16

    def test_dataset_and_file_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["lasso", "--dataset", "covtype", "--file", "x.svm"]
            )

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lasso", "--dataset", "mnist"])


class TestLassoPathCommand:
    def test_path_defaults(self):
        args = build_parser().parse_args(["lasso-path", "--dataset", "news20"])
        assert args.n_lambdas == 16 and not args.cold

    def test_path_on_file(self, tmp_path, capsys):
        A, b, _ = make_sparse_regression(60, 25, density=0.4, seed=1)
        path = tmp_path / "data.svm"
        save_libsvm(path, A, b)
        rc = main(["lasso-path", "--file", str(path), "--n-lambdas", "4",
                   "--mu", "2", "--s", "4", "--max-iter", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "regularization path" in out and "total iterations" in out
        assert "warm-started" in out

    def test_path_cold(self, tmp_path, capsys):
        A, b, _ = make_sparse_regression(50, 20, density=0.4, seed=2)
        path = tmp_path / "data.svm"
        save_libsvm(path, A, b)
        rc = main(["lasso-path", "--file", str(path), "--n-lambdas", "3",
                   "--mu", "2", "--s", "4", "--max-iter", "40", "--cold"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cold (shared caches)" in out

    def test_path_virtual_p(self, tmp_path, capsys):
        A, b, _ = make_sparse_regression(50, 20, density=0.4, seed=3)
        path = tmp_path / "data.svm"
        save_libsvm(path, A, b)
        rc = main(["lasso-path", "--file", str(path), "--n-lambdas", "3",
                   "--mu", "2", "--s", "4", "--max-iter", "40", "--p", "64"])
        assert rc == 0
        assert "total modelled time at P=64" in capsys.readouterr().out


class TestCommands:
    def test_lasso_on_registry(self, capsys):
        rc = main(["lasso", "--dataset", "covtype", "--cells", "5000",
                   "--max-iter", "30", "--s", "4", "--record-every", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "final objective" in out and "non-zeros" in out

    def test_lasso_on_libsvm_file(self, tmp_path, capsys):
        A, b, _ = make_sparse_regression(30, 15, density=0.4, seed=0)
        path = tmp_path / "data.svm"
        save_libsvm(path, A, b)
        rc = main(["lasso", "--file", str(path), "--max-iter", "20",
                   "--mu", "2", "--s", "4", "--record-every", "5"])
        assert rc == 0
        assert "final objective" in capsys.readouterr().out

    def test_lasso_save_result(self, tmp_path, capsys):
        out_path = tmp_path / "res.json"
        rc = main(["lasso", "--dataset", "leu", "--cells", "4000",
                   "--max-iter", "20", "--s", "4", "--save", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert data["solver"].startswith("sa-accbcd")

    def test_svm(self, capsys):
        rc = main(["svm", "--dataset", "gisette", "--cells", "5000",
                   "--max-iter", "100", "--s", "16", "--record-every", "50"])
        assert rc == 0
        assert "duality gap" in capsys.readouterr().out

    def test_svm_loss_override(self, capsys):
        rc = main(["svm", "--dataset", "w1a", "--cells", "4000",
                   "--max-iter", "50", "--loss", "l2", "--record-every", "25"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sa-svm-l2" in out

    def test_scaling(self, capsys):
        rc = main(["scaling", "--dataset", "covtype", "--cells", "5000",
                   "--ps", "64,256", "--max-iter", "16", "--s", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "256" in out

    def test_plan(self, capsys):
        rc = main(["plan", "--dataset", "url", "--p", "12288"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recommended s" in out

    @pytest.mark.parametrize("p,s_star,ring", [
        ("3072", 16, "async ring (tau=1)"), ("2", 8, "async ring (tau=1)"),
        ("1", 8, "blocking"),
    ])
    def test_plan_names_the_sweep_ring(self, p, s_star, ring, capsys):
        assert main(["plan", "--dataset", "covtype", "--p", p]) == 0
        assert (f"schedule of a fixed-budget lasso-path sweep at s = {s_star}:"
                f" {ring}" in capsys.readouterr().out)

    def test_error_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.svm"
        bad.write_text("not a libsvm line\n")
        rc = main(["lasso", "--file", str(bad), "--max-iter", "5"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSolverVocabulary:
    """Every ``--solver`` takes its names from the solver registry
    (``repro._api``), and an unknown name exits 2, listing the known
    names, before any dataset is generated or read."""

    #: subcommand -> (argv running a registry name, what its output shows)
    RUNS = {
        "lasso": (["lasso", "--dataset", "covtype", "--cells", "3000",
                   "--solver", "cd", "--max-iter", "16", "--record-every", "8"],
                  "final objective"),
        "lasso-path": (["lasso-path", "--dataset", "covtype", "--cells", "3000",
                        "--solver", "sa-cd", "--n-lambdas", "3", "--s", "4",
                        "--max-iter", "16"], "sa-cd regularization path"),
        "svm": (["svm", "--dataset", "w1a", "--cells", "3000", "--solver",
                 "sa-svm", "--loss", "l2", "--s", "4", "--max-iter", "32",
                 "--record-every", "16"], "sa-svm-l2"),
        "stream": (["stream", "--dataset", "w1a", "--cells", "3000",
                    "--solver", "svm", "--schedule", "8", "--max-iter", "32"],
                   "streaming svm (svm)"),
        "serve": (["serve", "--dataset", "covtype", "--cells", "3000",
                   "--solver", "bcd", "--mu", "2", "--requests", "6",
                   "--max-iter", "16"], "serving 3 lasso tenants"),
        "scaling": (["scaling", "--dataset", "covtype", "--cells", "3000",
                     "--solver", "bcd", "--ps", "64", "--s", "4",
                     "--max-iter", "16"], "sa-bcd s=4"),
    }

    #: case -> (argv naming a solver the command does not take, the known
    #: names its error lists)
    UNKNOWN = {
        "lasso": (["lasso", "--dataset", "covtype", "--solver", "sa-svm"],
                  ("bcd", "sa-bcd", "accbcd", "sa-accbcd", "cd", "sa-cd",
                   "acccd", "sa-acccd")),
        "lasso-path": (["lasso-path", "--dataset", "covtype", "--solver",
                        "bogus"], ("cd", "sa-accbcd")),
        "svm": (["svm", "--dataset", "w1a", "--solver", "sa-bcd"],
                ("svm", "sa-svm", "svm-l1", "sa-svm-l2")),
        "stream-svm-suffix": (["stream", "--dataset", "w1a", "--solver",
                               "sa-svm-l2"], ("svm", "sa-svm")),
        "stream-lasso": (["stream", "--dataset", "covtype", "--task", "auto",
                          "--solver", "sa-svm"], ("bcd", "sa-acccd")),
        "stream-task": (["stream", "--dataset", "covtype", "--task", "svm",
                         "--solver", "sa-accbcd"], ("svm", "sa-svm")),
        "serve": (["serve", "--dataset", "covtype", "--solver", "bogus"],
                  ("bcd", "sa-accbcd")),
        "serve-svm": (["serve", "--dataset", "news20.binary", "--solver",
                       "sa-bcd"], ("svm", "sa-svm")),
        "scaling": (["scaling", "--dataset", "covtype", "--solver", "sa-bcd"],
                    ("bcd", "accbcd", "cd", "acccd")),
    }

    @staticmethod
    def _exit_code(argv) -> int:
        try:
            return main(argv)
        except SystemExit as exc:  # argparse's choices
            return exc.code

    @pytest.mark.parametrize("command", sorted(RUNS))
    def test_registry_name_runs(self, command, capsys):
        argv, shows = self.RUNS[command]
        assert main(argv) == 0
        assert shows in capsys.readouterr().out

    @pytest.mark.parametrize("case", sorted(UNKNOWN))
    def test_unknown_name_exits_before_any_data(self, case, capsys,
                                                monkeypatch):
        import repro.cli

        def no_data(*args, **kwargs):
            raise AssertionError("dataset built before the solver was checked")

        monkeypatch.setattr(repro.cli, "load_scaled", no_data)
        argv, known = self.UNKNOWN[case]
        assert self._exit_code(argv) == 2
        err = capsys.readouterr().err
        assert all(repr(name) in err for name in known), err

    def test_sweeps_reject_an_unknown_solver_before_any_reduction(self):
        from repro import StreamingSweep, lasso_path, svm_path
        from repro.datasets import make_classification
        from repro.errors import SolverError
        from repro.mpi.virtual_backend import VirtualComm

        A, b, _ = make_sparse_regression(30, 10, density=0.5, seed=1)
        X, y = make_classification(30, 10, density=0.5, seed=2)
        for build in (
            lambda comm: StreamingSweep(A, b, solver="bogus", comm=comm),
            lambda comm: StreamingSweep(X, y, task="svm", solver="sa-bcd",
                                        comm=comm),
            lambda comm: lasso_path(A, b, solver="sa-svm", comm=comm),
            lambda comm: svm_path(X, y, solver="bogus", comm=comm),
        ):
            comm = VirtualComm(4)
            with pytest.raises(SolverError, match="unknown (lasso|svm) solver"):
                build(comm)
            assert comm.ledger.snapshot() == comm.ledger.snapshot().zero()
