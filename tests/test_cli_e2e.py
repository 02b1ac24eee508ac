"""End-to-end CLI smoke tests over the real SPMD backends.

The unit suite covers the CLI's parsing and virtual-backend paths; these
tests drive whole commands through ``--backend thread/process --ranks 2
--pipeline`` — the full stack from argv to forked ranks — asserting exit
codes, the saved JSON's schema, and parity with the Python API called
with the same knobs (both sides are deterministic, so results must
match exactly).
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import make_classification, make_sparse_regression, save_libsvm
from repro.solvers.outer import Schedule
from repro.solvers.serialization import load_result
from repro.streaming import replay_schedule

RANKS = 2


@pytest.fixture(scope="module")
def lasso_file(tmp_path_factory):
    A, b, _ = make_sparse_regression(220, 40, density=0.3, seed=11)
    path = tmp_path_factory.mktemp("e2e") / "lasso.svm"
    save_libsvm(path, A, b)
    return str(path), A, b


@pytest.fixture(scope="module")
def svm_file(tmp_path_factory):
    A, b = make_classification(180, 30, density=0.4, seed=12, margin=0.25)
    path = tmp_path_factory.mktemp("e2e") / "svm.svm"
    save_libsvm(path, A, b)
    return str(path), A, b


class TestLassoE2E:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backend_pipeline_save_and_parity(self, backend, lasso_file,
                                              tmp_path, capsys):
        from repro.experiments.runner import run_lasso

        path, A, b = lasso_file
        out = tmp_path / f"lasso-{backend}.json"
        rc = main(["lasso", "--file", path, "--solver", "sa-accbcd",
                   "--mu", "2", "--s", "8", "--max-iter", "64",
                   "--lam", "0.5", "--record-every", "16",
                   "--backend", backend, "--ranks", str(RANKS),
                   "--pipeline", "--save", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "final objective" in stdout
        saved = load_result(out)
        assert saved.solver.startswith("sa-accbcd")
        # parity: the Python API with identical knobs is deterministic
        from repro.experiments.runner import ScaledDataset
        from repro.utils.validation import nnz_of

        ds = ScaledDataset(name=path, A=A, b=b, x_true=None,
                           paper_nnz=float(nnz_of(A)),
                           actual_nnz=float(nnz_of(A)),
                           m_full=A.shape[0], n_full=A.shape[1],
                           task="lasso")
        api = run_lasso(ds, "sa-accbcd", mu=2, s=8, max_iter=64, lam=0.5,
                        record_every=16, backend=backend, ranks=RANKS,
                        schedule=Schedule(ring=True), P=1, machine=None,
                        seed=0)
        assert np.allclose(saved.x, api.x, rtol=0, atol=0)
        assert saved.iterations == api.iterations


class TestLassoPathE2E:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backend_pipeline(self, backend, lasso_file, capsys):
        path, A, b = lasso_file
        rc = main(["lasso-path", "--file", path, "--n-lambdas", "3",
                   "--mu", "2", "--s", "8", "--max-iter", "48",
                   "--backend", backend, "--ranks", str(RANKS),
                   "--pipeline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "regularization path" in out and "total iterations" in out

    def test_backend_parity_with_api(self, lasso_file, capsys):
        """The thread-backend sweep reports the same totals the Python
        API produces on identical thread ranks."""
        from repro.mpi.thread_backend import spmd_run
        from repro.path import lasso_path

        path, A, b = lasso_file
        rc = main(["lasso-path", "--file", path, "--n-lambdas", "3",
                   "--mu", "2", "--s", "8", "--max-iter", "48",
                   "--backend", "thread", "--ranks", str(RANKS)])
        assert rc == 0
        out = capsys.readouterr().out

        def work(comm, rank):
            p = lasso_path(A, b, n_lambdas=3, mu=2, s=8, max_iter=48,
                           tol=1e-6, record_every=10, comm=comm)
            return sum(p.iterations)

        expected = spmd_run(work, RANKS).values[0]
        assert f"total iterations: {expected}" in out


class TestSvmE2E:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backend_pipeline_save_and_parity(self, backend, svm_file,
                                              tmp_path, capsys):
        from repro.experiments.runner import ScaledDataset, run_svm
        from repro.utils.validation import nnz_of

        path, A, b = svm_file
        out = tmp_path / f"svm-{backend}.json"
        rc = main(["svm", "--file", path, "--solver", "sa-svm-l2",
                   "--s", "16", "--lam", "0.5", "--max-iter", "160",
                   "--record-every", "40",
                   "--backend", backend, "--ranks", str(RANKS),
                   "--pipeline", "--save", str(out)])
        assert rc == 0
        assert "final duality gap" in capsys.readouterr().out
        saved = load_result(out)
        assert saved.solver.startswith("sa-svm")
        ds = ScaledDataset(name=path, A=A, b=b, x_true=None,
                           paper_nnz=float(nnz_of(A)),
                           actual_nnz=float(nnz_of(A)),
                           m_full=A.shape[0], n_full=A.shape[1],
                           task="svm")
        api = run_svm(ds, "sa-svm-l2", s=16, lam=0.5, max_iter=160,
                      record_every=40, backend=backend, ranks=RANKS,
                      schedule=Schedule(ring=True), P=1, machine=None,
                      seed=0)
        assert np.allclose(saved.x, api.x, rtol=0, atol=0)
        assert saved.final_metric == pytest.approx(api.final_metric)


class TestStreamE2E:
    _SCHEMA_KEYS = {"format_version", "task", "solver", "backend", "ranks",
                    "virtual_p", "warm_start", "max_rows", "lam", "m0", "n",
                    "schedule", "revisions", "totals"}

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backend_pipeline_save_schema_and_parity(self, backend,
                                                     lasso_file, tmp_path,
                                                     capsys):
        path, A, b = lasso_file
        out = tmp_path / f"stream-{backend}.json"
        rc = main(["stream", "--file", path, "--schedule", "20,12",
                   "--mu", "2", "--s", "8", "--max-iter", "64",
                   "--lam", "0.5", "--tol", "1e-9",
                   "--backend", backend, "--ranks", str(RANKS),
                   "--pipeline", "--save", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "streaming lasso" in stdout
        assert "total warm refit modelled time" in stdout
        report = json.loads(out.read_text())
        assert self._SCHEMA_KEYS <= set(report)
        assert report["backend"] == backend and report["ranks"] == RANKS
        assert report["schedule"] == [{"op": "append", "rows": 20},
                                      {"op": "append", "rows": 12}]
        assert len(report["revisions"]) == 3
        # parity: the Python API replay with identical knobs
        m = A.shape[0]
        m0 = m - 32
        api = replay_schedule(
            A[:m0], b[:m0],
            [(A[m0:m0 + 20], b[m0:m0 + 20]), (A[m0 + 20:], b[m0 + 20:])],
            task="lasso", lam=0.5, mu=2, s=8, max_iter=64, tol=1e-9,
            record_every=10, schedule=Schedule(ring=True), backend=backend,
            ranks=RANKS,
        )
        for got, want in zip(report["revisions"], api["revisions"], strict=True):
            assert got["warm"]["iterations"] == want["warm"]["iterations"]
            assert got["warm"]["final_metric"] == pytest.approx(
                want["warm"]["final_metric"], rel=1e-12
            )

    def test_compare_cold_flag(self, lasso_file, capsys):
        path, _, _ = lasso_file
        rc = main(["stream", "--file", path, "--schedule", "16",
                   "--mu", "2", "--s", "8", "--max-iter", "48",
                   "--lam", "0.5", "--compare-cold"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "warm/cold" in out and "cold re-solve" in out

    def test_svm_stream_via_task_flag(self, svm_file, capsys):
        path, _, _ = svm_file
        rc = main(["stream", "--file", path, "--task", "svm",
                   "--schedule", "12", "--s", "8", "--max-iter", "96",
                   "--lam", "0.5", "--record-every", "48"])
        assert rc == 0
        assert "streaming svm" in capsys.readouterr().out

    def test_window_and_event_tokens(self, lasso_file, tmp_path, capsys):
        """-N / ~N schedule tokens plus --window replay evictions and
        label edits end to end, and the report carries them."""
        path, A, _ = lasso_file
        out = tmp_path / "stream-window.json"
        window = A.shape[0] - 20
        rc = main(["stream", "--file", path, "--schedule", "12,-6,~4,8",
                   "--window", str(window),
                   "--mu", "2", "--s", "8", "--max-iter", "48",
                   "--lam", "0.5", "--compare-cold", "--save", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "-rows" in stdout and "~rows" in stdout
        report = json.loads(out.read_text())
        assert report["max_rows"] == window
        assert report["schedule"] == [
            {"op": "append", "rows": 12}, {"op": "evict", "rows": 6},
            {"op": "labels", "rows": 4}, {"op": "append", "rows": 8},
        ]
        revs = report["revisions"]
        # rev 1: +12 appended on m0 = window - 20 + 12... the window only
        # trims once the row count exceeds it; the explicit -6 then fires
        assert revs[2]["rows_removed"] == 6
        assert revs[3]["labels_changed"] == 4
        assert all("evict_cost" in e for e in revs)

    def test_window_smaller_than_initial_data_rejected(self, lasso_file,
                                                       capsys):
        path, _, _ = lasso_file
        rc = main(["stream", "--file", path, "--schedule", "10",
                   "--window", "5"])
        assert rc == 2
        assert "max_rows" in capsys.readouterr().err

    def test_oversized_schedule_rejected(self, lasso_file, capsys):
        path, A, _ = lasso_file
        rc = main(["stream", "--file", path,
                   "--schedule", str(A.shape[0] + 5)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_schedule_rejected(self, lasso_file, capsys):
        path, _, _ = lasso_file
        rc = main(["stream", "--file", path, "--schedule", "0,5"])
        assert rc == 2

    @pytest.mark.parametrize("schedule", ["12,-,8", "12,~x", "abc"])
    def test_malformed_schedule_token_rejected(self, schedule, lasso_file,
                                               capsys):
        """Typos in the event tokens exit 2 with a clean error, not a
        traceback."""
        path, _, _ = lasso_file
        rc = main(["stream", "--file", path, "--schedule", schedule])
        assert rc == 2
        assert "bad schedule token" in capsys.readouterr().err
